// Command delta-server exposes the DeLTA evaluation pipeline as an HTTP
// JSON API — the serving layer for driving the model from other services,
// notebooks, or dashboards. All requests share one concurrent pipeline,
// whose simulation memo runs a repeated simulation once.
//
// Synchronous endpoints (adapters over the scenario path):
//
//	GET  /healthz      liveness + simulation-memo counters
//	GET  /v1/devices   resolvable device names
//	GET  /v1/networks  registered network names
//	POST /v1/estimate  evaluate a JSON layer list (internal/spec format)
//	POST /v1/network   evaluate a registered network by name
//	POST /v1/explore   price + evaluate a design-space grid
//
// Asynchronous scenario jobs (declarative multi-axis sweeps):
//
//	POST   /v2/jobs             submit a scenario; answers 202 + job id
//	GET    /v2/jobs             list jobs
//	GET    /v2/jobs/{id}        status, progress, results so far
//	GET    /v2/jobs/{id}/events stream results via Server-Sent Events
//	DELETE /v2/jobs/{id}        cancel / discard a job
//
// Operations: GET /metrics serves Prometheus text metrics; /healthz is a
// readiness view (503 when saturated). The in-flight gate (-max-inflight)
// sheds load with 503 and Retry-After, as does a job store full of running
// jobs. -auth-token (or DELTA_AUTH_TOKEN) puts every data endpoint behind
// a bearer token while /healthz and /metrics stay open.
//
// Durability: -data-dir enables a WAL-backed job store (internal/durable)
// with an -fsync policy — restarts re-adopt persisted jobs and resume
// half-finished sweeps from their last completed point. Without -data-dir
// jobs are in-memory and behavior is unchanged. See the README's
// Durability section.
//
// Distributed sweeps: every delta-server also serves POST /v2/shards, the
// worker half of fleet mode — a scenario window streamed back as SSE
// result frames. With -coordinator -peers=<list|@file>, submitted /v2
// jobs are instead split into a queue of four shards per worker that each
// worker pulls from when free (internal/cluster), and merged back in
// expansion order, byte-identical to a single-node run. An idle worker
// takes over the back half of the busiest in-flight shard, or re-runs
// its last point; a failed attempt's remainder goes back on the queue,
// at most max(3, workers+1) failed attempts per shard, and each attempt
// is bounded by -shard-timeout. See the README's "Distributed sweeps"
// section.
//
// Chaos testing: -chaos arms a seeded deterministic fault injector
// (internal/chaos) on the server's listener — refusals, latency, and
// SSE-frame cut/truncate/corrupt — for resilience drills that replay
// identically from the spec's seed.
//
// Example:
//
//	delta-server -addr :8080 &
//	curl -s localhost:8080/v1/network -d '{"network": "resnet152", "device": "V100"}'
//	curl -s localhost:8080/v2/jobs -d '{"scenario": {
//	  "workloads": [{"network": "alexnet"}, {"network": "vgg16"}],
//	  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
//	  "models": ["delta", "prior"], "batches": [32]}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"delta"
	"delta/internal/chaos"
	"delta/internal/durable"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "pipeline worker pool size (0 = GOMAXPROCS)")
		maxJobs = flag.Int("max-jobs", 0, "bound on stored /v2 jobs (0 = default)")
		jobTTL  = flag.Duration("job-ttl", 0, "retention of finished /v2 jobs (0 = default)")

		authToken = flag.String("auth-token", "",
			"bearer token guarding all endpoints but /healthz and /metrics (empty = $DELTA_AUTH_TOKEN, unset = no auth)")
		maxInflight = flag.Int("max-inflight", 0,
			"global concurrent-request cap; exceeding answers 503 + Retry-After (0 = uncapped)")

		dataDir = flag.String("data-dir", "",
			"durable job state directory: WAL + snapshots; restart resumes half-finished sweeps (empty = in-memory only)")
		fsyncMode = flag.String("fsync", "interval",
			"WAL fsync policy with -data-dir: always | interval | never")
		fsyncEvery = flag.Duration("fsync-interval", 0,
			"WAL fsync cadence for -fsync=interval (0 = 100ms default)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second,
			"shutdown budget for draining running jobs into the durable store")

		coordinator = flag.Bool("coordinator", false,
			"shard /v2 job sweeps across a worker fleet (-peers) instead of evaluating them locally")
		peersFlag = flag.String("peers", "",
			"worker base URLs for -coordinator: comma-separated list, or @file with one per line")
		shardTimeout = flag.Duration("shard-timeout", 0,
			"bound on one shard attempt when coordinating (0 = default 10m)")

		chaosFlag = flag.String("chaos", "",
			`fault-injection spec (JSON rules or @file, see internal/chaos): injects request refusals, latency, and SSE-frame cut/truncate/corrupt into accepted connections; seeded by the spec's seed`)
	)
	flag.Parse()
	// The env var is read after flag parsing, not wired as the flag
	// default: a default would be echoed by -h and flag-error usage
	// output, leaking the live token into logs.
	if *authToken == "" {
		*authToken = os.Getenv("DELTA_AUTH_TOKEN")
	}
	var peers []string
	switch {
	case *coordinator && *peersFlag == "":
		fmt.Fprintln(os.Stderr, "delta-server: -coordinator requires -peers")
		os.Exit(2)
	case !*coordinator && *peersFlag != "":
		fmt.Fprintln(os.Stderr, "delta-server: -peers requires -coordinator")
		os.Exit(2)
	case *coordinator:
		var err error
		if peers, err = parsePeersFlag(*peersFlag); err != nil {
			fmt.Fprintln(os.Stderr, "delta-server: -peers:", err)
			os.Exit(2)
		}
	}

	// The chaos spec is checked before anything with side effects: a bad
	// one must exit before the data dir is opened and its sweeps resumed.
	var (
		cspec chaos.Spec
		inj   *chaos.Injector
	)
	if *chaosFlag != "" {
		var err error
		if cspec, err = chaos.ParseSpec(*chaosFlag); err == nil {
			inj, err = chaos.New(cspec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "delta-server: -chaos:", err)
			os.Exit(2)
		}
		// Injections land in the server log, so a failed chaos drill shows
		// exactly which faults fired in what order — and the seed to replay
		// them.
		inj.Logf(log.Printf)
	}

	p := delta.NewPipeline(delta.WithPipelineWorkers(*workers))
	jobs := newJobStore(jobStoreConfig{MaxJobs: *maxJobs, TTL: *jobTTL})
	defer jobs.Close()
	if *dataDir != "" {
		mode, err := durable.ParseFsyncMode(*fsyncMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "delta-server:", err)
			os.Exit(2)
		}
		dur, err := openDurability(*dataDir,
			durable.StoreOptions{Fsync: mode, FsyncInterval: *fsyncEvery}, log.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "delta-server: opening durable store:", err)
			os.Exit(1)
		}
		jobs.durable = dur
		log.Printf("delta-server: durable jobs in %s (fsync=%s)", *dataDir, *fsyncMode)
	}
	handler, sv, err := buildServer(p, jobs, serverConfig{
		AuthToken:    *authToken,
		MaxInFlight:  *maxInflight,
		AccessLog:    log.Default(),
		Peers:        peers,
		ShardTimeout: *shardTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "delta-server:", err)
		os.Exit(2)
	}
	if len(peers) > 0 {
		log.Printf("delta-server: coordinator mode, %d worker(s)", len(peers))
	}
	sv.resumeJobs()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "delta-server:", err)
		os.Exit(1)
	}
	if inj != nil {
		ln = inj.Listener(ln)
		log.Printf("delta-server: CHAOS fault injection armed: %d rule(s), seed %d", len(cspec.Rules), chaos.Seed(cspec.Seed))
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("delta-server listening on %s", *addr)

	// closeDurable drains running jobs into the WAL and compacts the store
	// to a clean snapshot; a job interrupted mid-sweep stays "running" on
	// disk and resumes at the next start.
	closeDurable := func() {
		if jobs.durable == nil {
			return
		}
		jobs.Close()
		if !jobs.drain(*drainTimeout) {
			log.Printf("delta-server: drain timed out after %s; snapshotting what was flushed", *drainTimeout)
		}
		jobs.durable.close()
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			closeDurable()
			fmt.Fprintln(os.Stderr, "delta-server:", err)
			os.Exit(1)
		}
		closeDurable()
	case <-ctx.Done():
		log.Print("delta-server: shutting down")
		// Cancel running jobs first: SSE subscribers blocked on a job's
		// next result are woken by the job finishing as cancelled, so
		// Shutdown's wait for open connections can complete.
		jobs.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "delta-server: shutdown:", err)
			os.Exit(1)
		}
		closeDurable()
	}
}
