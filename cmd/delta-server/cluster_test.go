// Fleet-mode tests: real worker servers (full middleware stack) behind a
// real coordinator server, exercising the distributed /v2 job path — the
// in-process half of the distributed-sweep acceptance criteria. The
// contract under test: a coordinated sweep's stored results are
// byte-identical to the same scenario run on one node, through worker
// failure and reassignment, with the fleet metrics and /healthz quorum
// view reflecting what happened.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"delta"
	"delta/internal/durable"
	"delta/internal/spec"
)

// startFleetWorker brings up one single-node delta-server to serve
// /v2/shards for a coordinator.
func startFleetWorker(t *testing.T, token string) *httptest.Server {
	t.Helper()
	st := newJobStore(jobStoreConfig{})
	t.Cleanup(st.Close)
	ts := httptest.NewServer(newServerWith(delta.NewPipeline(), st, serverConfig{AuthToken: token}))
	t.Cleanup(ts.Close)
	return ts
}

// startFleetCoordinator brings up a coordinator-mode server over peers,
// returning the *server too for the durable-restart hook. The tiny retry
// backoff keeps reassignment tests fast.
func startFleetCoordinator(t *testing.T, st *jobStore, cfg serverConfig) (*httptest.Server, *server) {
	t.Helper()
	if st == nil {
		st = newJobStore(jobStoreConfig{})
		t.Cleanup(st.Close)
	}
	if cfg.ShardRetryBackoff == 0 {
		cfg.ShardRetryBackoff = 2 * time.Millisecond
	}
	cfg.AccessLog = quietLogger()
	handler, sv, err := buildServer(delta.NewPipeline(), st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts, sv
}

// metricValue scrapes ts's /metrics and sums every series of name (all
// label combinations); ok reports whether any series was present.
func metricValue(t *testing.T, ts *httptest.Server, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sum, found := 0.0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		sum += v
		found = true
	}
	return sum, found
}

// TestFleetJobBitIdentical is the core acceptance criterion: the same
// scenario submitted to a 2-worker fleet and to a single node must store
// byte-identical result lists.
func TestFleetJobBitIdentical(t *testing.T) {
	single, _ := jobTestServer(t, jobStoreConfig{})
	refSum := submitJob(t, single, multiAxisJob)
	ref := pollJob(t, single, refSum.ID)
	if ref.Status != string(jobDone) || len(ref.Results) != 8 {
		t.Fatalf("single-node reference = %s, %d results", ref.Status, len(ref.Results))
	}

	w1, w2 := startFleetWorker(t, ""), startFleetWorker(t, "")
	coord, _ := startFleetCoordinator(t, nil, serverConfig{Peers: []string{w1.URL, w2.URL}})
	sum := submitJob(t, coord, multiAxisJob)
	got := pollJob(t, coord, sum.ID)
	if got.Status != string(jobDone) {
		t.Fatalf("fleet job = %s (err %q)", got.Status, got.Error)
	}

	if !sameResults(got.Raw, ref.Raw) {
		t.Fatalf("fleet results diverge from single-node:\n  want %s\n  have %s", ref.Raw, got.Raw)
	}

	if v, ok := metricValue(t, coord, "delta_cluster_points_merged_total"); !ok || v != 8 {
		t.Errorf("points merged = %v, %v (want 8)", v, ok)
	}
	if v, _ := metricValue(t, coord, "delta_cluster_shards_in_flight"); v != 0 {
		t.Errorf("shards in flight after completion = %v", v)
	}
	if v, ok := metricValue(t, coord, "delta_cluster_peers"); !ok || v != 2 {
		t.Errorf("peer gauge = %v, %v (want 2)", v, ok)
	}
}

// TestFleetCompactsMultilinePayload: a worker whose result frames break
// each payload across several data lines (valid JSON, line breaks between
// tokens) still yields compact one-line results. The coordinator's job
// stream is byte for byte a single-node run's.
func TestFleetCompactsMultilinePayload(t *testing.T) {
	single, _ := jobTestServer(t, jobStoreConfig{})
	ref := pollJob(t, single, submitJob(t, single, multiAxisJob).ID)

	p := delta.NewPipeline()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sh, err := spec.ReadShard(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ch, err := p.Stream(r.Context(), sh.Scenario, delta.WithStreamOffset(sh.Offset),
			delta.WithStreamLimit(sh.Limit), delta.WithStreamErrorPolicy(delta.StreamCollectPartial))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := 0
		for upd := range ch {
			payload, err := renderPoint(upd)
			if err != nil {
				t.Error(err)
				return
			}
			data, err := json.MarshalIndent(map[string]any{"index": upd.Point.Index, "payload": payload}, "", "  ")
			if err != nil {
				t.Error(err)
				return
			}
			n++
			fmt.Fprintf(w, "id: %d\nevent: result\ndata: %s\n\n", n, strings.ReplaceAll(string(data), "\n", "\ndata: "))
		}
		fmt.Fprintf(w, "event: done\ndata: {\"count\": %d}\n\n", n)
	}))
	t.Cleanup(worker.Close)
	coord, _ := startFleetCoordinator(t, nil, serverConfig{Peers: []string{worker.URL}})

	got := pollJob(t, coord, submitJob(t, coord, multiAxisJob).ID)
	if got.Status != string(jobDone) {
		t.Fatalf("fleet job = %s (err %q)", got.Status, got.Error)
	}
	if !sameResults(got.Raw, ref.Raw) {
		t.Fatalf("results from multi-line frames diverge from single-node:\n  want %s\n  have %s", ref.Raw, got.Raw)
	}
	if want, have := jobEvents(t, single, ref.ID), jobEvents(t, coord, got.ID); have != want {
		t.Fatalf("job stream from multi-line frames:\n%s\nwant\n%s", have, want)
	}
}

// TestFleetReassignsDeadWorker: one peer is permanently down (connection
// refused); the live worker must take over its shards, the sweep must
// still complete byte-identically, and the shard counter must show the
// dead peer's attempts ended failed or cancelled and none finished.
func TestFleetReassignsDeadWorker(t *testing.T) {
	single, _ := jobTestServer(t, jobStoreConfig{})
	ref := pollJob(t, single, submitJob(t, single, multiAxisJob).ID)

	live := startFleetWorker(t, "")
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // the URL now refuses connections
	coord, _ := startFleetCoordinator(t, nil, serverConfig{Peers: []string{dead.URL, live.URL}})

	got := pollJob(t, coord, submitJob(t, coord, multiAxisJob).ID)
	if got.Status != string(jobDone) {
		t.Fatalf("fleet job with dead worker = %s (err %q)", got.Status, got.Error)
	}
	if !sameResults(got.Raw, ref.Raw) {
		t.Fatal("results with a dead worker diverge from single-node")
	}
	shards := func(peerURL, status string) float64 {
		v, _ := metricValue(t, coord, fmt.Sprintf(`delta_cluster_shards_total{peer=%q,status=%q}`,
			strings.TrimPrefix(peerURL, "http://"), status))
		return v
	}
	if v := shards(dead.URL, "failed") + shards(dead.URL, "cancelled"); v == 0 {
		t.Error("no failed or cancelled shard attempt counted for the dead worker")
	}
	if v := shards(dead.URL, "done"); v != 0 {
		t.Errorf("dead worker finished %v shard(s)", v)
	}
	if v := shards(live.URL, "done"); v == 0 {
		t.Error("live worker finished no shard")
	}
}

// TestFleetAuthForwarded: with bearer auth on, the coordinator must
// forward its token to workers; a sweep completes end to end.
func TestFleetAuthForwarded(t *testing.T) {
	const token = "fleet-secret"
	w := startFleetWorker(t, token)
	coord, _ := startFleetCoordinator(t, nil, serverConfig{AuthToken: token, Peers: []string{w.URL}})

	do := func(method, url, body string) *http.Response {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := do(http.MethodPost, coord.URL+"/v2/jobs", multiAxisJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var sum jobSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var jr jobResponse
		resp := do(http.MethodGet, coord.URL+"/v2/jobs/"+sum.ID, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		if jr.Status != string(jobRunning) {
			if jr.Status != string(jobDone) || len(jr.Results) != 8 {
				t.Fatalf("authed fleet job = %s (err %q), %d results", jr.Status, jr.Error, len(jr.Results))
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetHealthQuorum: /healthz reports per-peer reachability and flips
// to degraded 503 when a majority of workers is unreachable.
func TestFleetHealthQuorum(t *testing.T) {
	w1, w2 := startFleetWorker(t, ""), startFleetWorker(t, "")
	healthy, _ := startFleetCoordinator(t, nil, serverConfig{Peers: []string{w1.URL, w2.URL}})
	var body struct {
		Status string `json:"status"`
		Fleet  struct {
			Quorum bool `json:"quorum"`
			Peers  []struct {
				Peer string `json:"peer"`
				OK   bool   `json:"ok"`
			} `json:"peers"`
		} `json:"fleet"`
	}
	resp := postGet(t, healthy.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body.Status != "ok" || !body.Fleet.Quorum || len(body.Fleet.Peers) != 2 {
		t.Fatalf("healthy fleet: status %d, body %+v", resp.StatusCode, body)
	}

	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead2.Close()
	degraded, _ := startFleetCoordinator(t, nil, serverConfig{Peers: []string{dead1.URL, dead2.URL, w1.URL}})
	resp, err := http.Get(degraded.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body.Fleet.Peers = nil
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || body.Status != "degraded" || body.Fleet.Quorum {
		t.Fatalf("majority-dead fleet: status %d, body %+v", resp.StatusCode, body)
	}
	up := 0
	for _, p := range body.Fleet.Peers {
		if p.OK {
			up++
		}
	}
	if up != 1 {
		t.Errorf("peers up = %d (want 1)", up)
	}
}

// TestFleetCoordinatorResume: what durability promises a coordinator. A
// durable job left mid-sweep — submit plus the first 3 of multiAxisJob's
// 8 results, no finish record, what a kill -9 leaves — resumes on a
// restarted coordinator at its merged prefix: the workers evaluate only
// the tail, and the job and its durable state end byte-identical to a
// single-node run.
func TestFleetCoordinatorResume(t *testing.T) {
	single, singleStore := jobTestServer(t, jobStoreConfig{})
	ref := pollJob(t, single, submitJob(t, single, multiAxisJob).ID)
	if ref.Status != string(jobDone) || len(ref.Raw) != 8 {
		t.Fatalf("single-node reference = %s, %d results", ref.Status, len(ref.Raw))
	}
	refJob, _ := singleStore.get(ref.ID)
	want := refJob.results // the stored bytes, as renderPoint wrote them

	var req jobRequest
	if err := json.Unmarshal([]byte(multiAxisJob), &req); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	crashed, err := durable.Open(dir, durable.StoreOptions{Fsync: durable.FsyncNever, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	const id = "fleet01"
	if err := crashed.RecordSubmit(id, ref.Name, 8, time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC), req.Scenario, "fail_fast"); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 3; seq++ {
		if err := crashed.RecordResult(id, seq, want[seq]); err != nil {
			t.Fatal(err)
		}
	}
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}

	d := openTestDurability(t, dir)
	defer d.close()
	st := newJobStore(jobStoreConfig{})
	st.durable = d
	t.Cleanup(st.Close)
	w1, w2 := startFleetWorker(t, ""), startFleetWorker(t, "")
	coord, sv := startFleetCoordinator(t, st, serverConfig{Peers: []string{w1.URL, w2.URL}})
	if restored, resumed := sv.resumeJobs(); restored != 0 || resumed != 1 {
		t.Fatalf("resumeJobs = (%d restored, %d resumed), want (0, 1)", restored, resumed)
	}

	got := pollJob(t, coord, id)
	if got.Status != string(jobDone) || got.Error != "" {
		t.Fatalf("resumed fleet job = %+v", got.jobSummary)
	}
	if !sameResults(got.Raw, ref.Raw) {
		t.Fatalf("resumed fleet results diverge from single-node:\n  want %s\n  have %s", ref.Raw, got.Raw)
	}
	js := findDurableJob(t, d, id)
	if js.Status != durable.StatusDone || !sameResults(js.Results, want) {
		t.Fatalf("durable state after resume: status %s, results\n  %s\nwant\n  %s", js.Status, js.Results, want)
	}

	// Only the 5-point tail was dispatched. A one-point remainder re-run
	// on the other worker may evaluate its point twice.
	var evaluated float64
	for _, w := range []*httptest.Server{w1, w2} {
		v, _ := metricValue(t, w, "delta_scenario_points_total")
		evaluated += v
	}
	reruns, _ := metricValue(t, coord, "delta_cluster_hedged_shards_total")
	if evaluated < 5 || evaluated > 5+reruns {
		t.Errorf("workers evaluated %v points with %v re-runs; want the 5-point tail only", evaluated, reruns)
	}
}

// TestParsePeersFlag covers the two -peers spellings.
func TestParsePeersFlag(t *testing.T) {
	got, err := parsePeersFlag(" a:8080, http://b:9090 ,, ")
	if err != nil || len(got) != 2 || got[0] != "a:8080" || got[1] != "http://b:9090" {
		t.Fatalf("inline list = %v, %v", got, err)
	}

	path := filepath.Join(t.TempDir(), "peers")
	if err := os.WriteFile(path, []byte("# fleet\nhost1:8080\n\n  host2:8080  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = parsePeersFlag("@" + path)
	if err != nil || len(got) != 2 || got[0] != "host1:8080" || got[1] != "host2:8080" {
		t.Fatalf("@file list = %v, %v", got, err)
	}

	if _, err := parsePeersFlag(""); err == nil {
		t.Error("empty -peers did not error")
	}
	if _, err := parsePeersFlag("@" + filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing @file did not error")
	}
}
