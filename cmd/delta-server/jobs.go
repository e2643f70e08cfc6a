// The /v2 async job API: POST a declarative scenario, poll its status, or
// stream its results over SSE as the pipeline produces them. Jobs live in
// a bounded in-memory store with TTL eviction of finished entries, so a
// long-running server cannot accumulate unbounded result sets.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"delta"
	"delta/internal/spec"
	"delta/internal/sse"
)

// Job store bounds (overridable via jobStoreConfig / server flags).
const (
	defaultMaxJobs = 64
	defaultJobTTL  = 15 * time.Minute
)

type jobStatus string

const (
	jobRunning   jobStatus = "running"
	jobDone      jobStatus = "done"
	jobFailed    jobStatus = "failed"
	jobCancelled jobStatus = "cancelled"
)

// jobStoreConfig bounds the store; zero values take the defaults.
type jobStoreConfig struct {
	MaxJobs int
	TTL     time.Duration
	now     func() time.Time // test hook
}

// Cancellation causes: a job context carries why it was cancelled, so a
// cancel racing the final stream update still classifies the job honestly
// instead of reporting it "done".
var (
	errJobDeleted     = errors.New("job cancelled by client")
	errServerShutdown = errors.New("server shutting down")
)

// jobStore is the bounded in-memory job registry.
type jobStore struct {
	mu   sync.Mutex
	jobs map[string]*job
	cfg  jobStoreConfig

	// evicted counts jobs dropped by TTL or capacity eviction (a gauge
	// companion for /metrics and /healthz).
	evicted atomic.Uint64

	// running tracks jobs still in the running state (incremented at
	// submit, decremented by each job's finish transition), so the
	// /metrics and /healthz occupancy reads don't walk every job under
	// its lock on each scrape.
	running atomic.Int64

	// base is the server-lifetime context jobs run under, so shutdown
	// cancels in-flight sweeps.
	base   context.Context
	cancel context.CancelCauseFunc

	// durable, when non-nil, mirrors every job lifecycle edge into the
	// WAL-backed store (-data-dir). nil = in-memory only; all its record
	// methods are nil-safe.
	durable *durability

	// runners tracks in-flight runJob goroutines so shutdown can drain
	// them into the durable store before the final snapshot.
	runners sync.WaitGroup
}

func newJobStore(cfg jobStoreConfig) *jobStore {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = defaultMaxJobs
	}
	if cfg.TTL <= 0 {
		cfg.TTL = defaultJobTTL
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	base, cancel := context.WithCancelCause(context.Background())
	return &jobStore{jobs: make(map[string]*job), cfg: cfg, base: base, cancel: cancel}
}

// Close cancels every running job (server shutdown).
func (st *jobStore) Close() { st.cancel(errServerShutdown) }

// drain waits up to d for in-flight sweeps to settle after Close,
// reporting whether every runner finished within the deadline. Runners
// observe the shutdown cancellation quickly (the stream stops between
// points), so this is a bound on flushing the last results, not on
// finishing the sweep.
func (st *jobStore) drain(d time.Duration) bool {
	done := make(chan struct{})
	go func() { st.runners.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// occupancy reports the stored and still-running job counts. A job
// DELETEd mid-run counts as running until its runner observes the cancel
// — it is still consuming pipeline workers, which is what readiness
// cares about.
func (st *jobStore) occupancy() (stored, running int) {
	st.mu.Lock()
	stored = len(st.jobs)
	st.mu.Unlock()
	if n := st.running.Load(); n > 0 {
		running = int(n)
	}
	return stored, running
}

// evictions reports jobs dropped by TTL or capacity eviction so far.
func (st *jobStore) evictions() uint64 { return st.evicted.Load() }

// job is one submitted scenario sweep. Immutable fields are set at submit;
// the mutable tail is guarded by mu, with notify closed-and-replaced on
// every append so SSE subscribers wake without polling.
type job struct {
	id      string
	name    string
	total   int
	created time.Time
	cancel  context.CancelCauseFunc

	// onFinish fires exactly once, on the running→terminal transition
	// (the store's running-count bookkeeping).
	onFinish func()

	mu       sync.Mutex
	notify   chan struct{}
	status   jobStatus
	results  []json.RawMessage // renderPoint's bytes, never modified once appended
	errMsg   string
	finished time.Time
}

// pointResult is the rendered JSON shape of one streamed scenario point.
type pointResult struct {
	Index    int    `json:"index"`
	Workload string `json:"workload"`
	Device   string `json:"device"`
	Batch    int    `json:"batch,omitempty"`
	Model    string `json:"model,omitempty"`
	Pass     string `json:"pass,omitempty"`
	Kind     string `json:"kind"` // "analytic" | "sim"
	Done     int    `json:"done"`
	Total    int    `json:"total"`

	Error  string             `json:"error,omitempty"`
	Result *estimateResponse  `json:"result,omitempty"`
	Sim    []simLayerResponse `json:"sim,omitempty"`
}

// simLayerResponse is one simulated layer of a sim point.
type simLayerResponse struct {
	Name           string  `json:"name"`
	L1Bytes        float64 `json:"l1_bytes"`
	L2Bytes        float64 `json:"l2_bytes"`
	DRAMBytes      float64 `json:"dram_bytes"`
	DRAMWriteBytes float64 `json:"dram_write_bytes"`
	L1Requests     uint64  `json:"l1_requests"`
	SimulatedCTAs  int     `json:"simulated_ctas"`
	TotalCTAs      int     `json:"total_ctas"`
}

// append records one rendered result and wakes SSE subscribers. It
// returns the result's dense index — the sequence number persisted with
// it, and the resume offset contract across restarts.
func (j *job) append(r json.RawMessage) int {
	j.mu.Lock()
	j.results = append(j.results, r)
	seq := len(j.results) - 1
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
	return seq
}

// finish moves the job to a terminal status.
func (j *job) finish(status jobStatus, errMsg string, at time.Time) {
	j.mu.Lock()
	transitioned := j.status == jobRunning
	if transitioned {
		j.status, j.errMsg, j.finished = status, errMsg, at
	}
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
	if transitioned && j.onFinish != nil {
		j.onFinish()
	}
}

// snapshot returns the job's state for status responses: results from
// offset on, plus the channel to wait on for more. The results share the
// job's stored bytes.
func (j *job) snapshot(offset int) (status jobStatus, errMsg string, results []json.RawMessage, done int, more <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if offset < 0 || offset > len(j.results) {
		offset = len(j.results)
	}
	return j.status, j.errMsg, slices.Clip(j.results[offset:]), len(j.results), j.notify
}

var errStoreFull = errors.New("job store full (all slots running); retry later")

// submit registers a job and returns it; the caller launches the sweep.
// Finished jobs past TTL are evicted first, then the oldest finished job
// if the store is still at capacity; a store full of running jobs rejects.
func (st *jobStore) submit(name string, total int, cancel context.CancelCauseFunc) (*job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.cfg.now()
	st.evictLocked(now)
	if len(st.jobs) >= st.cfg.MaxJobs {
		return nil, errStoreFull
	}
	id := newJobID()
	for _, taken := st.jobs[id]; taken; _, taken = st.jobs[id] {
		id = newJobID()
	}
	j := &job{
		id: id, name: name, total: total, created: now,
		cancel: cancel, status: jobRunning, notify: make(chan struct{}),
		onFinish: func() { st.running.Add(-1) },
	}
	st.running.Add(1)
	st.jobs[id] = j
	return j, nil
}

// adopt inserts a recovered job under its persisted id (the durable
// restart path). Recovery may briefly exceed MaxJobs — refusing to
// re-adopt state the previous process accepted would break the resume
// guarantee — so only TTL/capacity eviction of already-finished jobs
// applies here, never a rejection.
func (st *jobStore) adopt(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked(st.cfg.now())
	st.jobs[j.id] = j
	if j.status == jobRunning {
		st.running.Add(1)
	}
}

// evictLocked drops finished jobs past TTL; if the store is still full it
// drops the oldest finished jobs until a slot frees.
func (st *jobStore) evictLocked(now time.Time) {
	for id, j := range st.jobs {
		j.mu.Lock()
		expired := j.status != jobRunning && now.Sub(j.finished) > st.cfg.TTL
		j.mu.Unlock()
		if expired {
			delete(st.jobs, id)
			st.evicted.Add(1)
			st.durable.recordEvict(id)
		}
	}
	for len(st.jobs) >= st.cfg.MaxJobs {
		oldestID := ""
		var oldest time.Time
		for id, j := range st.jobs {
			j.mu.Lock()
			fin, running := j.finished, j.status == jobRunning
			j.mu.Unlock()
			if running {
				continue
			}
			if oldestID == "" || fin.Before(oldest) {
				oldestID, oldest = id, fin
			}
		}
		if oldestID == "" {
			return // every slot is running; submit will reject
		}
		delete(st.jobs, oldestID)
		st.evicted.Add(1)
		st.durable.recordEvict(oldestID)
	}
}

func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

func (st *jobStore) remove(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if ok {
		delete(st.jobs, id)
		st.durable.recordEvict(id)
	}
	return j, ok
}

func (st *jobStore) list() []*job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*job, 0, len(st.jobs))
	for _, j := range st.jobs {
		out = append(out, j)
	}
	// Deterministic listing order: newest first, id as tiebreak.
	sort.Slice(out, func(a, b int) bool {
		if !out[a].created.Equal(out[b].created) {
			return out[a].created.After(out[b].created)
		}
		return out[a].id < out[b].id
	})
	return out
}

// Entropy hooks for newJobID: randRead is swappable in tests, and
// jobIDCounter backs the fallback ids.
var (
	randRead     = rand.Read
	jobIDCounter atomic.Uint64
)

// newJobID returns a 16-hex-char random id. An entropy read failure is
// retried once; if the source stays broken, a process-unique monotonic id
// keeps submits working instead of surfacing a transient 500.
func newJobID() string {
	var b [8]byte
	for try := 0; try < 2; try++ {
		if _, err := randRead(b[:]); err == nil {
			return hex.EncodeToString(b[:])
		}
	}
	return fmt.Sprintf("j%x-%d", time.Now().UnixNano(), jobIDCounter.Add(1))
}

// --- HTTP layer ---

// jobRequest is the POST /v2/jobs body: a scenario document plus an error
// policy.
type jobRequest struct {
	Scenario json.RawMessage `json:"scenario"`

	// ErrorPolicy is "fail_fast" (default) or "collect_partial".
	ErrorPolicy string `json:"error_policy,omitempty"`
}

// jobSummary is the status shape of one job.
type jobSummary struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Status   string `json:"status"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Error    string `json:"error,omitempty"`
	Created  string `json:"created"`
	Finished string `json:"finished,omitempty"`

	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// jobResponse is the GET /v2/jobs/{id} answer: the summary plus results.
type jobResponse struct {
	jobSummary
	Results []json.RawMessage `json:"results"`
}

func (j *job) summary() jobSummary {
	// One lock acquisition, so a poll racing completion can't observe a
	// mixed status/finished pair.
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summaryLocked()
}

func (j *job) summaryLocked() jobSummary {
	s := jobSummary{
		ID: j.id, Name: j.name, Status: string(j.status),
		Done: len(j.results), Total: j.total, Error: j.errMsg,
		Created:   j.created.UTC().Format(time.RFC3339),
		StatusURL: "/v2/jobs/" + j.id,
		EventsURL: "/v2/jobs/" + j.id + "/events",
	}
	if !j.finished.IsZero() {
		s.Finished = j.finished.UTC().Format(time.RFC3339)
	}
	return s
}

// response snapshots the summary and the results consistently.
func (j *job) response() jobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobResponse{jobSummary: j.summaryLocked(), Results: slices.Clip(j.results)}
}

// handleJobSubmit answers POST /v2/jobs: decode + expand the scenario
// synchronously (so malformed sweeps 400 immediately), then run it in the
// background and answer 202 with the job's URLs.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("parsing request: %w", err))
		return
	}
	if len(req.Scenario) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing scenario"))
		return
	}
	var policy delta.StreamErrorPolicy
	switch req.ErrorPolicy {
	case "", "fail_fast":
		policy = delta.StreamFailFast
	case "collect_partial":
		policy = delta.StreamCollectPartial
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown error_policy %q (want fail_fast or collect_partial)", req.ErrorPolicy))
		return
	}
	sc, err := spec.ReadScenario(bytes.NewReader(req.Scenario))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Reserve the store slot before spawning stream workers, so a full
	// store rejects without burning any evaluation work.
	ctx, cancel := context.WithCancelCause(s.jobs.base)
	j, err := s.jobs.submit(sc.Name, sc.Size(), cancel)
	if err != nil {
		cancel(nil)
		if errors.Is(err, errStoreFull) {
			writeOverloaded(w, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	policyName := req.ErrorPolicy
	if policyName == "" {
		policyName = "fail_fast"
	}
	s.jobs.durable.recordSubmit(j, req.Scenario, policyName)
	if err := s.launch(ctx, j, req.Scenario, sc, 0, policy); err != nil {
		// Expansion errors normally surface from ReadScenario above; if
		// one slips through, release the slot (finish first, so the
		// store's running count is balanced) and report it. remove also
		// truncates the durable record just written.
		cancel(nil)
		j.finish(jobFailed, err.Error(), s.jobs.cfg.now())
		s.jobs.remove(j.id)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.summary())
}

// launch starts j's sweep at point offset — a fresh submit's 0, a resumed
// job's persisted result count: sharded across the worker fleet in
// coordinator mode, else on the local pipeline. Only a local stream that
// cannot start errors, and then nothing runs.
func (s *server) launch(ctx context.Context, j *job, doc json.RawMessage, sc delta.Scenario, offset int, policy delta.StreamErrorPolicy) error {
	if s.coord != nil {
		// The raw scenario document travels to the workers verbatim, and
		// only the points past offset are dispatched, so a resumed sweep
		// never recomputes or duplicates merged results.
		s.jobs.runners.Add(1)
		go s.runClusterJob(ctx, j, doc, sc, offset, policy)
		return nil
	}
	ch, err := s.p.Stream(ctx, sc, delta.WithStreamErrorPolicy(policy), delta.WithStreamOffset(offset))
	if err != nil {
		return err
	}
	s.jobs.runners.Add(1)
	go s.runJob(ctx, j, ch, policy)
	return nil
}

// runJob drains the stream into the job record, then classifies it. A
// point that cannot be encoded fails the job; the deferred cancel then
// stops the stream.
func (s *server) runJob(ctx context.Context, j *job, ch <-chan delta.StreamUpdate, policy delta.StreamErrorPolicy) {
	defer s.jobs.runners.Done()
	defer j.cancel(nil)
	var (
		firstErr string
		runErr   error
	)
	for upd := range ch {
		res, err := renderPoint(upd)
		if err != nil {
			runErr = err
			break
		}
		s.jobs.durable.recordResult(j.id, j.append(res), res)
		if firstErr == "" && upd.Err != nil {
			firstErr = upd.Err.Error()
		}
	}
	s.finishJob(ctx, j, runErr, firstErr, policy)
}

// finishJob moves a drained sweep to its terminal status, durably. The
// status is classified from the cancellation cause, not the update count:
// a DELETE (or shutdown) that lands after the final stream update would
// otherwise be misreported as "done" — the client asked for cancellation
// and must see it reflected, however late it raced in. Otherwise a
// coordination error (runErr: a shard out of attempts, a merge error)
// fails the job, as does the first point error under fail-fast, whose
// stream stopped at that point.
func (s *server) finishJob(ctx context.Context, j *job, runErr error, firstErr string, policy delta.StreamErrorPolicy) {
	now := s.jobs.cfg.now()
	status, msg := jobDone, ""
	switch {
	case ctx.Err() != nil:
		status, msg = jobCancelled, context.Cause(ctx).Error()
	case runErr != nil:
		status, msg = jobFailed, runErr.Error()
	case firstErr != "" && policy == delta.StreamFailFast:
		status, msg = jobFailed, firstErr
	}
	j.finish(status, msg, now)
	// A shutdown cancellation is deliberately NOT a durable terminal
	// state: the job stays "running" on disk so the next process resumes
	// the sweep from the results persisted so far.
	if status == jobCancelled && errors.Is(context.Cause(ctx), errServerShutdown) {
		return
	}
	s.jobs.durable.recordFinish(j.id, status, msg, now)
}

// renderPoint encodes a streamed update as its /v2 result: the one
// encoding of a point. The job record, GET, SSE, the WAL and a worker's
// shard frames all carry these bytes unchanged.
func renderPoint(upd delta.StreamUpdate) (json.RawMessage, error) {
	p := upd.Point
	out := pointResult{
		Index: p.Index, Workload: p.Workload, Device: p.Device.Name,
		Batch: p.Batch, Model: p.Model, Pass: p.Pass,
		Kind: "analytic", Done: upd.Done, Total: upd.Total,
	}
	if p.Sim != nil {
		out.Kind = "sim"
	}
	switch {
	case upd.Err != nil:
		out.Error = upd.Err.Error()
	case p.Sim != nil:
		for _, r := range upd.Sim {
			out.Sim = append(out.Sim, simLayerResponse{
				Name: r.Layer.Name, L1Bytes: r.L1Bytes, L2Bytes: r.L2Bytes,
				DRAMBytes: r.DRAMBytes, DRAMWriteBytes: r.DRAMWriteBytes,
				L1Requests:    r.L1Requests,
				SimulatedCTAs: r.SimulatedCTAs, TotalCTAs: r.TotalCTAs,
			})
		}
	default:
		resp := renderNetwork(upd.Network, p.Net.Counts)
		out.Result = &resp
	}
	return json.Marshal(out)
}

// handleJobList answers GET /v2/jobs with every live job's summary.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	out := make([]jobSummary, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.summary())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// routeJob dispatches /v2/jobs/{id} and /v2/jobs/{id}/events.
func (s *server) routeJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v2/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeError(w, http.StatusNotFound, errors.New("missing job id"))
		return
	}
	switch sub {
	case "":
		methods{
			http.MethodGet:    func(w http.ResponseWriter, r *http.Request) { s.handleJobGet(w, r, id) },
			http.MethodDelete: func(w http.ResponseWriter, r *http.Request) { s.handleJobDelete(w, r, id) },
		}.dispatch(w, r)
	case "events":
		methods{
			http.MethodGet: func(w http.ResponseWriter, r *http.Request) { s.handleJobEvents(w, r, id) },
		}.dispatch(w, r)
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job resource %q", sub))
	}
}

// handleJobGet answers GET /v2/jobs/{id}: status, progress, and the
// results streamed so far.
func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request, id string) {
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.response())
}

// handleJobDelete cancels a running job (or discards a finished one).
func (s *server) handleJobDelete(w http.ResponseWriter, r *http.Request, id string) {
	j, ok := s.jobs.remove(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	j.cancel(errJobDeleted)
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "deleted"})
}

// handleJobEvents answers GET /v2/jobs/{id}/events: a Server-Sent-Events
// stream replaying the results so far, then following the sweep live. Each
// result is one `event: result` frame whose id counts the results
// delivered through it; a terminal `event: done` frame carries the final
// status. A reconnecting client sends the standard Last-Event-ID header to
// skip the results it already has — including across a server restart,
// since the replayed durable results occupy the same dense positions.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	// The snapshot clamps a Last-Event-ID past the results so far to
	// their count, and ids continue from there.
	status, errMsg, results, done, more := j.snapshot(sse.LastEventID(r))
	sw, err := sse.Start(w, done-len(results))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	// Idle streams emit periodic comment frames so proxies and load
	// balancers with idle-connection timeouts do not reap a healthy
	// stream that is simply waiting on a slow sweep.
	keepAlive := time.NewTicker(s.keepAlive)
	defer keepAlive.Stop()
	for {
		for _, res := range results {
			if err := sw.Result(res); err != nil {
				return
			}
		}
		sw.Flush()
		if status != jobRunning {
			_ = sw.Done(map[string]any{
				"status": string(status), "done": done, "total": j.total, "error": errMsg,
			})
			sw.Flush()
			return
		}
		select {
		case <-more:
		case <-keepAlive.C:
			if err := sw.KeepAlive(); err != nil {
				return
			}
			sw.Flush()
		case <-r.Context().Done():
			return
		}
		status, errMsg, results, done, more = j.snapshot(sw.ID())
	}
}
