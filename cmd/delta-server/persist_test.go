// Tests for the durable-jobs wiring: crash-recovery resume with
// byte-identical results and the WAL's /metrics and /healthz surface,
// persistence-aware eviction racing job completion, the entropy-failure
// job-id fallback, SSE Last-Event-ID resume, and a bad -chaos spec exiting
// before the data dir is touched.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delta"
	"delta/internal/durable"
	"delta/internal/sse"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// durableTestServer wires a server whose job store records into d.
func durableTestServer(t *testing.T, d *durability, cfg jobStoreConfig) (*httptest.Server, *jobStore, *server) {
	t.Helper()
	st := newJobStore(cfg)
	st.durable = d
	handler, sv, err := buildServer(delta.NewPipeline(), st, serverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	t.Cleanup(st.Close)
	return ts, st, sv
}

func openTestDurability(t *testing.T, dir string) *durability {
	t.Helper()
	d, err := openDurability(dir, durable.StoreOptions{Fsync: durable.FsyncNever}, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func findDurableJob(t *testing.T, d *durability, id string) *durable.JobState {
	t.Helper()
	for _, js := range d.store.Jobs() {
		if js.ID == id {
			return js
		}
	}
	t.Fatalf("job %s not in durable store", id)
	return nil
}

// TestCrashRecoveryResume is the Go-level half of the resume acceptance
// criterion: a durable state interrupted mid-sweep (submit + a prefix of
// results, no finish record — what a kill -9 leaves behind) must resume
// on the next start and converge to results byte-identical to an
// uninterrupted run.
func TestCrashRecoveryResume(t *testing.T) {
	// Reference: an uninterrupted run with durability on.
	durA := openTestDurability(t, t.TempDir())
	defer durA.close()
	tsA, _, _ := durableTestServer(t, durA, jobStoreConfig{})
	sumA := submitJob(t, tsA, multiAxisJob)
	want := pollJob(t, tsA, sumA.ID)
	if want.Status != string(jobDone) || len(want.Results) != 8 {
		t.Fatalf("reference run = %+v", want.jobSummary)
	}
	jsA := findDurableJob(t, durA, sumA.ID)
	if jsA.Status != durable.StatusDone || len(jsA.Results) != 8 {
		t.Fatalf("reference durable state: status %s, %d results", jsA.Status, len(jsA.Results))
	}

	// Fabricate the crashed state: same scenario, first 3 result payloads,
	// status still running.
	var req jobRequest
	if err := json.Unmarshal([]byte(multiAxisJob), &req); err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	stB, err := durable.Open(dirB, durable.StoreOptions{Fsync: durable.FsyncNever, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	const resumeID = "resume01"
	created := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	if err := stB.RecordSubmit(resumeID, jsA.Name, jsA.Total, created, req.Scenario, "fail_fast"); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 3; seq++ {
		if err := stB.RecordResult(resumeID, seq, jsA.Results[seq]); err != nil {
			t.Fatal(err)
		}
	}
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the new process must adopt and resume the sweep.
	durB := openTestDurability(t, dirB)
	defer durB.close()
	tsB, _, svB := durableTestServer(t, durB, jobStoreConfig{})
	restored, resumed := svB.resumeJobs()
	if restored != 0 || resumed != 1 {
		t.Fatalf("resumeJobs = (%d restored, %d resumed), want (0, 1)", restored, resumed)
	}
	got := pollJob(t, tsB, resumeID)
	if got.Status != string(jobDone) || got.Error != "" {
		t.Fatalf("resumed job = %+v", got.jobSummary)
	}
	if got.Created != created.UTC().Format(time.RFC3339) {
		t.Errorf("resumed job created = %s, want the original %s", got.Created, created.UTC().Format(time.RFC3339))
	}

	// The full result set — recovered prefix + re-evaluated tail — must be
	// byte-identical to the uninterrupted run.
	if !sameResults(got.Raw, want.Raw) {
		t.Fatalf("resumed results diverge from uninterrupted run:\nwant %s\ngot  %s", want.Raw, got.Raw)
	}

	// The WAL's operator surface: -data-dir adds exactly the four
	// delta_wal_* series to /metrics, and /healthz stays ready with a
	// durable block that holds the WAL counters and nothing else.
	tsMem, _, _ := durableTestServer(t, nil, jobStoreConfig{})
	inMemory := metricFamilies(t, tsMem.URL)
	var added []string
	for name := range metricFamilies(t, tsB.URL) {
		if !inMemory[name] {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	wantAdded := []string{"delta_wal_compactions_total", "delta_wal_records_total",
		"delta_wal_replayed_jobs", "delta_wal_torn_bytes"}
	if !slices.Equal(added, wantAdded) {
		t.Errorf("durable /metrics adds %v, want %v", added, wantAdded)
	}
	var health struct {
		Durable map[string]float64 `json:"durable"`
	}
	if resp := postGet(t, tsB.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if health.Durable["wal_records"] <= 0 || health.Durable["replayed_jobs"] != 1 || len(health.Durable) != 4 {
		t.Errorf("healthz durable block = %v", health.Durable)
	}

	// And the durable state must have converged too: done, with the same
	// persisted payloads as the reference run.
	jsB := findDurableJob(t, durB, resumeID)
	if jsB.Status != durable.StatusDone || len(jsB.Results) != 8 {
		t.Fatalf("durable state after resume: status %s, %d results", jsB.Status, len(jsB.Results))
	}
	for i := range jsB.Results {
		if string(jsB.Results[i]) != string(jsA.Results[i]) {
			t.Errorf("persisted result %d diverges:\nwant %s\ngot  %s", i, jsA.Results[i], jsB.Results[i])
		}
	}

	// SSE reconnect across the restart: Last-Event-ID from the old process
	// replays from that offset against the recovered results.
	reqSSE, err := http.NewRequest(http.MethodGet, tsB.URL+"/v2/jobs/"+resumeID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	reqSSE.Header.Set("Last-Event-ID", "3")
	ids, results := readSSEResults(t, reqSSE)
	if len(results) != 5 {
		t.Fatalf("SSE after Last-Event-ID 3 replayed %d results, want 5", len(results))
	}
	if ids[0] != 4 || results[0].Index != 3 {
		t.Errorf("first replayed frame: id %d index %d, want id 4 index 3", ids[0], results[0].Index)
	}
}

// TestResumeRejectsRemovedField: a durable job recorded with a scenario
// field the decoder no longer accepts ("replay_partitions", removed with
// set-partitioned L2 replay) finishes failed on resume, carrying the
// decoder's message, instead of running.
func TestResumeRejectsRemovedField(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.StoreOptions{Fsync: durable.FsyncNever, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	doc := json.RawMessage(`{"workloads": [{"network": "alexnet"}], "sim_configs": [{"replay_partitions": 2}]}`)
	created := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	if err := st.RecordSubmit("legacy01", "legacy", 1, created, doc, "fail_fast"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	dur := openTestDurability(t, dir)
	defer dur.close()
	ts, _, sv := durableTestServer(t, dur, jobStoreConfig{})
	sv.resumeJobs()
	got := pollJob(t, ts, "legacy01")
	if got.Status != string(jobFailed) || !strings.Contains(got.Error, "replay_partitions") {
		t.Fatalf("resumed legacy job = %+v, want failed naming replay_partitions", got.jobSummary)
	}
}

// readSSEResults consumes an SSE stream until the done frame, returning
// the result frames' ids and payloads.
func readSSEResults(t *testing.T, req *http.Request) (ids []int, results []pointResult) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	done := false
	if err := sse.Parse(resp.Body, func(ev sse.Event) error {
		if ev.Type == "done" {
			done = true
			return sse.Stop
		}
		var res pointResult
		if err := json.Unmarshal(ev.Data, &res); err != nil {
			return err
		}
		ids = append(ids, ev.ID)
		results = append(results, res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("stream ended without a done frame")
	}
	return ids, results
}

// TestJobEventsLastEventID: a plain (in-memory) reconnect with
// Last-Event-ID skips the frames the client already has; bogus ids fall
// back to a full replay.
func TestJobEventsLastEventID(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	sum := submitJob(t, ts, multiAxisJob)
	if jr := pollJob(t, ts, sum.ID); jr.Status != string(jobDone) {
		t.Fatalf("job = %+v", jr.jobSummary)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/jobs/"+sum.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "5")
	ids, results := readSSEResults(t, req)
	if len(results) != 3 {
		t.Fatalf("replayed %d results after id 5, want 3", len(results))
	}
	for i, res := range results {
		if ids[i] != 6+i || res.Index != 5+i {
			t.Errorf("frame %d: id %d index %d, want id %d index %d", i, ids[i], res.Index, 6+i, 5+i)
		}
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v2/jobs/"+sum.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	if _, results := readSSEResults(t, req); len(results) != 8 {
		t.Errorf("bogus Last-Event-ID replayed %d results, want full 8", len(results))
	}
}

// TestEvictionFinishRaceDurable races runJob's terminal transition
// against TTL eviction under a durable store: the finish hook must fire
// exactly once, and the durable state must match the winning outcome —
// eventually evicted, never left "running" on disk.
func TestEvictionFinishRaceDurable(t *testing.T) {
	dur := openTestDurability(t, t.TempDir())
	defer dur.close()

	var clock atomic.Int64
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	clock.Store(t0.UnixNano())
	st := newJobStore(jobStoreConfig{
		MaxJobs: 8, TTL: time.Nanosecond,
		now: func() time.Time { return time.Unix(0, clock.Load()).UTC() },
	})
	defer st.Close()
	st.durable = dur
	s := &server{jobs: st}

	ctx, cancel := context.WithCancelCause(st.base)
	j, err := st.submit("race", 1, cancel)
	if err != nil {
		t.Fatal(err)
	}
	dur.recordSubmit(j, json.RawMessage(`{"workloads":[{"network":"alexnet"}]}`), "fail_fast")

	var finishes atomic.Int32
	prevFinish := j.onFinish
	j.onFinish = func() { finishes.Add(1); prevFinish() }

	ch := make(chan delta.StreamUpdate, 1)
	ch <- delta.StreamUpdate{Done: 1, Total: 1}
	close(ch)

	var wg sync.WaitGroup
	wg.Add(2)
	st.runners.Add(1)
	go func() {
		defer wg.Done()
		s.runJob(ctx, j, ch, delta.StreamFailFast)
	}()
	go func() {
		defer wg.Done()
		// Concurrent TTL sweeps: every submit runs the evictor, and the
		// 1ns TTL with an advancing clock makes the job evictable the
		// moment it finishes.
		for i := 0; i < 50; i++ {
			clock.Add(int64(time.Millisecond))
			_, cancelF := context.WithCancelCause(st.base)
			if f, err := st.submit("filler", 1, cancelF); err == nil {
				f.finish(jobDone, "", st.cfg.now())
			}
		}
	}()
	wg.Wait()

	if got := finishes.Load(); got != 1 {
		t.Fatalf("onFinish fired %d times, want exactly 1", got)
	}
	// Whatever interleaving happened, the durable state is never stuck
	// "running": either the finish record landed (status done) or eviction
	// already truncated it.
	for _, js := range dur.store.Jobs() {
		if js.ID == j.id && js.Status == durable.StatusRunning {
			t.Fatalf("durable state still running after finish/evict race: %+v", js)
		}
	}
	// A final sweep must settle on eviction: the job is gone from memory
	// and from the durable store.
	clock.Add(int64(time.Hour))
	_, cancelF := context.WithCancelCause(st.base)
	if _, err := st.submit("sweep", 1, cancelF); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.get(j.id); ok {
		t.Error("job survived TTL eviction")
	}
	for _, js := range dur.store.Jobs() {
		if js.ID == j.id {
			t.Errorf("durable state survived eviction: %+v", js)
		}
	}
}

// TestNewJobIDFallback: an entropy failure is retried once, then falls
// back to unique monotonic ids instead of failing the submit.
func TestNewJobIDFallback(t *testing.T) {
	orig := randRead
	defer func() { randRead = orig }()

	var calls atomic.Int32
	randRead = func([]byte) (int, error) { calls.Add(1); return 0, errors.New("entropy source down") }
	id1, id2 := newJobID(), newJobID()
	if calls.Load() != 4 {
		t.Errorf("entropy reads = %d, want 4 (one retry per id)", calls.Load())
	}
	if !strings.HasPrefix(id1, "j") || id1 == id2 {
		t.Errorf("fallback ids = %q, %q (want distinct j-prefixed)", id1, id2)
	}

	// A transient failure recovers on the retry: still a random id.
	failOnce := true
	randRead = func(b []byte) (int, error) {
		if failOnce {
			failOnce = false
			return 0, errors.New("transient")
		}
		return orig(b)
	}
	if id := newJobID(); len(id) != 16 {
		t.Errorf("retried id = %q, want 16 hex chars", id)
	}

	// End to end: submits keep answering 202 with entropy down.
	randRead = func([]byte) (int, error) { return 0, errors.New("entropy source down") }
	ts, _ := jobTestServer(t, jobStoreConfig{})
	sum := submitJob(t, ts, multiAxisJob)
	if jr := pollJob(t, ts, sum.ID); jr.Status != string(jobDone) {
		t.Errorf("job under entropy failure = %+v", jr.jobSummary)
	}
}

// metricFamilies returns the metric names a /metrics scrape declares.
func metricFamilies(t *testing.T, base string) map[string]bool {
	t.Helper()
	buf, err := io.ReadAll(postGet(t, base+"/metrics", nil).Body)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names[strings.Fields(rest)[0]] = true
		}
	}
	return names
}

// TestOneEncoding: renderPoint's bytes are the only encoding of a point.
// For a finished job with -data-dir, SSE result frame i's data, the
// compacted GET results[i] and the durable store's payload i are the same
// bytes, and the store holds the job record's copy, not a second one.
func TestOneEncoding(t *testing.T) {
	d := openTestDurability(t, t.TempDir())
	defer d.close()
	ts, st, _ := durableTestServer(t, d, jobStoreConfig{})
	jr := pollJob(t, ts, submitJob(t, ts, multiAxisJob).ID)
	if jr.Status != string(jobDone) || len(jr.Raw) != 8 {
		t.Fatalf("job = %s, %d results", jr.Status, len(jr.Raw))
	}
	var frames [][]byte
	if err := sse.Parse(strings.NewReader(jobEvents(t, ts, jr.ID)), func(ev sse.Event) error {
		if ev.Type == "result" {
			frames = append(frames, ev.Data)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	js := findDurableJob(t, d, jr.ID)
	j, _ := st.get(jr.ID)
	if len(frames) != 8 || len(js.Results) != 8 || len(j.results) != 8 {
		t.Fatalf("%d frames, %d durable results, %d stored, want 8 each", len(frames), len(js.Results), len(j.results))
	}
	for i, frame := range frames {
		var get bytes.Buffer
		if err := json.Compact(&get, jr.Raw[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(get.Bytes(), frame) || !bytes.Equal(js.Results[i], frame) {
			t.Errorf("result %d:\n  SSE     %s\n  GET     %s\n  durable %s", i, frame, get.Bytes(), js.Results[i])
		}
		if &js.Results[i][0] != &j.results[i][0] {
			t.Errorf("result %d: the durable store holds a second copy", i)
		}
	}
}

// runMainArg, followed by server flags, makes the test binary run main
// instead of the tests (see TestMain), so a test can start the real server
// as a child process and watch how it exits.
const runMainArg = "-run-delta-server-main"

func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, runMainArg); i > 0 {
		os.Args = append([]string{"delta-server"}, os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadChaosSpecExitsFirst: a -chaos spec that does not parse exits 2
// before the data dir is opened, so a job left running there is neither
// restored nor resumed and stays running on disk.
func TestBadChaosSpecExitsFirst(t *testing.T) {
	var req jobRequest
	if err := json.Unmarshal([]byte(multiAxisJob), &req); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.StoreOptions{Fsync: durable.FsyncNever, Log: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	const id = "chaos01"
	if err := st.RecordSubmit(id, "acceptance", 8, time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC), req.Scenario, "fail_fast"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The deadline turns a server that starts anyway into a failure, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], runMainArg, "-addr", "127.0.0.1:0", "-data-dir", dir, "-chaos", `[{"fault":"status"}]`)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("bad -chaos: %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if strings.Contains(stderr.String(), "durable store: restored") {
		t.Errorf("bad -chaos resumed the data dir's jobs before exiting:\n%s", stderr.String())
	}
	d := openTestDurability(t, dir)
	defer d.close()
	if js := findDurableJob(t, d, id); js.Status != durable.StatusRunning || len(js.Results) != 0 {
		t.Errorf("job after a bad -chaos start: status %s, %d results, want running with none", js.Status, len(js.Results))
	}
}
