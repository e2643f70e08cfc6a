package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delta/internal/obs"
	"delta/internal/pipeline"
	"delta/internal/scenario"
	"delta/internal/spec"
	"delta/internal/sse"
)

// testDoc is the sweep document the coordinator forwards to workers:
// 2 workloads × 2 devices × 2 batches × 2 models = 16 points.
const testDoc = `{
  "name": "fleet",
  "workloads": [{"network": "alexnet"}, {"network": "googlenet"}],
  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
  "batches": [8, 16],
  "models": ["delta", "prior"]
}`

// longDoc is testDoc over eight batches, 64 points: the coordinator
// queues four shards per peer, so each of one peer's shards holds 16
// points and each of two peers' shards 8 — long enough for a fault or a
// split to land mid-shard.
const longDoc = `{
  "name": "fleet",
  "workloads": [{"network": "alexnet"}, {"network": "googlenet"}],
  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
  "batches": [1, 2, 4, 8, 16, 32, 64, 128],
  "models": ["delta", "prior"]
}`

func testScenario(t *testing.T) scenario.Scenario {
	t.Helper()
	return readScenario(t, testDoc)
}

func readScenario(t *testing.T, doc string) scenario.Scenario {
	t.Helper()
	sc, err := spec.ReadScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// testRender is the shared payload renderer: enough structure to make
// byte-identity meaningful without dragging in the server's full shape.
func testRender(u pipeline.StreamUpdate) (json.RawMessage, error) {
	return json.Marshal(map[string]any{
		"index":   u.Point.Index,
		"done":    u.Done,
		"total":   u.Total,
		"device":  u.Point.Device.Name,
		"seconds": u.Network.Seconds,
	})
}

func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(&ShardHandler{Eval: pipeline.New(), Render: testRender})
	t.Cleanup(srv.Close)
	return srv
}

// singleNodeRef renders the whole scenario through one evaluator — the
// byte-identity reference for every distributed test.
func singleNodeRef(t *testing.T, sc scenario.Scenario) []json.RawMessage {
	t.Helper()
	upds, err := pipeline.New().RunScenario(context.Background(), sc,
		pipeline.WithErrorPolicy(pipeline.CollectPartial))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]json.RawMessage, len(upds))
	for i, u := range upds {
		buf, err := testRender(u)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = buf
	}
	return out
}

func quietLog() *log.Logger { return log.New(os.Stderr, "", 0) }

// dropAfter aborts the connection before writing the (n+1)-th result
// frame, simulating a mid-shard connection loss with whole frames on the
// wire (the sse.Writer emits one frame per Write call).
type dropAfter struct {
	http.ResponseWriter
	remaining *int
}

func (d *dropAfter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("event: result")) {
		*d.remaining--
		if *d.remaining < 0 {
			panic(http.ErrAbortHandler)
		}
	}
	return d.ResponseWriter.Write(p)
}

func (d *dropAfter) Flush() {
	if f, ok := d.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// droppingWorker serves shards but aborts each connection after perConn
// result frames; requests counts connections served.
func droppingWorker(t *testing.T, perConn int, requests *atomic.Int64) *httptest.Server {
	t.Helper()
	h := &ShardHandler{Eval: pipeline.New(), Render: testRender}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		budget := perConn
		h.ServeHTTP(&dropAfter{w, &budget}, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestShardHandlerWindow: the worker streams exactly the requested window
// in order, with per-shard ids and a terminal done frame.
func TestShardHandlerWindow(t *testing.T) {
	srv := newWorker(t)
	body := fmt.Sprintf(`{"scenario": %s, "offset": 5, "limit": 4}`, testDoc)
	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var results []wireResult
	var ids []int
	var done *wireDone
	if err := sse.Parse(resp.Body, func(ev sse.Event) error {
		switch ev.Type {
		case "result":
			var r wireResult
			if err := json.Unmarshal(ev.Data, &r); err != nil {
				return err
			}
			results = append(results, r)
			ids = append(ids, ev.ID)
		case "done":
			done = &wireDone{}
			if err := json.Unmarshal(ev.Data, done); err != nil {
				return err
			}
			return sse.Stop
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Index != 5+i || ids[i] != i+1 {
			t.Errorf("frame %d: index %d id %d, want index %d id %d", i, r.Index, ids[i], 5+i, i+1)
		}
		if r.Error != "" || len(r.Payload) == 0 {
			t.Errorf("frame %d: err %q payload %d bytes", i, r.Error, len(r.Payload))
		}
	}
	if done == nil || done.Count != 4 || done.Error != "" {
		t.Errorf("done = %+v", done)
	}
}

// TestShardHandlerRejects pins the pre-stream error statuses.
func TestShardHandlerRejects(t *testing.T) {
	srv := newWorker(t)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"window past end", fmt.Sprintf(`{"scenario": %s, "offset": 10, "limit": 10}`, testDoc), http.StatusBadRequest},
		{"missing scenario", `{"offset": 0, "limit": 1}`, http.StatusBadRequest},
		{"unbuildable L2", `{"scenario": {"workloads": [{"network": "alexnet"}], "sim_configs": [{"l2_ways": 100000}]}, "offset": 0, "limit": 1}`, http.StatusBadRequest},
		{"huge L2", `{"scenario": {"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", "l2_size_mb": 1048576}}], "sim_configs": [{}]}, "offset": 0, "limit": 1}`, http.StatusBadRequest},
		{"huge SM count", `{"scenario": {"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", "num_sm": 100000000}}], "sim_configs": [{}]}, "offset": 0, "limit": 1}`, http.StatusBadRequest},
		{"huge L1", `{"scenario": {"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", "l1_size_kb_per_sm": 1e9}}], "sim_configs": [{}]}, "offset": 0, "limit": 1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	// A body past MaxBody is 413, as on every other delta-server endpoint.
	small := httptest.NewServer(&ShardHandler{Eval: pipeline.New(), MaxBody: 64})
	defer small.Close()
	resp, err = http.Post(small.URL, "application/json",
		strings.NewReader(fmt.Sprintf(`{"scenario": %s, "offset": 0, "limit": 1}`, testDoc)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestClientReconnect drives the SSE client against the real shard handler
// through repeatedly dropped connections: every result arrives exactly
// once via Last-Event-ID resume, and the worker sees multiple connections.
func TestClientReconnect(t *testing.T) {
	var requests atomic.Int64
	srv := droppingWorker(t, 5, &requests)
	body := fmt.Sprintf(`{"scenario": %s, "offset": 0, "limit": 16}`, testDoc)
	cli := &Client{Retries: 10, Backoff: time.Millisecond}
	var got []wireResult
	err := cli.Stream(context.Background(), srv.URL, []byte(body), func(ev sse.Event) error {
		if ev.Type == "result" {
			var r wireResult
			if err := json.Unmarshal(ev.Data, &r); err != nil {
				return err
			}
			got = append(got, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("%d results, want 16", len(got))
	}
	for i, r := range got {
		if r.Index != i {
			t.Errorf("result %d: index %d (duplicate or gap)", i, r.Index)
		}
	}
	if n := requests.Load(); n < 3 {
		t.Errorf("worker saw %d connection(s); drops did not force reconnects", n)
	}
}

// TestClientTerminalStatus: 4xx answers are not retried.
func TestClientTerminalStatus(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "bad shard", http.StatusBadRequest)
	}))
	defer srv.Close()
	cli := &Client{Retries: 5, Backoff: time.Millisecond}
	err := cli.Stream(context.Background(), srv.URL, []byte(`{}`), func(sse.Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("err = %v", err)
	}
	if requests.Load() != 1 {
		t.Errorf("4xx retried %d times", requests.Load()-1)
	}
}

// shardsDone sums the done attempts of peers: every shard, whether queued
// at the start or split off later, ends with exactly one.
func shardsDone(mt *Metrics, peers ...string) uint64 {
	var n uint64
	for _, p := range peers {
		n += mt.Shards.With(peerLabel(p), statusDone).Value()
	}
	return n
}

// TestShardMayTake pins the retake rule: a peer that failed a shard may
// not take it back while another peer has not failed it yet.
func TestShardMayTake(t *testing.T) {
	s := &shard{failedBy: make([]bool, 3)}
	for _, tc := range []struct {
		failed int // peer whose failure is recorded first; -1 for none
		want   [3]bool
	}{
		{-1, [3]bool{true, true, true}},
		{0, [3]bool{false, true, true}},
		{2, [3]bool{false, true, false}},
		{1, [3]bool{true, true, true}}, // every peer failed it
	} {
		if tc.failed >= 0 {
			s.failedBy[tc.failed] = true
		}
		for peer, want := range tc.want {
			if got := s.mayTake(peer); got != want {
				t.Errorf("failedBy %v: mayTake(%d) = %v, want %v", s.failedBy, peer, got, want)
			}
		}
	}
}

// runSweep runs a coordinator sweep and collects the merged updates.
func runSweep(t *testing.T, c *Coordinator, sw Sweep) []Update {
	t.Helper()
	var upds []Update
	if err := c.Run(context.Background(), sw, func(u Update) error {
		upds = append(upds, u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return upds
}

// checkMerged asserts the merged updates are the dense [0, len(ref))
// prefix with payloads byte-identical to the single-node reference.
func checkMerged(t *testing.T, upds []Update, ref []json.RawMessage) {
	t.Helper()
	if len(upds) != len(ref) {
		t.Fatalf("%d merged updates, want %d", len(upds), len(ref))
	}
	for i, u := range upds {
		if u.Index != i {
			t.Fatalf("update %d: index %d (duplicate, gap, or disorder)", i, u.Index)
		}
		if u.Err != "" {
			t.Errorf("point %d failed: %s", i, u.Err)
		}
		if !bytes.Equal(u.Payload, ref[i]) {
			t.Errorf("point %d payload diverged from single-node run:\n fleet: %s\nsingle: %s", i, u.Payload, ref[i])
		}
	}
}

// TestCoordinatorBitIdentical: a 2-worker sweep merges byte-identical to a
// single-node run, and the fleet metrics move.
func TestCoordinatorBitIdentical(t *testing.T) {
	a, b := newWorker(t), newWorker(t)
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	c, err := New(Config{
		Peers:        []string{a.URL, b.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if got := mt.Merged.Value(); got != 16 {
		t.Errorf("points merged metric = %d, want 16", got)
	}
	if got := mt.InFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %d after sweep", got)
	}
	// Eight shards were queued, four per peer; each split adds one more.
	if got, want := shardsDone(mt, a.URL, b.URL), 8+mt.Splits.Value(); got != want {
		t.Errorf("%d shards done, want %d (8 queued + splits)", got, want)
	}
	if mt.Retries.Value() != 0 {
		t.Errorf("retries = %d on a healthy fleet", mt.Retries.Value())
	}
}

// TestCoordinatorResumeAcrossDrops: both workers drop every connection
// after one result frame, so every point arrives on its own connection;
// Last-Event-ID resume still yields every point exactly once,
// byte-identical. (With one healthy worker, the queue could take the
// dropping worker's whole shard over before it ever reconnected.)
func TestCoordinatorResumeAcrossDrops(t *testing.T) {
	var requests atomic.Int64
	a := droppingWorker(t, 1, &requests)
	b := droppingWorker(t, 1, &requests)
	sc := testScenario(t)
	c, err := New(Config{
		Peers:        []string{a.URL, b.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 20, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if n := requests.Load(); n < 16 {
		t.Errorf("workers saw %d connection(s) for 16 points at most one result each", n)
	}
}

// TestCoordinatorReassignsDeadPeer: a peer that refuses every connection
// loses its shards to the surviving peer — the sweep completes with no
// duplicated or missing points, every shard is finished by the live peer,
// and the dead peer's attempts end failed (its client gave up) or
// cancelled (the live peer re-ran the point first), at most one failure
// per shard: it may not retake a shard the live peer has not failed.
func TestCoordinatorReassignsDeadPeer(t *testing.T) {
	a := newWorker(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connections now refused
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	c, err := New(Config{
		Peers:        []string{a.URL, dead.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 1, Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	livePeer, deadPeer := peerLabel(a.URL), peerLabel(dead.URL)
	shards := 8 + mt.Splits.Value()
	if got := mt.Shards.With(livePeer, statusFailed).Value(); got != 0 {
		t.Errorf("live peer failed %d attempt(s)", got)
	}
	if got := shardsDone(mt, a.URL); got != shards {
		t.Errorf("live peer finished %d shard(s), want all %d", got, shards)
	}
	if got := mt.Shards.With(deadPeer, statusDone).Value(); got != 0 {
		t.Errorf("dead peer finished %d shard(s)", got)
	}
	failed := mt.Shards.With(deadPeer, statusFailed).Value()
	if failed+mt.Shards.With(deadPeer, statusCancelled).Value() == 0 {
		t.Error("no failed or cancelled attempt counted for the dead peer")
	}
	if failed > shards {
		t.Errorf("dead peer failed %d attempts on %d shards; it must not retake a shard before the live peer fails it", failed, shards)
	}
}

// TestCoordinatorSplitsAndRerunsStraggler: one of two peers accepts its
// first 8-point shard of longDoc and then stalls without sending a frame.
// The free peer finishes the other seven shards, splits the stalled one's
// back half off three times (8 -> 4 -> 2 -> 1 points), re-runs the last
// point and wins it; the stalled attempt is cancelled, and the merged
// result stays byte-identical.
func TestCoordinatorSplitsAndRerunsStraggler(t *testing.T) {
	stalled := make(chan struct{})
	var once sync.Once
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: only then does the server watch the
		// connection and cancel r's context when the coordinator hangs up.
		_, _ = io.Copy(io.Discard, r.Body)
		once.Do(func() { close(stalled) })
		<-r.Context().Done()
	}))
	t.Cleanup(slow.Close)
	h := &ShardHandler{Eval: pipeline.New(), Render: testRender}
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Serve nothing until the slow peer holds a shard, so the fast
		// peer cannot drain the queue before the slow one takes its share.
		select {
		case <-stalled:
			h.ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(fast.Close)

	sc := readScenario(t, longDoc)
	mt := NewMetrics(obs.NewRegistry())
	c, err := New(Config{
		Peers:        []string{fast.URL, slow.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(longDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))

	if got := mt.Splits.Value(); got != 3 {
		t.Errorf("splits = %d, want 3 (8 -> 4 -> 2 -> 1)", got)
	}
	if got := mt.Hedged.Value(); got != 1 {
		t.Errorf("re-runs = %d, want 1 (the last point)", got)
	}
	slowPeer := peerLabel(slow.URL)
	if got := mt.Shards.With(slowPeer, statusCancelled).Value(); got != 1 {
		t.Errorf("slow peer cancelled attempts = %d, want 1", got)
	}
	for _, status := range []string{statusDone, statusFailed} {
		if got := mt.Shards.With(slowPeer, status).Value(); got != 0 {
			t.Errorf("slow peer %s attempts = %d, want 0", status, got)
		}
	}
	if got := shardsDone(mt, fast.URL); got != 11 {
		t.Errorf("fast peer finished %d shards, want 8 queued + 3 split", got)
	}
	if got := mt.InFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge = %d after sweep", got)
	}
}

// TestCoordinatorExhaustsRetries: with every peer dead, Run fails with the
// shard's attempt budget, max(3, peers+1), spent instead of hanging.
func TestCoordinatorExhaustsRetries(t *testing.T) {
	d1 := httptest.NewServer(http.NotFoundHandler())
	d1.Close()
	d2 := httptest.NewServer(http.NotFoundHandler())
	d2.Close()
	c, err := New(Config{
		Peers:        []string{d1.URL, d2.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 1, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(context.Background(), Sweep{
		Doc: json.RawMessage(testDoc), Scenario: testScenario(t),
		Policy: pipeline.CollectPartial,
	}, func(Update) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "failed after 3 attempt(s)") {
		t.Fatalf("err = %v, want exhausted-attempts error", err)
	}
}

// failDoc puts a training-invalid explicit workload first: its point fails
// at evaluation (non-square dgrad filter) while later alexnet points
// succeed — the fail-fast prefix shape.
const failDoc = `{
  "workloads": [
    {"name": "badtrain", "layers": [
      {"b": 4, "ci": 8, "hi": 12, "wi": 12, "co": 8, "hf": 3, "wf": 3, "stride": 1, "pad": 1},
      {"b": 4, "ci": 8, "hi": 12, "wi": 12, "co": 8, "hf": 3, "wf": 5, "stride": 1, "pad": 2}
    ]},
    {"network": "alexnet"}
  ],
  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
  "batches": [8],
  "passes": ["training"]
}`

// TestCoordinatorFailFastPrefix: under FailFast the merged stream stops
// exactly where a single-node fail-fast sweep stops, and Run returns nil
// (the point error rides in the last update).
func TestCoordinatorFailFastPrefix(t *testing.T) {
	sc, err := spec.ReadScenario(strings.NewReader(failDoc))
	if err != nil {
		t.Fatal(err)
	}
	ref, rerr := pipeline.New().RunScenario(context.Background(), sc)
	if rerr == nil {
		t.Fatal("reference fail-fast run did not fail")
	}
	a, b := newWorker(t), newWorker(t)
	c, err := New(Config{
		Peers:        []string{a.URL, b.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(failDoc), Scenario: sc, Policy: pipeline.FailFast})
	if len(upds) != len(ref) {
		t.Fatalf("fail-fast merged %d updates, single-node emitted %d", len(upds), len(ref))
	}
	last := upds[len(upds)-1]
	if last.Err == "" || !strings.Contains(last.Err, "non-square") {
		t.Errorf("last update error = %q, want the non-square filter error", last.Err)
	}
	for i, u := range upds {
		if u.Index != ref[i].Point.Index {
			t.Errorf("update %d: index %d, want %d", i, u.Index, ref[i].Point.Index)
		}
	}
}

// TestCoordinatorResumeOffset: a sweep resumed at offset k dispatches only
// [k, size) and merges it identically to the tail of the reference.
func TestCoordinatorResumeOffset(t *testing.T) {
	a := newWorker(t)
	sc := testScenario(t)
	c, err := New(Config{Peers: []string{a.URL}, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{
		Doc: json.RawMessage(testDoc), Scenario: sc, Offset: 11,
		Policy: pipeline.CollectPartial,
	})
	ref := singleNodeRef(t, sc)[11:]
	if len(upds) != len(ref) {
		t.Fatalf("%d updates, want %d", len(upds), len(ref))
	}
	for i, u := range upds {
		if u.Index != 11+i || !bytes.Equal(u.Payload, ref[i]) {
			t.Errorf("update %d (index %d) diverged from single-node tail", i, u.Index)
		}
	}
	// An offset at or past the end is a no-op sweep.
	if got := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Offset: 16}); len(got) != 0 {
		t.Errorf("full-offset sweep emitted %d updates", len(got))
	}
}

// TestPeerHealthQuorum probes a mixed fleet and pins the quorum rule.
func TestPeerHealthQuorum(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer up.Close()
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()

	c, err := New(Config{Peers: []string{up.URL, down.URL}, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	sts := c.PeerHealth(context.Background())
	if len(sts) != 2 || !sts[0].OK || sts[1].OK {
		t.Fatalf("statuses = %+v", sts)
	}
	if Quorum(sts) {
		t.Error("1 of 2 peers up reported as quorum (majority of 2 is 2)")
	}

	c3, err := New(Config{Peers: []string{up.URL, up.URL, down.URL}, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	if !Quorum(c3.PeerHealth(context.Background())) {
		t.Error("2 of 3 peers up not a quorum")
	}
}
