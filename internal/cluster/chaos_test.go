// Chaos-harness integration tests: drive real coordinator sweeps against
// workers whose listeners run internal/chaos's fault injector — the same
// surface delta-server's -chaos flag arms — and assert the tentpole
// invariant — the merged fleet result stays byte-identical to a
// single-node run under every injected failure mode — plus the refusing-
// and slowed-peer handling and seeded replay the harness exists to
// provoke.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delta/internal/chaos"
	"delta/internal/obs"
	"delta/internal/pipeline"
)

// healthWorker is newWorker plus a 200 /healthz, with its listener
// wrapped by inj, so the injector's faults hit the worker's accepted
// connections as delta-server -chaos arms them; a nil inj serves clean.
// A non-nil served counts the shard requests that reach the handler, so
// a test can tell an injected fault that dropped a stream from one that
// was planned after the stream had ended.
func healthWorker(t *testing.T, inj *chaos.Injector, served *atomic.Int64) *httptest.Server {
	t.Helper()
	shards := &ShardHandler{Eval: pipeline.New(), Render: testRender}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if served != nil {
			served.Add(1)
		}
		shards.ServeHTTP(w, r)
	})
	srv := httptest.NewUnstartedServer(mux)
	if inj != nil {
		srv.Listener = inj.Listener(srv.Listener)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

func hostOf(srvURL string) string { return strings.TrimPrefix(srvURL, "http://") }

// injections captures inj's injection log through Logf, as delta-server's
// -chaos wiring does, and returns a reader for the lines so far.
func injections(inj *chaos.Injector) func() []string {
	var mu sync.Mutex
	var lines []string
	inj.Logf(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
}

// TestChaosMidStreamCutResume: repeated mid-stream cuts on the shard path
// are survived by Last-Event-ID resume inside the attempt; the merged
// result stays byte-identical. One peer queues longDoc as four 16-point
// shards, so all three cuts land inside the first shard's stream, each
// forcing one reconnect.
func TestChaosMidStreamCutResume(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultCut, Path: "/v2/shards", AfterFrames: 2, Count: 3},
	}})
	injected := injections(inj)
	var served atomic.Int64
	w := healthWorker(t, inj, &served)
	sc := readScenario(t, longDoc)
	c, err := New(Config{
		Peers:        []string{w.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 10, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(longDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if ev := injected(); len(ev) != 3 {
		t.Fatalf("chaos injected %d cuts, want 3: %v", len(ev), ev)
	}
	if got := served.Load(); got != 4+3 {
		t.Errorf("worker served %d shard requests, want 4 shards + 3 reconnects", got)
	}
}

// TestChaosCorruptFrameRetryable pins the satellite: a corrupted SSE frame
// is a retryable stream error — the client reconnects with Last-Event-ID
// at the last good frame and the worker re-serves a clean copy — not a
// terminal failure, and not a silently skipped point.
func TestChaosCorruptFrameRetryable(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultCorrupt, Path: "/v2/shards", AfterFrames: 3, Count: 1},
	}})
	injected := injections(inj)
	var served atomic.Int64
	w := healthWorker(t, inj, &served)
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	c, err := New(Config{
		Peers:        []string{w.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if ev := injected(); len(ev) != 1 || !strings.Contains(ev[0], "corrupt") {
		t.Fatalf("chaos injections = %v, want one corrupt injection", ev)
	}
	// Frame 3 is the last result of the first 4-point shard, so the
	// corruption forces one reconnect.
	if got := served.Load(); got != 4+1 {
		t.Errorf("worker served %d shard requests, want 4 shards + 1 reconnect", got)
	}
	// The reconnect happened inside the SSE client: no shard attempt was
	// charged, so the shard-retry counter must not move.
	if mt.Retries.Value() != 0 {
		t.Errorf("corrupt frame burned a shard attempt (retries=%d); want in-stream reconnect", mt.Retries.Value())
	}
}

// TestChaosTruncatedFrameResume: a torn result frame (stream ends
// mid-frame) is survived the same way — resume from the last complete
// frame.
func TestChaosTruncatedFrameResume(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultTruncate, Path: "/v2/shards", AfterFrames: 4, Count: 1},
	}})
	var served atomic.Int64
	w := healthWorker(t, inj, &served)
	sc := readScenario(t, longDoc)
	c, err := New(Config{
		Peers:        []string{w.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(longDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if got := served.Load(); got != 4+1 {
		t.Errorf("worker served %d shard requests, want 4 shards + 1 reconnect", got)
	}
}

// TestChaosPartialProgressReassign: an attempt that merges a few points
// and then dies (cut, then refused reconnects) is reassigned — and the
// retry attempt requests only the remainder, whose done-frame count is the
// remainder's size, not the whole shard's. Pins the short-shard
// false-positive that would otherwise burn the budget after any partial
// attempt.
func TestChaosPartialProgressReassign(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultCut, Path: "/v2/shards", AfterFrames: 2, Count: 1},
		{Fault: chaos.FaultRefuse, Path: "/v2/shards", AfterRequests: 1, Count: 2},
	}})
	w := healthWorker(t, inj, nil)
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	c, err := New(Config{
		Peers:        []string{w.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 2, Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if mt.Retries.Value() != 1 {
		t.Errorf("retries = %d, want exactly 1 (one partial attempt, one clean resume)", mt.Retries.Value())
	}
	peer := hostOf(w.URL)
	if failed, done := mt.Shards.With(peer, statusFailed).Value(), shardsDone(mt, w.URL); failed != 1 || done != 4 {
		t.Errorf("attempts failed %d, done %d; want the first shard's partial attempt failed and all 4 shards done", failed, done)
	}
}

// TestChaosRefusingPeer: a peer refusing every shard connection merges
// nothing — its attempts end failed, or cancelled when the healthy peer
// re-ran the point first — fails each shard at most once (it may not
// retake a shard the healthy peer has not failed), and the merged result
// stays byte-identical. Its /healthz still answers, so it reads as up.
func TestChaosRefusingPeer(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultRefuse, Path: "/v2/shards"},
	}})
	// The healthy peer answers each shard 50 ms late. Its analytic points
	// take microseconds, so without the delay it can finish the whole
	// sweep before the refusing peer's first request reaches its listener.
	slow := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultLatency, Path: "/v2/shards", LatencyMS: 50},
	}})
	injected := injections(inj)
	wa, wb := healthWorker(t, slow, nil), healthWorker(t, inj, nil)
	peers := []string{wa.URL, wb.URL}
	mt := NewMetrics(obs.NewRegistry())
	c, err := New(Config{
		Peers:        peers,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 1, Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario(t)
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))

	refuser := hostOf(wb.URL)
	if len(injected()) == 0 {
		t.Fatal("the refuse fault never fired")
	}
	failed := mt.Shards.With(refuser, statusFailed).Value()
	if failed+mt.Shards.With(refuser, statusCancelled).Value() == 0 {
		t.Error("no failed or cancelled attempt counted for the refusing peer")
	}
	if got := mt.Shards.With(refuser, statusDone).Value(); got != 0 {
		t.Errorf("refusing peer finished %d shard(s)", got)
	}
	shards := 8 + mt.Splits.Value()
	if failed > shards {
		t.Errorf("refusing peer failed %d attempts on %d shards; want at most one each", failed, shards)
	}
	if got := shardsDone(mt, wa.URL); got != shards {
		t.Errorf("healthy peer finished %d shard(s), want all %d", got, shards)
	}

	sts := c.PeerHealth(context.Background())
	if !sts[1].OK || !Quorum(sts) {
		t.Errorf("peer health = %+v; a refusing peer whose /healthz answers 200 reads as up", sts)
	}
}

// TestChaosSlowPeerHedge: a peer slowed by per-frame latency from its
// first request holds up the sweep only until the free peer splits its
// 8-point shard of longDoc and re-runs (hedges) the last point; the
// merged result — despite two attempts streaming the same window — stays
// byte-identical.
func TestChaosSlowPeerHedge(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultLatency, Where: "frame", LatencyMS: 300, Path: "/v2/shards"},
	}})
	wa, wb := newWorker(t), healthWorker(t, inj, nil)
	mt := NewMetrics(obs.NewRegistry())
	c, err := New(Config{
		Peers:        []string{wa.URL, wb.URL},
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := readScenario(t, longDoc)
	start := time.Now()
	checkMerged(t, runSweep(t, c, Sweep{Doc: json.RawMessage(longDoc), Scenario: sc, Policy: pipeline.CollectPartial}),
		singleNodeRef(t, sc))
	elapsed := time.Since(start)

	if mt.Splits.Value()+mt.Hedged.Value() == 0 {
		t.Fatal("neither a split nor a re-run relieved the slow peer")
	}
	// The slow peer alone would need 8 frames x 300ms = 2.4s for its shard.
	if elapsed > 2*time.Second {
		t.Errorf("sweep took %v; the slow peer's shard was not taken over", elapsed)
	}
}

// TestChaosSeededReplay: two sweeps with the same chaos seed inject the
// identical fault sequence, as the injection log delta-server prints
// through Logf shows it — the reproducibility contract.
func TestChaosSeededReplay(t *testing.T) {
	sc := testScenario(t)
	run := func() []string {
		inj := chaos.MustNew(chaos.Spec{Seed: 2, Rules: []chaos.Rule{
			{Fault: chaos.FaultRefuse, Path: "/v2/shards", Prob: 0.4, Count: 4},
		}})
		injected := injections(inj)
		w := healthWorker(t, inj, nil)
		c, err := New(Config{
			Peers:        []string{w.URL},
			RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
			ClientRetries: 10, Log: quietLog(),
		})
		if err != nil {
			t.Fatal(err)
		}
		upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
		checkMerged(t, upds, singleNodeRef(t, sc))
		return injected()
	}
	ev1, ev2 := run(), run()
	if len(ev1) == 0 {
		t.Fatal("seeded rules never fired; replay test is vacuous")
	}
	if strings.Join(ev1, "|") != strings.Join(ev2, "|") {
		t.Fatalf("same seed, different fault sequences:\n%v\n%v", ev1, ev2)
	}
}
