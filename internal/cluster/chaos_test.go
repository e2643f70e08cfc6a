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
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"delta/internal/chaos"
	"delta/internal/durable"
	"delta/internal/obs"
	"delta/internal/pipeline"
)

// healthWorker is newWorker plus a 200 /healthz, with its listener
// wrapped by inj, so the injector's faults hit the worker's accepted
// connections as delta-server -chaos arms them; a nil inj serves clean.
func healthWorker(t *testing.T, inj *chaos.Injector) *httptest.Server {
	t.Helper()
	shards := &ShardHandler{Eval: pipeline.New(), Render: testRender}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.Handle("/", shards)
	srv := httptest.NewUnstartedServer(mux)
	if inj != nil {
		srv.Listener = inj.Listener(srv.Listener)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

func hostOf(srvURL string) string { return strings.TrimPrefix(srvURL, "http://") }

// TestChaosMidStreamCutResume: repeated mid-stream cuts on the shard path
// are survived by Last-Event-ID resume inside the attempt; the merged
// result stays byte-identical.
func TestChaosMidStreamCutResume(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultCut, Path: "/v2/shards", AfterFrames: 2, Count: 3},
	}})
	w := healthWorker(t, inj)
	sc := testScenario(t)
	c, err := New(Config{
		Peers: []string{w.URL}, ShardsPerPeer: 1,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 10, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if ev := inj.Events(); len(ev) != 3 {
		t.Fatalf("chaos injected %d cuts, want 3: %v", len(ev), ev)
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
	w := healthWorker(t, inj)
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	c, err := New(Config{
		Peers: []string{w.URL}, ShardsPerPeer: 1,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if ev := inj.Events(); len(ev) != 1 || !strings.Contains(ev[0], "corrupt") {
		t.Fatalf("chaos events = %v, want one corrupt injection", ev)
	}
	// The reconnect happened inside the SSE client: no shard attempt was
	// charged, so the shard-retry counter must not move.
	if mt.Retries.Value() != 0 {
		t.Errorf("corrupt frame burned a shard attempt (retries=%d); want in-stream reconnect", mt.Retries.Value())
	}
}

// TestChaosTruncatedFrameResume: a torn frame (stream ends mid-frame) is
// survived the same way — resume from the last complete frame.
func TestChaosTruncatedFrameResume(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultTruncate, Path: "/v2/shards", AfterFrames: 4, Count: 1},
	}})
	w := healthWorker(t, inj)
	sc := testScenario(t)
	c, err := New(Config{
		Peers: []string{w.URL}, ShardsPerPeer: 1,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial})
	checkMerged(t, upds, singleNodeRef(t, sc))
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
	w := healthWorker(t, inj)
	sc := testScenario(t)
	reg := obs.NewRegistry()
	mt := NewMetrics(reg)
	rec := &fakeRecorder{}
	c, err := New(Config{
		Peers: []string{w.URL}, ShardsPerPeer: 1,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 2, Metrics: mt, Recorder: rec, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	upds := runSweep(t, c, Sweep{
		JobID: "chaos-partial", Doc: json.RawMessage(testDoc), Scenario: sc,
		Policy: pipeline.CollectPartial,
	})
	checkMerged(t, upds, singleNodeRef(t, sc))
	if mt.Retries.Value() != 1 {
		t.Errorf("retries = %d, want exactly 1 (one partial attempt, one clean resume)", mt.Retries.Value())
	}
	var failed, done bool
	for _, r := range rec.all() {
		if strings.HasPrefix(r, "failed") {
			failed = true
		}
		if strings.HasPrefix(r, "done") {
			done = true
		}
	}
	if !failed || !done {
		t.Errorf("records missing failed+done sequence:\n%v", rec.all())
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
	wa, wb := healthWorker(t, slow), healthWorker(t, inj)
	peers := []string{wa.URL, wb.URL}
	mt := NewMetrics(obs.NewRegistry())
	rec := &fakeRecorder{}
	c, err := New(Config{
		Peers: peers, ShardsPerPeer: 2,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		ClientRetries: 1, Metrics: mt, Recorder: rec, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario(t)
	upds := runSweep(t, c, Sweep{
		JobID: "refuse", Doc: json.RawMessage(testDoc), Scenario: sc,
		Policy: pipeline.CollectPartial,
	})
	checkMerged(t, upds, singleNodeRef(t, sc))

	refuser := hostOf(wb.URL)
	if len(inj.Events()) == 0 {
		t.Fatal("the refuse fault never fired")
	}
	if mt.Shards.With(refuser, durable.ShardFailed).Value()+mt.Shards.With(refuser, statusCancelled).Value() == 0 {
		t.Error("no failed or cancelled attempt counted for the refusing peer")
	}
	if got := mt.Shards.With(refuser, durable.ShardDone).Value(); got != 0 {
		t.Errorf("refusing peer finished %d shard(s)", got)
	}
	failures := map[int]int{}
	for _, r := range rec.records() {
		if r.status == durable.ShardFailed {
			failures[r.shard]++
		}
	}
	for shard, n := range failures {
		if n > 1 {
			t.Errorf("shard %d failed %d times on the refusing peer", shard, n)
		}
	}
	checkTiled(t, rec, 0, 16)

	sts := c.PeerHealth(context.Background())
	if !sts[1].OK || !Quorum(sts) {
		t.Errorf("peer health = %+v; a refusing peer whose /healthz answers 200 reads as up", sts)
	}
}

// TestChaosSlowPeerHedge: a peer slowed by per-frame latency from its
// first request holds up the sweep only until the free peer splits its
// shard and re-runs (hedges) the last point; the merged result — despite
// two attempts streaming the same window — stays byte-identical.
func TestChaosSlowPeerHedge(t *testing.T) {
	inj := chaos.MustNew(chaos.Spec{Rules: []chaos.Rule{
		{Fault: chaos.FaultLatency, Where: "frame", LatencyMS: 300, Path: "/v2/shards"},
	}})
	wa, wb := newWorker(t), healthWorker(t, inj)
	mt := NewMetrics(obs.NewRegistry())
	c, err := New(Config{
		Peers: []string{wa.URL, wb.URL}, ShardsPerPeer: 1,
		RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
		Metrics: mt, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := testScenario(t)
	start := time.Now()
	checkMerged(t, runSweep(t, c, Sweep{Doc: json.RawMessage(testDoc), Scenario: sc, Policy: pipeline.CollectPartial}),
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
// identical fault sequence and drive the identical shard
// dispatch/failure/done record log — the reproducibility contract.
func TestChaosSeededReplay(t *testing.T) {
	sc := testScenario(t)
	run := func() ([]string, []string) {
		inj := chaos.MustNew(chaos.Spec{Seed: 2, Rules: []chaos.Rule{
			{Fault: chaos.FaultRefuse, Path: "/v2/shards", Prob: 0.4, Count: 4},
		}})
		w := healthWorker(t, inj)
		rec := &fakeRecorder{}
		c, err := New(Config{
			Peers: []string{w.URL}, ShardsPerPeer: 2,
			RetryBackoff: time.Millisecond, ClientBackoff: time.Millisecond,
			ClientRetries: 10, Recorder: rec, Log: quietLog(),
		})
		if err != nil {
			t.Fatal(err)
		}
		upds := runSweep(t, c, Sweep{
			JobID: "replay", Doc: json.RawMessage(testDoc), Scenario: sc,
			Policy: pipeline.CollectPartial,
		})
		checkMerged(t, upds, singleNodeRef(t, sc))
		// Each run has its own worker, so the record logs name the peer
		// by a placeholder to compare.
		recs := rec.all()
		for i := range recs {
			recs[i] = strings.ReplaceAll(recs[i], hostOf(w.URL), "worker")
		}
		return inj.Events(), recs
	}
	ev1, rec1 := run()
	ev2, rec2 := run()
	if len(ev1) == 0 {
		t.Fatal("seeded rules never fired; replay test is vacuous")
	}
	if strings.Join(ev1, "|") != strings.Join(ev2, "|") {
		t.Fatalf("same seed, different fault sequences:\n%v\n%v", ev1, ev2)
	}
	if strings.Join(rec1, "|") != strings.Join(rec2, "|") {
		t.Fatalf("same seed, different shard record logs:\n%v\n%v", rec1, rec2)
	}
}
