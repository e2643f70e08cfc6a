package pipeline

import (
	"context"
	"strings"
	"testing"

	"delta/internal/cnn"
	"delta/internal/explore"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/scenario"
	"delta/internal/sim/engine"
)

// multiAxis is the acceptance-criteria scenario: 2 networks × 2 devices ×
// 2 models.
func multiAxis() scenario.Scenario {
	return scenario.Scenario{
		Name:      "acceptance",
		Workloads: []scenario.Workload{{Name: "alexnet"}, {Name: "googlenet"}},
		Devices:   []gpu.Device{gpu.TitanXp(), gpu.V100()},
		Batches:   []int{16},
		Models:    []string{scenario.ModelDelta, scenario.ModelPrior},
	}
}

// TestStreamOrderedProgress: updates arrive in expansion order with
// correct incremental progress counts.
func TestStreamOrderedProgress(t *testing.T) {
	sc := multiAxis()
	e := New()
	ch, err := e.Stream(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	total := sc.Size()
	if total != 8 {
		t.Fatalf("Size = %d, want 8", total)
	}
	n := 0
	for upd := range ch {
		if upd.Point.Index != n {
			t.Errorf("update %d has point index %d (out of order)", n, upd.Point.Index)
		}
		n++
		if upd.Done != n || upd.Total != total {
			t.Errorf("update %d progress = %d/%d, want %d/%d", n-1, upd.Done, upd.Total, n, total)
		}
		if upd.Err != nil {
			t.Errorf("point %d failed: %v", upd.Point.Index, upd.Err)
		}
		if upd.Network.Seconds <= 0 {
			t.Errorf("point %d has no result", upd.Point.Index)
		}
	}
	if n != total {
		t.Errorf("streamed %d updates, want %d", n, total)
	}
}

// TestStreamBitIdenticalToHelpers: every streamed point matches the
// synchronous per-helper serial path bit for bit.
func TestStreamBitIdenticalToHelpers(t *testing.T) {
	sc := multiAxis()
	upds, err := New().RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	serial := New(WithWorkers(1), WithoutCache())
	for _, upd := range upds {
		p := upd.Point
		want, err := serial.Network(context.Background(), NetworkRequest{
			Net: p.Net, Device: p.Device, Options: p.Options,
			Model: Model(p.Model), Pass: Pass(p.Pass), MissRate: p.MissRate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if upd.Network.Seconds != want.Seconds {
			t.Errorf("%s: streamed %v, serial %v", p, upd.Network.Seconds, want.Seconds)
		}
		for i, r := range upd.Network.Results {
			if r.Seconds != want.Results[i].Seconds {
				t.Errorf("%s layer %d: streamed %v, serial %v", p, i, r.Seconds, want.Results[i].Seconds)
			}
		}
	}
}

// simSweep is a two-point simulation scenario over two tiny layers, each
// truncated to one CTA wave: 4 distinct simulations.
func simSweep() scenario.Scenario {
	net := cnn.Network{Name: "mini", Layers: []layers.Conv{
		{Name: "c1", B: 1, Ci: 8, Hi: 8, Wi: 8, Co: 16, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
		{Name: "c2", B: 1, Ci: 16, Hi: 8, Wi: 8, Co: 8, Hf: 1, Wf: 1, Stride: 1},
	}, Counts: []int{1, 1}}
	return scenario.Scenario{
		Name:       "mini-sim",
		Workloads:  []scenario.Workload{{Net: net}},
		Devices:    []gpu.Device{gpu.TitanXp(), gpu.V100()},
		SimConfigs: []engine.Config{{MaxWaves: 1}},
	}
}

// TestStreamMemoHits: re-running a simulation scenario serves every layer
// simulation from the memo.
func TestStreamMemoHits(t *testing.T) {
	sc := simSweep()
	e := New()
	if _, err := e.RunScenario(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if before.Misses != 4 || before.Hits != 0 {
		t.Fatalf("cold sweep: %+v, want 4 misses and no hits", before)
	}
	if _, err := e.RunScenario(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Hits != before.Hits+4 {
		t.Errorf("repeat hit %d simulations, want 4: %+v -> %+v", after.Hits-before.Hits, before, after)
	}
	if after.Misses != before.Misses {
		t.Errorf("repeat reran %d simulations", after.Misses-before.Misses)
	}
}

// TestStatsObservability: Stats exposes the counters the serving layer
// scrapes — scenario points advance per evaluated point (memo hits
// included), and the memo reports its occupancy.
func TestStatsObservability(t *testing.T) {
	sc := simSweep()
	e := New()
	if s := e.Stats(); s.ScenarioPoints != 0 || s.Entries != 0 {
		t.Fatalf("fresh evaluator stats = %+v", s)
	}
	if _, err := e.RunScenario(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	s1 := e.Stats()
	if want := uint64(sc.Size()); s1.ScenarioPoints != want {
		t.Errorf("ScenarioPoints = %d, want %d", s1.ScenarioPoints, want)
	}
	if s1.Entries != 4 {
		t.Errorf("memo Entries = %d after a cold sweep, want 4", s1.Entries)
	}
	// A repeat sweep memo-hits but still counts its points.
	if _, err := e.RunScenario(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	s2 := e.Stats()
	if want := 2 * uint64(sc.Size()); s2.ScenarioPoints != want {
		t.Errorf("ScenarioPoints after repeat = %d, want %d", s2.ScenarioPoints, want)
	}
	if s2.Entries != s1.Entries {
		t.Errorf("repeat sweep grew the memo: %d -> %d", s1.Entries, s2.Entries)
	}
}

// badTrainingNet has a non-square filter past the first layer: valid for
// inference, rejected by the training pass (dgrad requires square filters)
// — an eval-time error that survives scenario validation.
func badTrainingNet() cnn.Network {
	return cnn.Network{Name: "badtrain", Layers: []layers.Conv{
		{Name: "ok", B: 4, Ci: 8, Hi: 12, Wi: 12, Co: 8, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
		{Name: "rect", B: 4, Ci: 8, Hi: 12, Wi: 12, Co: 8, Hf: 3, Wf: 5, Stride: 1, Pad: 2},
	}, Counts: []int{1, 1}}
}

// TestStreamFailFast stops at the first failing point in order.
func TestStreamFailFast(t *testing.T) {
	sc := scenario.Scenario{
		Workloads: []scenario.Workload{{Net: badTrainingNet()}, {Name: "alexnet"}},
		Devices:   []gpu.Device{gpu.TitanXp()},
		Batches:   []int{8},
		Passes:    []string{scenario.PassTraining},
	}
	upds, err := New().RunScenario(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), "non-square") {
		t.Fatalf("err = %v, want non-square filter error", err)
	}
	if len(upds) != 1 {
		t.Fatalf("fail-fast streamed %d updates, want 1", len(upds))
	}
	if upds[0].Err == nil || upds[0].Point.Index != 0 {
		t.Errorf("failing update = %+v", upds[0])
	}
}

// TestStreamOffsetResumesTail: a stream resumed with WithOffset(k) emits
// exactly the tail of the uninterrupted run — same point indices, same
// progress counts, bit-identical results. This is the contract the
// durable job store relies on to resume half-finished sweeps.
func TestStreamOffsetResumesTail(t *testing.T) {
	sc := multiAxis()
	full, err := New().RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 3, 7, 8, 11, -2} {
		// A fresh evaluator per offset: resume must not depend on a warm
		// memo (the restarted-process case).
		tail, err := New().RunScenario(context.Background(), sc, WithOffset(k))
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		start := k
		if start < 0 {
			start = 0
		}
		if start > len(full) {
			start = len(full)
		}
		if len(tail) != len(full)-start {
			t.Fatalf("offset %d: %d updates, want %d", k, len(tail), len(full)-start)
		}
		for i, upd := range tail {
			want := full[start+i]
			if upd.Point.Index != want.Point.Index || upd.Done != want.Done || upd.Total != want.Total {
				t.Errorf("offset %d update %d: point %d %d/%d, want point %d %d/%d",
					k, i, upd.Point.Index, upd.Done, upd.Total,
					want.Point.Index, want.Done, want.Total)
			}
			if upd.Network.Seconds != want.Network.Seconds ||
				len(upd.Network.Results) != len(want.Network.Results) {
				t.Errorf("offset %d update %d: result diverged from uninterrupted run", k, i)
			}
		}
	}
}

// TestStreamLimitWindow: WithOffset(k) + WithLimit(n) emits exactly the
// [k, k+n) slice of the uninterrupted run — same point indices, same
// global progress counts, bit-identical results. This is the contract
// the cluster shard protocol relies on to evaluate disjoint windows on
// different workers and merge them into a single-node-identical sweep.
func TestStreamLimitWindow(t *testing.T) {
	sc := multiAxis()
	full, err := New().RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ off, lim int }{
		{0, 8}, {0, 3}, {3, 2}, {5, 3}, {5, 100}, {8, 0}, {2, 0}, {0, -1}, {4, -1},
	} {
		win, err := New().RunScenario(context.Background(), sc,
			WithOffset(w.off), WithLimit(w.lim))
		if err != nil {
			t.Fatalf("window [%d,+%d): %v", w.off, w.lim, err)
		}
		end := len(full)
		if w.lim >= 0 && w.off+w.lim < end {
			end = w.off + w.lim
		}
		want := full[w.off:end]
		if len(win) != len(want) {
			t.Fatalf("window [%d,+%d): %d updates, want %d", w.off, w.lim, len(win), len(want))
		}
		for i, upd := range win {
			ref := want[i]
			if upd.Point.Index != ref.Point.Index || upd.Done != ref.Done || upd.Total != ref.Total {
				t.Errorf("window [%d,+%d) update %d: point %d %d/%d, want point %d %d/%d",
					w.off, w.lim, i, upd.Point.Index, upd.Done, upd.Total,
					ref.Point.Index, ref.Done, ref.Total)
			}
			if upd.Network.Seconds != ref.Network.Seconds {
				t.Errorf("window [%d,+%d) update %d: result diverged from full run", w.off, w.lim, i)
			}
		}
	}
	// Adjacent windows concatenate into the full run: the no-gap,
	// no-overlap property the coordinator's merge depends on.
	var merged []StreamUpdate
	for _, r := range scenario.SplitSpan(0, len(full), 3) {
		part, err := New().RunScenario(context.Background(), sc,
			WithOffset(r.Offset), WithLimit(r.Count))
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, part...)
	}
	if len(merged) != len(full) {
		t.Fatalf("merged %d updates, want %d", len(merged), len(full))
	}
	for i, upd := range merged {
		if upd.Point.Index != full[i].Point.Index || upd.Network.Seconds != full[i].Network.Seconds {
			t.Errorf("merged update %d diverged from full run", i)
		}
	}
}

// TestStreamCollectPartial keeps sweeping past failures.
func TestStreamCollectPartial(t *testing.T) {
	sc := scenario.Scenario{
		Workloads: []scenario.Workload{{Net: badTrainingNet()}, {Name: "alexnet"}},
		Devices:   []gpu.Device{gpu.TitanXp()},
		Batches:   []int{8},
		Passes:    []string{scenario.PassTraining},
	}
	upds, err := New().RunScenario(context.Background(), sc, WithErrorPolicy(CollectPartial))
	if err != nil {
		t.Fatalf("collect-partial returned sweep error: %v", err)
	}
	if len(upds) != 2 {
		t.Fatalf("streamed %d updates, want 2", len(upds))
	}
	if upds[0].Err == nil {
		t.Error("first point should fail")
	}
	if upds[1].Err != nil || upds[1].Network.Seconds <= 0 {
		t.Errorf("second point should succeed: %+v", upds[1].Err)
	}
	if upds[1].Done != 2 || upds[1].Total != 2 {
		t.Errorf("progress = %d/%d, want 2/2", upds[1].Done, upds[1].Total)
	}
}

// TestStreamCancellation: cancelling the context ends the stream early.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	upds, err := New().RunScenario(ctx, multiAxis())
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if len(upds) == int(multiAxis().Size()) {
		t.Error("cancelled sweep completed fully")
	}
}

// TestStreamSimPoints: simulation points stream engine results identical
// to the synchronous SimulateLayers path.
func TestStreamSimPoints(t *testing.T) {
	net := cnn.Network{Name: "mini", Layers: []layers.Conv{
		{Name: "c1", B: 1, Ci: 8, Hi: 8, Wi: 8, Co: 16, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
	}, Counts: []int{1}}
	cfg := engine.Config{MaxWaves: 1}
	sc := scenario.Scenario{
		Workloads:  []scenario.Workload{{Net: net}},
		Devices:    []gpu.Device{gpu.TitanXp()},
		SimConfigs: []engine.Config{cfg},
	}
	e := New()
	upds, err := e.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(upds) != 1 || len(upds[0].Sim) != 1 {
		t.Fatalf("sim updates = %+v", upds)
	}
	direct, err := engine.Run(net.Layers[0], engine.Config{Device: gpu.TitanXp(), MaxWaves: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if upds[0].Sim[0].DRAMBytes != direct.DRAMBytes {
		t.Errorf("streamed sim DRAM bytes %v, direct %v", upds[0].Sim[0].DRAMBytes, direct.DRAMBytes)
	}
}

// TestStreamEmptyWorkloadError: expansion errors surface synchronously.
func TestStreamEmptyWorkloadError(t *testing.T) {
	if _, err := New().Stream(context.Background(), scenario.Scenario{}); err == nil {
		t.Fatal("empty scenario streamed without error")
	}
}

// TestExploreViaScenario: an explore-shaped scenario (base + scaled
// devices over one workload) reproduces pipeline.Explore's speedups.
func TestExploreViaScenario(t *testing.T) {
	net := cnn.AlexNet(8)
	base := gpu.TitanXp()
	scales := []gpu.Scale{{MACPerSM: 2}, {DRAMBW: 2, L2BW: 2}}
	devices := []gpu.Device{base}
	for _, s := range scales {
		devices = append(devices, s.Apply(base))
	}
	e := New()
	upds, err := e.RunScenario(context.Background(), scenario.Scenario{
		Workloads: []scenario.Workload{{Net: net}},
		Devices:   devices,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(upds) != 3 {
		t.Fatalf("streamed %d updates, want 3", len(upds))
	}
	cands, err := e.Explore(context.Background(),
		explore.Workload{Net: net}, base, scales, explore.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cands {
		if want := upds[0].Network.Seconds / upds[i+1].Network.Seconds; c.Speedup != want {
			t.Errorf("scale %d: explore speedup %v, scenario %v", i, c.Speedup, want)
		}
	}
}
