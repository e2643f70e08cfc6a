package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"delta/internal/cnn"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/scenario"
	"delta/internal/sim/engine"
)

// l2Variants returns the base device at the given L2 capacities, named
// the way perfbench's device specs name their variants.
func l2Variants(base gpu.Device, mbs ...float64) []gpu.Device {
	out := make([]gpu.Device, len(mbs))
	for i, mb := range mbs {
		d := base
		d.L2SizeMB = mb
		d.Name = fmt.Sprintf("%s L2 %gMB", base.Name, mb)
		out[i] = d
	}
	return out
}

// groups splits a point list's [start, end) window into its stream groups.
func groups(points []scenario.Point, start, end int) [][2]int {
	var out [][2]int
	for i := start; i < end; {
		j := groupEnd(points, i, end)
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

func expand(t *testing.T, sc scenario.Scenario) []scenario.Point {
	t.Helper()
	points, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestGroupShapes: the sim-l2sweep shape (two workloads x four L2
// capacities) forms two groups of four; the fleet-sim shape (base device
// changes from point to point) and analytical points never group; a
// window that cuts a group groups only inside the window.
func TestGroupShapes(t *testing.T) {
	big := layers.Conv{Name: "big", B: 8, Ci: 256, Hi: 27, Wi: 27, Co: 256, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	l2sweep := expand(t, scenario.Scenario{
		Name:       "l2sweep",
		Workloads:  []scenario.Workload{{Name: "googlenet"}, {Name: "big", Net: cnn.Network{Name: "big", Layers: []layers.Conv{big}}}},
		Devices:    l2Variants(gpu.TitanXp(), 2.5, 2.9, 3.3, 3.6),
		Batches:    []int{2},
		SimConfigs: []engine.Config{{}},
	})
	if got, want := fmt.Sprint(groups(l2sweep, 0, len(l2sweep))), "[[0 4] [4 8]]"; got != want {
		t.Errorf("sim-l2sweep groups = %s, want %s", got, want)
	}
	for _, w := range []struct {
		start, end int
		want       string
	}{
		{1, 7, "[[1 4] [4 7]]"},
		{2, 6, "[[2 4] [4 6]]"},
		{3, 5, "[[3 4] [4 5]]"},
		{0, 2, "[[0 2]]"},
	} {
		if got := fmt.Sprint(groups(l2sweep, w.start, w.end)); got != w.want {
			t.Errorf("window [%d,%d) groups = %s, want %s", w.start, w.end, got, w.want)
		}
	}

	devs := []gpu.Device{gpu.TitanXp(), gpu.P100(), gpu.V100()}
	for i := range devs {
		devs[i].L2SizeMB *= 1.1
	}
	fleet := expand(t, scenario.Scenario{
		Name:       "fleet",
		Workloads:  []scenario.Workload{{Name: "alexnet"}, {Name: "googlenet"}, {Name: "resnet152"}},
		Devices:    devs,
		Batches:    []int{1, 2},
		SimConfigs: []engine.Config{{}},
	})
	for _, g := range groups(fleet, 0, len(fleet)) {
		if g[1]-g[0] != 1 {
			t.Errorf("fleet-sim shape grouped points %v", g)
		}
	}

	analytic := expand(t, scenario.Scenario{
		Name:       "analytic",
		Workloads:  []scenario.Workload{{Name: "alexnet"}},
		Devices:    l2Variants(gpu.TitanXp(), 2, 3),
		Models:     []string{scenario.ModelDelta, scenario.ModelPrior},
		SimConfigs: []engine.Config{{}, {L2Ways: 8}},
	})
	// Per device: two analytical points, then two sim points that group.
	if got, want := fmt.Sprint(groups(analytic, 0, len(analytic))), "[[0 1] [1 2] [2 4] [4 5] [5 6] [6 8]]"; got != want {
		t.Errorf("mixed groups = %s, want %s", got, want)
	}
}

// groupedSweep is a small L2 sweep that groups: per device, three sim
// configs that differ only in L2 associativity, preceded by the failing
// training point of badTrainingNet. Points: [fail, sim x3] per device.
func groupedSweep() scenario.Scenario {
	return scenario.Scenario{
		Name:      "grouped",
		Workloads: []scenario.Workload{{Net: badTrainingNet()}},
		Devices:   l2Variants(gpu.TitanXp(), 1.5, 3),
		Models:    []string{scenario.ModelDelta},
		Passes:    []string{scenario.PassTraining},
		SimConfigs: []engine.Config{
			{MaxWaves: 1}, {MaxWaves: 1, L2Ways: 8}, {MaxWaves: 1, L2Ways: 4},
		},
	}
}

// perPoint answers each sim point of sc on its own through SimulateLayers
// on a fresh serial, cacheless evaluator: the reference a grouped stream
// must match.
func perPoint(t *testing.T, sc scenario.Scenario) map[int][]engine.Result {
	t.Helper()
	ref := New(WithWorkers(1), WithoutCache())
	out := map[int][]engine.Result{}
	for _, p := range expand(t, sc) {
		if p.Sim == nil {
			continue
		}
		rs, err := ref.SimulateLayers(ctxBg(), p.Net.Layers, *p.Sim)
		if err != nil {
			t.Fatal(err)
		}
		out[p.Index] = rs
	}
	return out
}

// TestStreamGroupedMatchesPerPoint: a grouped sweep's updates equal the
// per-point SimulateLayers results, with the same Index/Done/Total, under
// windows that cut a group and under both error policies.
func TestStreamGroupedMatchesPerPoint(t *testing.T) {
	sc := groupedSweep()
	want := perPoint(t, sc)
	total := sc.Size()
	if total != 8 || len(want) != 6 {
		t.Fatalf("scenario has %d points, %d sim points; want 8 and 6", total, len(want))
	}
	cases := []struct {
		name   string
		opts   []StreamOption
		first  int // index of the first update
		n      int // updates expected
		failAt int // index of the update that carries an error, -1 if none
	}{
		{"collect", []StreamOption{WithErrorPolicy(CollectPartial)}, 0, 8, -1},
		{"collect-cut", []StreamOption{WithErrorPolicy(CollectPartial), WithOffset(2), WithLimit(5)}, 2, 5, -1},
		{"failfast-after-group", []StreamOption{WithOffset(1)}, 1, 4, 4},
		{"failfast-cut", []StreamOption{WithOffset(2), WithLimit(2)}, 2, 2, -1},
		{"failfast-first", nil, 0, 1, 0},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			upds, _ := New(WithWorkers(workers)).RunScenario(context.Background(), sc, tc.opts...)
			if len(upds) != tc.n {
				t.Fatalf("%s workers=%d: %d updates, want %d", tc.name, workers, len(upds), tc.n)
			}
			for k, upd := range upds {
				idx := tc.first + k
				if upd.Point.Index != idx || upd.Done != idx+1 || upd.Total != total {
					t.Errorf("%s workers=%d update %d: index %d, progress %d/%d; want %d, %d/%d",
						tc.name, workers, k, upd.Point.Index, upd.Done, upd.Total, idx, idx+1, total)
				}
				if upd.Point.Sim == nil {
					if upd.Err == nil {
						t.Errorf("%s: analytical point %d did not fail", tc.name, idx)
					}
					continue
				}
				if upd.Err != nil {
					t.Errorf("%s: sim point %d failed: %v", tc.name, idx, upd.Err)
					continue
				}
				for i, r := range upd.Sim {
					if r != want[idx][i] {
						t.Errorf("%s workers=%d point %d layer %d: grouped result differs from SimulateLayers:\n got %+v\nwant %+v",
							tc.name, workers, idx, i, r, want[idx][i])
					}
				}
			}
			if tc.failAt >= 0 && upds[len(upds)-1].Point.Index != tc.failAt {
				t.Errorf("%s: fail-fast stream ended at point %d, want %d", tc.name, upds[len(upds)-1].Point.Index, tc.failAt)
			}
		}
	}
}

// TestGroupedMemoCounts: a fresh evaluator records one miss per (point,
// layer) of a grouped sweep, and a second run records only hits.
func TestGroupedMemoCounts(t *testing.T) {
	sc := groupedSweep()
	sc.Passes = nil
	sc.Models = nil
	sc.Workloads = []scenario.Workload{{Net: cnn.Network{Name: "mini", Layers: simLayers}}}
	e := New()
	if _, err := e.RunScenario(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	keys := uint64(len(sc.Devices) * len(sc.SimConfigs) * len(simLayers))
	if s := e.Stats(); s.Misses != keys || s.Hits != 0 || s.Entries != keys {
		t.Fatalf("cold grouped sweep: %+v, want %d misses and entries, no hits", s, keys)
	}
	if _, err := e.RunScenario(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != keys || s.Hits != keys {
		t.Fatalf("warm grouped sweep: %+v, want %d hits and no new misses", s, keys)
	}
}

// TestConcurrentGroupsShareMemo: grouped sweeps and single requests racing
// on one evaluator compute every key exactly once and agree with the
// per-point reference.
func TestConcurrentGroupsShareMemo(t *testing.T) {
	sc := groupedSweep()
	sc.Passes = nil
	want := perPoint(t, sc)
	var sims []scenario.Point
	for _, p := range expand(t, sc) {
		if p.Sim != nil {
			sims = append(sims, p)
		}
	}
	e := New(WithWorkers(2))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			upds, err := e.RunScenario(context.Background(), sc)
			if err != nil {
				errs <- err
				return
			}
			for _, upd := range upds {
				for i, r := range upd.Sim {
					if r != want[upd.Point.Index][i] {
						errs <- fmt.Errorf("point %d layer %d diverged", upd.Point.Index, i)
					}
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			p := sims[len(sims)-1-g]
			for i, l := range p.Net.Layers {
				r, err := e.Simulate(context.Background(), SimRequest{Layer: l, Config: *p.Sim})
				if err != nil {
					errs <- err
					return
				}
				if r != want[p.Index][i] {
					errs <- fmt.Errorf("single request for point %d layer %d diverged", p.Index, i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	keys := uint64(len(want) * len(badTrainingNet().Layers))
	if s := e.Stats(); s.Misses != keys || s.Entries != keys {
		t.Errorf("racing lookups computed %d keys (%d entries), want each of %d once", s.Misses, s.Entries, keys)
	}
}
