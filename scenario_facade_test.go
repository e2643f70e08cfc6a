package delta_test

import (
	"context"
	"testing"

	"delta"
)

// TestFacadeScenarioStream drives the acceptance-criteria sweep through
// the public facade: a 2 networks × 2 devices × 2 models scenario streams
// ordered incremental results whose points match the per-helper paths.
func TestFacadeScenarioStream(t *testing.T) {
	sc := delta.Scenario{
		Name:      "facade",
		Workloads: []delta.ScenarioWorkload{{Name: "alexnet"}, {Name: "googlenet"}},
		Devices:   []delta.GPU{delta.TitanXp(), delta.V100()},
		Batches:   []int{16},
		Models:    []string{delta.ScenarioModelDelta, delta.ScenarioModelPrior},
	}
	ch, err := delta.Stream(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var updates []delta.StreamUpdate
	for upd := range ch {
		if upd.Point.Index != n || upd.Done != n+1 || upd.Total != 8 {
			t.Errorf("update %d: index %d, progress %d/%d", n, upd.Point.Index, upd.Done, upd.Total)
		}
		n++
		updates = append(updates, upd)
	}
	if n != 8 {
		t.Fatalf("streamed %d updates, want 8", n)
	}

	// Point 0 is (alexnet, TITAN Xp, delta): identical to EstimateAllContext.
	net, err := delta.NetworkByName("alexnet", 16)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := delta.EstimateAllContext(context.Background(), net.Layers, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if got := updates[0].Network.Results[i].Perf.Seconds; got != r.Seconds {
			t.Errorf("layer %d: streamed %v, helper %v", i, got, r.Seconds)
		}
	}
	if want := delta.NetworkTime(rs, net.Counts); updates[0].Network.Seconds != want {
		t.Errorf("network time: streamed %v, helper %v", updates[0].Network.Seconds, want)
	}
}

// TestFacadeContextHelpers checks the context-taking helpers against
// their deprecated shims (same pipeline, same results) and that a
// cancelled context aborts.
func TestFacadeContextHelpers(t *testing.T) {
	net, err := delta.NetworkByName("alexnet", 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	oldRS, err := delta.EstimateAllContext(context.Background(), net.Layers, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newRS, err := delta.EstimateAllContext(ctx, net.Layers, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range oldRS {
		if oldRS[i].Seconds != newRS[i].Seconds {
			t.Errorf("layer %d diverged between shim and context helper", i)
		}
	}

	_, oldTotal, err := delta.EstimateNetworkTrainingContext(context.Background(), net, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, newTotal, err := delta.EstimateNetworkTrainingContext(ctx, net, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if oldTotal != newTotal {
		t.Errorf("training total: shim %v, context %v", oldTotal, newTotal)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := delta.EstimateAllContext(cancelled, net.Layers, delta.V100(), delta.TrafficOptions{}); err == nil {
		t.Error("cancelled EstimateAllContext returned nil error")
	}
	if _, _, err := delta.EstimateNetworkTrainingContext(cancelled, net, delta.V100(), delta.TrafficOptions{}); err == nil {
		t.Error("cancelled EstimateNetworkTrainingContext returned nil error")
	}
	if _, err := delta.ExploreContext(cancelled, net, delta.TitanXp(),
		delta.ExploreAxes{MACPerSM: []float64{1, 2}}, delta.DefaultCostModel()); err == nil {
		t.Error("cancelled ExploreContext returned nil error")
	}
}

// TestFacadeSimulateLayersContext checks the scenario-backed simulation
// helper against the direct engine path.
func TestFacadeSimulateLayersContext(t *testing.T) {
	ls := []delta.Conv{
		{Name: "c1", B: 1, Ci: 8, Hi: 8, Wi: 8, Co: 16, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
	}
	cfg := delta.SimConfig{Device: delta.TitanXp(), MaxWaves: 1}
	rs, err := delta.SimulateLayersContext(context.Background(), ls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("results = %d", len(rs))
	}
	direct, err := delta.Simulate(ls[0], delta.SimConfig{Device: delta.TitanXp(), MaxWaves: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].DRAMBytes != direct.DRAMBytes || rs[0].L1Bytes != direct.L1Bytes {
		t.Errorf("scenario sim diverged from direct engine run")
	}
}
