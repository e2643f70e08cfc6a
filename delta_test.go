package delta

import (
	"context"
	"testing"
)

// TestFacadeEndToEnd exercises the full public path: layer -> traffic ->
// performance -> bottleneck, plus the simulator cross-check.
func TestFacadeEndToEnd(t *testing.T) {
	layer := Conv{Name: "quick", B: 8, Ci: 64, Hi: 14, Wi: 14, Co: 128,
		Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	d := TitanXp()

	est, err := EstimateTraffic(layer, d, TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if est.L1Bytes <= 0 || est.DRAMBytes > est.L2Bytes {
		t.Errorf("estimate malformed: %+v", est)
	}

	res, err := EstimatePerformance(est, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 {
		t.Errorf("seconds = %v", res.Seconds)
	}

	// One-call path agrees with the two-call path.
	res2, err := Estimate(layer, d, TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles || res2.Bottleneck != res.Bottleneck {
		t.Error("Estimate disagrees with EstimateTraffic+EstimatePerformance")
	}

	sim, err := Simulate(layer, SimConfig{Device: d})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := est.L1Bytes / sim.L1Bytes; ratio < 0.3 || ratio > 3 {
		t.Errorf("model/sim L1 = %v", ratio)
	}

	ts, err := SimulateTiming(est, d)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Cycles <= 0 {
		t.Errorf("timing cycles = %v", ts.Cycles)
	}
}

// TestFacadeSimulateAll: the pipelined batch simulation path returns
// results bit-identical to direct Simulate calls, for both the SimRequest
// and the shared-config layer-list shapes.
func TestFacadeSimulateAll(t *testing.T) {
	d := TitanXp()
	ls := []Conv{
		{Name: "s1", B: 2, Ci: 32, Hi: 14, Wi: 14, Co: 64, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
		{Name: "s2", B: 2, Ci: 64, Hi: 14, Wi: 14, Co: 32, Hf: 1, Wf: 1, Stride: 1},
	}
	cfg := SimConfig{Device: d}
	want := make([]SimResult, len(ls))
	for i, l := range ls {
		r, err := Simulate(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	batch, err := SimulateLayersContext(context.Background(), ls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]SimRequest, len(ls))
	for i, l := range ls {
		reqs[i] = SimRequest{Layer: l, Config: cfg}
	}
	batch2, err := SimulateAllContext(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ls {
		if batch[i] != want[i] || batch2[i] != want[i] {
			t.Errorf("layer %s: batch simulation differs from direct Simulate", ls[i].Name)
		}
	}
}

func TestFacadeNetworksAndDevices(t *testing.T) {
	if len(Devices()) != 3 {
		t.Error("Devices() != 3")
	}
	if _, err := DeviceByName("V100"); err != nil {
		t.Error(err)
	}
	suite := PaperSuite(DefaultBatch)
	if len(suite) != 4 {
		t.Error("PaperSuite != 4 networks")
	}
	if ResNet152Full(32).TotalInstances() != 155 {
		t.Error("ResNet152Full instance count drift")
	}
	if len(DesignOptions()) != 9 {
		t.Error("DesignOptions != 9")
	}
	if SelectTile(384).BlkN != 128 {
		t.Error("SelectTile lookup drift")
	}
	if fc := FC("fc6", 4, 4096, 1000); fc.Validate() != nil || !fc.IsPointwise() {
		t.Error("FC constructor broken")
	}
}

func TestFacadeAggregation(t *testing.T) {
	net := AlexNet(8)
	rs, err := EstimateAllContext(context.Background(), net.Layers, TitanXp(), TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := NetworkTime(rs, net.Counts)
	if total <= 0 {
		t.Errorf("network time = %v", total)
	}
	h := BottleneckHistogram(rs, net.Counts)
	sum := 0
	for _, c := range h {
		sum += c
	}
	if sum != net.TotalInstances() {
		t.Errorf("histogram sum %d != instances %d", sum, net.TotalInstances())
	}
}

func TestFacadePriorAndMicrobench(t *testing.T) {
	layer := Conv{Name: "p", B: 8, Ci: 96, Hi: 28, Wi: 28, Co: 128,
		Hf: 5, Wf: 5, Stride: 1, Pad: 2}
	d := TitanXp()
	delta, err := Estimate(layer, d, TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PriorEstimate(layer, d, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Cycles < delta.Cycles {
		t.Errorf("prior model (MR=1) predicted faster than DeLTA on a 5x5 layer")
	}
	pts, err := DRAMMicrobench(d, []float64{0.1, 1.2}, 2000)
	if err != nil || len(pts) != 2 {
		t.Fatalf("microbench: %v, %d points", err, len(pts))
	}
	if pts[1].LatencyClk <= pts[0].LatencyClk {
		t.Error("overload latency not above light-load latency")
	}
}
