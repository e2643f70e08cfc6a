package timing

import (
	"testing"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/perf"
	"delta/internal/traffic"
)

var xp = gpu.TitanXp()

// runLayer models l's traffic on d, then simulates its timing.
func runLayer(t *testing.T, l layers.Conv, d gpu.Device) Result {
	t.Helper()
	e, err := traffic.Model(l, d, traffic.Options{})
	if err != nil {
		t.Fatalf("traffic.Model(%s): %v", l.Name, err)
	}
	r, err := Run(e, d)
	if err != nil {
		t.Fatalf("Run(%s): %v", l.Name, err)
	}
	return r
}

func TestPositiveAndAboveArithmeticBound(t *testing.T) {
	l := layers.Conv{Name: "cb", B: 64, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	r := runLayer(t, l, xp)
	if r.Cycles <= 0 {
		t.Fatalf("cycles = %v", r.Cycles)
	}
	ideal := l.MACs() / (xp.MACPerClkPerSM() * float64(xp.NumSM))
	if r.Cycles < ideal {
		t.Errorf("simulated cycles %v below arithmetic bound %v", r.Cycles, ideal)
	}
	if r.SimulatedCTAs == 0 {
		t.Error("no CTAs simulated")
	}
}

func TestAgreesWithModelOnComputeBoundLayer(t *testing.T) {
	// Both the closed form and the event sim should land near the MAC
	// roofline for a compute-bound layer — this is the Fig. 13 shape claim.
	l := layers.Conv{Name: "agree", B: 64, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	sim := runLayer(t, l, xp)
	model, err := perf.ModelLayer(l, xp, traffic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := model.Cycles / sim.Cycles
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("model/sim = %v (model %v, sim %v)", ratio, model.Cycles, sim.Cycles)
	}
}

func TestMoreSMsFaster(t *testing.T) {
	l := layers.Conv{Name: "sms", B: 64, Ci: 128, Hi: 28, Wi: 28, Co: 256, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	base := runLayer(t, l, xp)
	big := (gpu.Scale{NumSM: 2, L2BW: 2, DRAMBW: 2}).Apply(xp)
	fast := runLayer(t, l, big)
	if fast.Cycles >= base.Cycles {
		t.Errorf("2x device not faster: %v vs %v", fast.Cycles, base.Cycles)
	}
}

func TestStarvedDRAMExposesQueueing(t *testing.T) {
	// Cut DRAM bandwidth 10x: the simulated time must grow and the DRAM
	// turnaround must exceed the unloaded pipeline latency.
	l := layers.Conv{Name: "starve", B: 64, Ci: 64, Hi: 56, Wi: 56, Co: 64, Hf: 1, Wf: 1, Stride: 1}
	base := runLayer(t, l, xp)
	slow := (gpu.Scale{DRAMBW: 0.1}).Apply(xp)
	starved := runLayer(t, l, slow)
	if starved.Cycles <= base.Cycles {
		t.Errorf("starved run not slower: %v vs %v", starved.Cycles, base.Cycles)
	}
	if starved.MeanDRAMTurnaroundClk <= slow.LatDRAMClk {
		t.Errorf("no queueing visible: %v <= %v", starved.MeanDRAMTurnaroundClk, slow.LatDRAMClk)
	}
}

func TestBatchScalingRoughlyLinear(t *testing.T) {
	l := layers.Conv{Name: "lin", B: 32, Ci: 128, Hi: 14, Wi: 14, Co: 256, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	small := runLayer(t, l, xp)
	big := runLayer(t, l.WithBatch(128), xp)
	ratio := big.Cycles / small.Cycles
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("4x batch scaled cycles by %v, want ~4", ratio)
	}
}

func TestDeviceMismatchRejected(t *testing.T) {
	l := layers.Conv{Name: "mm", B: 8, Ci: 16, Hi: 14, Wi: 14, Co: 32, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	e, err := traffic.Model(l, xp, traffic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(e, gpu.P100()); err == nil {
		t.Error("cross-device estimate accepted")
	}
}

func TestInvalidLayerRejected(t *testing.T) {
	// A caller that ignores the model's error must not get a timing out
	// of the estimate it returned.
	e, err := traffic.Model(layers.Conv{Name: "bad"}, xp, traffic.Options{})
	if err == nil {
		t.Fatal("invalid layer accepted")
	}
	if _, err := Run(e, xp); err == nil {
		t.Error("estimate of an invalid layer accepted")
	}
}
