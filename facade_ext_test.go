package delta

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestFacadeTraining exercises the training-step surface end to end.
func TestFacadeTraining(t *testing.T) {
	l := Conv{Name: "tr", B: 32, Ci: 64, Hi: 28, Wi: 28, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	d := TitanXp()

	dg, err := DgradLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Ci != l.Co || dg.Co != l.Ci {
		t.Errorf("dgrad channels not swapped: %+v", dg)
	}
	wg, err := WgradLayer(l)
	if err != nil {
		t.Fatal(err)
	}
	if m, _, _ := wg.GEMM(); m != l.Co {
		t.Errorf("wgrad M = %d, want %d", m, l.Co)
	}

	st, err := EstimateTrainingStep(l, d, TrafficOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seconds() <= st.Fprop.Seconds {
		t.Error("training step not above forward time")
	}

	net := AlexNet(32)
	steps, total, err := EstimateNetworkTrainingContext(context.Background(), net, d, TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(net.Layers) || total <= 0 {
		t.Errorf("network training: %d steps, %v s", len(steps), total)
	}
}

// TestFacadeExplore exercises the design-space surface end to end.
func TestFacadeExplore(t *testing.T) {
	net := AlexNet(16)
	axes := ExploreAxes{MACPerSM: []float64{1, 2}, MemBW: []float64{1, 2}}
	cands, err := ExploreContext(context.Background(), net, TitanXp(), axes, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 {
		t.Fatalf("candidates = %d", len(cands))
	}
	front := ParetoFront(cands)
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	if c, ok := CheapestAtLeast(cands, 1.0); !ok || c.Speedup < 1 {
		t.Errorf("CheapestAtLeast(1.0) = %v, %v", c, ok)
	}
	if _, ok := CheapestAtLeast(cands, 1000); ok {
		t.Error("impossible target satisfied")
	}
	if len(DefaultExploreAxes().Enumerate()) == 0 {
		t.Error("default axes empty")
	}
}

// TestFacadeRoofline checks the roofline baseline re-export.
func TestFacadeRoofline(t *testing.T) {
	l := Conv{Name: "rf", B: 64, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	r, err := Roofline(l, TitanXp())
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds <= 0 || math.IsNaN(r.Intensity) {
		t.Errorf("roofline malformed: %+v", r)
	}
	dl, err := Estimate(l, TitanXp(), TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ArithmeticSeconds > dl.Seconds {
		t.Error("arithmetic roof above the DeLTA prediction")
	}
}

// TestFacadeNonFinite: a device that passes validation but overflows the
// model (a vanishing MAC rate) makes each estimate an error naming the
// layer and the device, not an infinite time.
func TestFacadeNonFinite(t *testing.T) {
	l := Conv{Name: "rf", B: 64, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	d := V100()
	d.Name, d.MACGFLOPS = "slow", 1e-300
	want := `layer "rf" on "slow"`
	if _, err := Estimate(l, d, TrafficOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Estimate: %v, want an error naming %s", err, want)
	}
	if _, err := EstimateTrainingStep(l, d, TrafficOptions{}, false); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("EstimateTrainingStep: %v, want an error naming %s", err, want)
	}
	d.MACGFLOPS = 1e-310
	if _, err := Roofline(l, d); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Roofline: %v, want an error naming %s", err, want)
	}
}

// TestFacadeResNet50 checks the extra network.
func TestFacadeResNet50(t *testing.T) {
	n := ResNet50(64)
	if n.TotalInstances() != 53 {
		t.Errorf("ResNet50 instances = %d", n.TotalInstances())
	}
	rs, err := EstimateAllContext(context.Background(), n.Layers, V100(), TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if NetworkTime(rs, n.Counts) <= 0 {
		t.Error("non-positive network time")
	}
}
