package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"delta/internal/backprop"
	"delta/internal/cnn"
	"delta/internal/explore"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/perf"
	"delta/internal/prior"
	"delta/internal/roofline"
	"delta/internal/sim/engine"
	"delta/internal/traffic"
)

var xp = gpu.TitanXp()

func ctxBg() context.Context { return context.Background() }

// TestParityDeltaInference: pipeline results are identical (==, not just
// approximately equal) to the serial perf.ModelAll path, for every paper
// network on every device and worker-pool width.
func TestParityDeltaInference(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		e := New(WithWorkers(workers))
		for _, d := range gpu.All() {
			for _, net := range cnn.PaperSuite(8) {
				serial, err := perf.ModelAll(net.Layers, d, traffic.Options{})
				if err != nil {
					t.Fatal(err)
				}
				nr, err := e.Network(ctxBg(), NetworkRequest{Net: net, Device: d})
				if err != nil {
					t.Fatal(err)
				}
				if len(nr.Results) != len(serial) {
					t.Fatalf("%s/%s: %d results, want %d", d.Name, net.Name, len(nr.Results), len(serial))
				}
				for i := range serial {
					if nr.Results[i].Perf != serial[i] {
						t.Fatalf("%s/%s layer %d: pipeline != serial\n%+v\n%+v",
							d.Name, net.Name, i, nr.Results[i].Perf, serial[i])
					}
				}
				if want := perf.NetworkTime(serial, net.Counts); nr.Seconds != want {
					t.Fatalf("%s/%s: network time %v, want %v", d.Name, net.Name, nr.Seconds, want)
				}
			}
		}
	}
}

// TestParityPriorAndRoofline: the model-variant dispatch matches the serial
// baseline entry points bit for bit.
func TestParityPriorAndRoofline(t *testing.T) {
	e := New()
	l := layers.Conv{Name: "p", B: 32, Ci: 192, Hi: 28, Wi: 28, Co: 96, Hf: 5, Wf: 5, Stride: 1, Pad: 2}
	for _, mr := range prior.MissRates() {
		want, err := prior.Model(l, xp, mr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Evaluate(ctxBg(), Request{Layer: l, Device: xp, Model: ModelPrior, MissRate: mr})
		if err != nil {
			t.Fatal(err)
		}
		if got.Perf != want {
			t.Fatalf("mr=%v: prior mismatch", mr)
		}
	}
	want, err := roofline.Model(l, xp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Evaluate(ctxBg(), Request{Layer: l, Device: xp, Model: ModelRoofline})
	if err != nil {
		t.Fatal(err)
	}
	if got.Roofline != want || got.Seconds != want.Seconds {
		t.Fatal("roofline mismatch")
	}
}

// TestParityTraining: layer-concurrent training equals backprop.NetworkStep.
func TestParityTraining(t *testing.T) {
	e := New()
	net := cnn.AlexNet(16)
	wantSteps, wantTotal, err := backprop.NetworkStep(net.Layers, net.Counts, xp, traffic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps, total, err := e.Training(ctxBg(), net, xp, traffic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if total != wantTotal || len(steps) != len(wantSteps) {
		t.Fatalf("total %v (want %v), %d steps (want %d)", total, wantTotal, len(steps), len(wantSteps))
	}
	for i := range steps {
		if steps[i] != wantSteps[i] {
			t.Fatalf("step %d differs", i)
		}
	}
	if !steps[0].SkipDgrad {
		t.Error("first layer should skip dgrad")
	}
}

// TestParityExplore: the concurrent design-space sweep returns candidates
// identical to the serial explore.Evaluate.
func TestParityExplore(t *testing.T) {
	e := New()
	net := cnn.GoogLeNet(8)
	w := explore.Workload{Net: net}
	scales := explore.DefaultAxes().Enumerate()
	cm := explore.DefaultCostModel()
	want, err := explore.Evaluate(w, xp, scales, cm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Explore(ctxBg(), w, xp, scales, cm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// tinySim is a simulation request cheap enough to repeat in tests: a small
// layer truncated to one CTA wave.
func tinySim(co int) SimRequest {
	return SimRequest{
		Layer:  layers.Conv{Name: "tiny", B: 1, Ci: 8, Hi: 8, Wi: 8, Co: co, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
		Config: engine.Config{Device: xp, MaxWaves: 1},
	}
}

// TestCacheMemoizes: duplicate simulations inside one batch run once, and
// re-simulating the same request hits the memo.
func TestCacheMemoizes(t *testing.T) {
	e := New()
	reqs := make([]SimRequest, 16)
	for i := range reqs {
		reqs[i] = tinySim(16)
	}
	if _, err := e.SimulateAll(ctxBg(), reqs); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single unique request)", s.Misses)
	}
	if want := uint64(len(reqs) - 1); s.Hits != want {
		t.Errorf("hits = %d, want %d", s.Hits, want)
	}
	if _, err := e.Simulate(ctxBg(), tinySim(16)); err != nil {
		t.Fatal(err)
	}
	if s = e.Stats(); s.Hits != uint64(len(reqs)) {
		t.Errorf("hits after re-simulate = %d, want %d", s.Hits, len(reqs))
	}
	// A different device is a different key.
	req := tinySim(16)
	req.Config.Device = gpu.V100()
	if _, err := e.Simulate(ctxBg(), req); err != nil {
		t.Fatal(err)
	}
	if s = e.Stats(); s.Misses != 2 {
		t.Errorf("misses after new device = %d, want 2", s.Misses)
	}
}

// TestCacheLimit: once the entry cap is reached, new distinct simulations
// still run correctly but are not stored; stored entries keep hitting.
func TestCacheLimit(t *testing.T) {
	e := New()
	e.cacheLimit = 2
	for _, co := range []int{16, 32, 48, 64} {
		req := tinySim(co)
		want, err := engine.Run(req.Layer, req.Config)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Simulate(ctxBg(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("co=%d: over-limit simulation diverged", co)
		}
	}
	if s := e.Stats(); s.Misses != 4 || s.Entries != 2 {
		t.Errorf("misses = %d, entries = %d, want 4 and 2", s.Misses, s.Entries)
	}
	// The first two keys were stored and still serve hits.
	if _, err := e.Simulate(ctxBg(), tinySim(16)); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 1 {
		t.Errorf("hits = %d, want 1", s.Hits)
	}
	// Over-limit keys rerun as misses.
	if _, err := e.Simulate(ctxBg(), tinySim(48)); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 5 {
		t.Errorf("misses = %d, want 5", s.Misses)
	}
}

// TestWithoutCache: disabling the memo reruns every simulation and records
// nothing.
func TestWithoutCache(t *testing.T) {
	e := New(WithoutCache())
	for i := 0; i < 3; i++ {
		if _, err := e.Simulate(ctxBg(), tinySim(16)); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Errorf("cacheless evaluator recorded stats: %+v", s)
	}
}

// TestCancelledContextRejected: a pre-cancelled context evaluates and
// simulates nothing.
func TestCancelledContextRejected(t *testing.T) {
	e := New()
	ctx, cancel := context.WithCancel(ctxBg())
	cancel()
	if _, err := e.Evaluate(ctx, Request{Layer: cnn.SensitivityBase(8), Device: xp}); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate error = %v, want context.Canceled", err)
	}
	net := cnn.ResNet152Full(8)
	if _, err := e.Network(ctx, NetworkRequest{Net: net, Device: xp}); !errors.Is(err, context.Canceled) {
		t.Errorf("Network error = %v, want context.Canceled", err)
	}
	if _, err := e.Simulate(ctx, tinySim(16)); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate error = %v, want context.Canceled", err)
	}
	if _, err := e.SimulateAll(ctx, []SimRequest{tinySim(16), tinySim(32)}); !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateAll error = %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.Misses != 0 || s.Entries != 0 {
		t.Errorf("cancelled context still simulated: %+v", s)
	}
}

// TestMidFlightCancellation: cancelling while a large batch is in flight
// aborts it with context.Canceled before all requests are evaluated.
func TestMidFlightCancellation(t *testing.T) {
	e := New(WithWorkers(2), WithoutCache())
	ctx, cancel := context.WithCancel(ctxBg())
	net := cnn.ResNet152Full(64)
	var reqs []Request
	for i := 0; i < 50; i++ {
		for _, l := range net.Layers {
			reqs = append(reqs, Request{Layer: l, Device: xp})
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.EvaluateAll(ctx, reqs)
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight cancel error = %v, want context.Canceled or completed nil", err)
	}
}

// TestErrorPropagation: an invalid request fails the whole batch with the
// underlying model error, not a cancellation artifact.
func TestErrorPropagation(t *testing.T) {
	e := New()
	good := cnn.SensitivityBase(8)
	bad := good
	bad.Stride = 0
	reqs := []Request{{Layer: good, Device: xp}, {Layer: bad, Device: xp}, {Layer: good, Device: xp}}
	_, err := e.EvaluateAll(ctxBg(), reqs)
	if err == nil {
		t.Fatal("invalid layer accepted")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("real error masked by cancellation: %v", err)
	}
}

// TestNetworkTotalNonFinite: finite per-layer times whose count-weighted
// total overflows are an error naming the network and device, not an
// infinite network time.
func TestNetworkTotalNonFinite(t *testing.T) {
	d := xp
	d.Name, d.MACGFLOPS = "slow", 1e-295
	net := cnn.Network{Name: "huge", Layers: []layers.Conv{cnn.SensitivityBase(8)}, Counts: []int{1 << 60}}
	_, err := New().Network(ctxBg(), NetworkRequest{Net: net, Device: d, Model: ModelRoofline})
	if err == nil || !strings.Contains(err.Error(), `network "huge" on "slow"`) {
		t.Fatalf("err = %v, want the overflowing total named", err)
	}
}

// TestExploreNonFinite: a network time that overflows is an error on both
// explore paths, the serial explore.Evaluate and Explore, never a
// candidate with a NaN speedup.
func TestExploreNonFinite(t *testing.T) {
	d := gpu.V100()
	d.MACGFLOPS = 1e-295
	net := cnn.AlexNet(8)
	net.Counts = make([]int, len(net.Layers))
	for i := range net.Counts {
		net.Counts[i] = 1 << 62
	}
	w := explore.Workload{Net: net}
	scales := explore.DefaultAxes().Enumerate()[:2]
	cm := explore.DefaultCostModel()
	if c, err := explore.Evaluate(w, d, scales, cm); err == nil || !strings.Contains(err.Error(), "is not finite") {
		t.Errorf("explore.Evaluate = %+v, %v; want a non-finite time error", c, err)
	}
	if c, err := New().Explore(ctxBg(), w, d, scales, cm); err == nil || !strings.Contains(err.Error(), "is not finite") {
		t.Errorf("Explore = %+v, %v; want a non-finite time error", c, err)
	}
}

// TestRequestValidation covers the model/pass dispatch guards.
func TestRequestValidation(t *testing.T) {
	e := New()
	l := cnn.SensitivityBase(8)
	cases := []Request{
		{Layer: l, Device: xp, Model: "magic"},
		{Layer: l, Device: xp, Pass: "sideways"},
		{Layer: l, Device: xp, Model: ModelPrior, MissRate: 1.5},
		{Layer: l, Device: xp, Model: ModelRoofline, Pass: PassTraining},
		{Layer: l, Device: gpu.Device{}},
	}
	for i, req := range cases {
		if _, err := e.Evaluate(ctxBg(), req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
	// Defaults: empty model/pass mean delta inference; prior defaults to
	// the mr=1.0 the prior literature advocates.
	r, err := e.Evaluate(ctxBg(), Request{Layer: l, Device: xp})
	if err != nil {
		t.Fatal(err)
	}
	if r.Model != ModelDelta || r.Pass != PassInference {
		t.Errorf("defaults not applied: %+v", r)
	}
	p1, err := e.Evaluate(ctxBg(), Request{Layer: l, Device: xp, Model: ModelPrior})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Evaluate(ctxBg(), Request{Layer: l, Device: xp, Model: ModelPrior, MissRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Perf != p2.Perf {
		t.Error("prior default miss rate is not 1.0")
	}
}

// TestConcurrentEvaluators exercises one shared Evaluator from many
// goroutines (the delta-server usage pattern); run under -race this is the
// pool/cache data-race check.
func TestConcurrentEvaluators(t *testing.T) {
	e := New()
	net := cnn.ResNet152Full(16)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := gpu.All()[g%3]
			nr, err := e.Network(ctxBg(), NetworkRequest{Net: net, Device: d})
			if err != nil {
				errs <- err
				return
			}
			serial, err := perf.ModelAll(net.Layers, d, traffic.Options{})
			if err != nil {
				errs <- err
				return
			}
			if nr.Seconds != perf.NetworkTime(serial, net.Counts) {
				errs <- errors.New("concurrent result diverged from serial")
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNetworkBottleneckHistogram: the aggregate matches the serial helper.
func TestNetworkBottleneckHistogram(t *testing.T) {
	e := New()
	net := cnn.VGG16(8)
	nr, err := e.Network(ctxBg(), NetworkRequest{Net: net, Device: xp})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := perf.ModelAll(net.Layers, xp, traffic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := perf.BottleneckHistogram(serial, net.Counts)
	if len(nr.Bottlenecks) != len(want) {
		t.Fatalf("histogram %v, want %v", nr.Bottlenecks, want)
	}
	for b, c := range want {
		if nr.Bottlenecks[b] != c {
			t.Errorf("bottleneck %v: %d, want %d", b, nr.Bottlenecks[b], c)
		}
	}
}
