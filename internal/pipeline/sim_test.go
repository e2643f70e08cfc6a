package pipeline

import (
	"testing"

	"delta/internal/cnn"
	"delta/internal/layers"
	"delta/internal/sim/engine"
)

var simLayers = []layers.Conv{
	{Name: "s1", B: 2, Ci: 32, Hi: 14, Wi: 14, Co: 64, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
	{Name: "s2", B: 2, Ci: 64, Hi: 14, Wi: 14, Co: 32, Hf: 1, Wf: 1, Stride: 1},
	{Name: "s3", B: 2, Ci: 16, Hi: 28, Wi: 28, Co: 96, Hf: 3, Wf: 3, Stride: 2, Pad: 1},
}

// TestSimParity: SimulateAll results are identical (==) to direct serial
// engine runs, for every worker-pool width, with and without the cache.
func TestSimParity(t *testing.T) {
	cfg := engine.Config{Device: xp}
	want := make([]engine.Result, len(simLayers))
	for i, l := range simLayers {
		r, err := engine.Run(l, engine.Config{Device: xp, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 4} {
		for _, opts := range [][]Option{nil, {WithoutCache()}} {
			e := New(append([]Option{WithWorkers(workers)}, opts...)...)
			got, err := e.SimulateLayers(ctxBg(), simLayers, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d layer %s: pipeline sim != serial engine\n%+v\n%+v",
						workers, simLayers[i].Name, got[i], want[i])
				}
			}
		}
	}
}

// TestSimCacheMemoizes: a repeated simulation is served from the cache, and
// a request differing only in the Workers knob shares the same entry
// (results are bit-identical across worker counts by construction).
func TestSimCacheMemoizes(t *testing.T) {
	e := New()
	req := SimRequest{Layer: simLayers[0], Config: engine.Config{Device: xp, Workers: 1}}
	r1, err := e.Simulate(ctxBg(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first run: %+v", s)
	}
	req.Config.Workers = 2
	r2, err := e.Simulate(ctxBg(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("after repeat with different Workers: %+v", s)
	}
	if r1 != r2 {
		t.Fatal("cached result differs")
	}
	// Explicit cache-geometry defaults share the entry with the zero form.
	req.Config.L1Ways, req.Config.L2Ways = 4, 16
	if _, err := e.Simulate(ctxBg(), req); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("after repeat with explicit default ways: %+v", s)
	}
	// A genuinely different geometry is a new entry.
	req.Config.L1Ways = 2
	if _, err := e.Simulate(ctxBg(), req); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("after distinct geometry: %+v", s)
	}
}

// TestSimErrorPropagation: invalid layers and devices fail fast with the
// lowest-index error, matching the analytical batch semantics.
func TestSimErrorPropagation(t *testing.T) {
	e := New()
	reqs := []SimRequest{
		{Layer: simLayers[0], Config: engine.Config{Device: xp}},
		{Layer: layers.Conv{Name: "bad"}, Config: engine.Config{Device: xp}},
	}
	if _, err := e.SimulateAll(ctxBg(), reqs); err == nil {
		t.Fatal("invalid layer accepted")
	}
	if _, err := e.Simulate(ctxBg(), SimRequest{Layer: simLayers[0]}); err == nil {
		t.Fatal("zero device accepted")
	}
}

// TestSimAndEvalShareCache: only simulations enter the memo. A whole
// analytical network evaluation leaves every counter at zero; the one
// simulation after it records exactly one miss and one entry.
func TestSimAndEvalShareCache(t *testing.T) {
	e := New()
	if _, err := e.Network(ctxBg(), NetworkRequest{Net: cnn.ResNet152Full(8), Device: xp}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 0 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("analytical requests touched the memo: %+v", s)
	}
	if _, err := e.Simulate(ctxBg(), SimRequest{Layer: simLayers[0], Config: engine.Config{Device: xp}}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("one simulation should be one miss and one entry: %+v", s)
	}
}

// TestSimCacheKeyIgnoresExecutionKnobs: requests differing only in
// Workers share one memo entry — execution strategy is not identity.
func TestSimCacheKeyIgnoresExecutionKnobs(t *testing.T) {
	e := New()
	req := SimRequest{Layer: simLayers[1], Config: engine.Config{Device: xp, Workers: 1}}
	r1, err := e.Simulate(ctxBg(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Config.Workers = 2
	r2, err := e.Simulate(ctxBg(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("execution knobs changed the memoized result")
	}
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("execution knobs split the memo key: %+v", s)
	}
}
