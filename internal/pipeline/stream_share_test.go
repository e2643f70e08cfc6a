package pipeline

import (
	"testing"

	"delta/internal/sim/engine"
	"delta/internal/sim/trace"
)

// TestSimSharedStreamsParity: engine runs backed by the evaluator's shared
// stream tier produce results identical (==) to tier-free runs, and the
// tier actually engages (misses on first contact, hits once warm).
func TestSimSharedStreamsParity(t *testing.T) {
	private := New(WithoutStreamSharing(), WithoutCache())
	shared := New(WithoutCache()) // no memo cache: every run hits the engine

	cfg := engine.Config{Device: xp, Workers: 1}
	want, err := private.SimulateLayers(ctxBg(), simLayers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := private.Stats(); s.StreamMisses != 0 || s.StreamEntries != 0 {
		t.Fatalf("tier-free evaluator reported stream activity: %+v", s)
	}

	got, err := shared.SimulateLayers(ctxBg(), simLayers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("layer %s: shared-stream result != private result\n%+v\n%+v",
				simLayers[i].Name, got[i], want[i])
		}
	}
	cold := shared.Stats()
	if cold.StreamMisses == 0 || cold.StreamEntries == 0 {
		t.Fatalf("tier never engaged: %+v", cold)
	}

	// Same layers, different L2 capacity: the coalescing geometry is
	// unchanged, so every stream is a tier hit.
	bigger := cfg
	bigger.Device.L2SizeMB *= 2
	got2, err := shared.SimulateLayers(ctxBg(), simLayers, bigger)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := private.SimulateLayers(ctxBg(), simLayers, bigger)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("layer %s (bigger L2): shared-stream result diverged", simLayers[i].Name)
		}
	}
	warm := shared.Stats()
	if warm.StreamHits == 0 {
		t.Fatalf("adjacent sweep point generated instead of sharing: %+v", warm)
	}
	if warm.StreamMisses != cold.StreamMisses {
		t.Errorf("adjacent sweep point regenerated %d streams (same geometry should all hit)",
			warm.StreamMisses-cold.StreamMisses)
	}
}

// TestSimCacheKeyIgnoresExecutionKnobs: requests differing only in
// Workers or an explicit Streams tier share one memo entry — execution
// strategy is not identity.
func TestSimCacheKeyIgnoresExecutionKnobs(t *testing.T) {
	e := New()
	req := SimRequest{Layer: simLayers[1], Config: engine.Config{Device: xp, Workers: 1}}
	r1, err := e.Simulate(ctxBg(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Config.Workers = 2
	req.Config.Streams = trace.NewSharedStreams(8)
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
