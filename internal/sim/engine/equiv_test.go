package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"delta/internal/gpu"
	"delta/internal/layers"
)

// equivCorpus spans the grid shapes the paper suite produces: all three
// Fig. 6 tiles (Co <= 32, <= 64, > 64), pointwise and spatial filters,
// stride 2, no padding, multi-wave launches, and an edge-heavy grid.
var equivCorpus = []layers.Conv{
	{Name: "narrow", B: 2, Ci: 96, Hi: 14, Wi: 14, Co: 32, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
	{Name: "mid", B: 2, Ci: 64, Hi: 28, Wi: 28, Co: 64, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
	{Name: "wide", B: 2, Ci: 128, Hi: 14, Wi: 14, Co: 256, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
	{Name: "pointwise", B: 4, Ci: 192, Hi: 28, Wi: 28, Co: 64, Hf: 1, Wf: 1, Stride: 1},
	{Name: "stride2", B: 2, Ci: 48, Hi: 56, Wi: 56, Co: 96, Hf: 5, Wf: 5, Stride: 2, Pad: 2},
	{Name: "nopad", B: 2, Ci: 32, Hi: 27, Wi: 27, Co: 48, Hf: 3, Wf: 3, Stride: 1},
	{Name: "multiwave", B: 8, Ci: 32, Hi: 28, Wi: 28, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
}

// equivConfigs are the Config variants the ablations and experiments
// exercise, per device.
func equivConfigs(d gpu.Device) []Config {
	return []Config{
		{Device: d},
		{Device: d, SkipPadding: true},
		{Device: d, RowMajorScheduling: true},
		{Device: d, MaxWaves: 1},
		{Device: d, MaxWaves: 2, RowMajorScheduling: true},
		{Device: d, L1Ways: 2, L2Ways: 8},
	}
}

// TestParallelBitIdentical asserts the two-phase parallel engine reproduces
// the serial reference engine's Result exactly — every counter, byte total,
// and cache stat — across the corpus, for several worker counts. Run under
// -race in CI, this is also the engine's data-race gauntlet.
func TestParallelBitIdentical(t *testing.T) {
	for _, d := range []gpu.Device{gpu.TitanXp(), gpu.V100()} {
		for _, l := range equivCorpus {
			for ci, cfg := range equivConfigs(d) {
				cfg := cfg
				t.Run(fmt.Sprintf("%s/%s/cfg%d", d.Name, l.Name, ci), func(t *testing.T) {
					t.Parallel()
					serial := cfg
					serial.Workers = 1
					want, err := Run(l, serial)
					if err != nil {
						t.Fatalf("serial: %v", err)
					}
					for _, workers := range []int{0, 2, 3} {
						par := cfg
						par.Workers = workers
						got, err := Run(l, par)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						if got != want {
							t.Errorf("workers=%d diverged from serial:\n got %+v\nwant %+v",
								workers, got, want)
						}
					}
				})
			}
		}
	}
}

// TestRandomGeometryBitIdentical is the parallel engine's differential
// gauntlet over randomized layer geometries and cache associativities,
// including non-power-of-two way counts — on the TITAN Xp these hit the
// non-pow2 fastmod set counts (96 L1 / 1536 L2 sets at the default ways).
// Every parallel run must reproduce the serial reference Result exactly.
func TestRandomGeometryBitIdentical(t *testing.T) {
	devices := []gpu.Device{gpu.TitanXp(), gpu.V100()}
	rng := rand.New(rand.NewSource(42))
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		l := layers.Conv{
			Name:   fmt.Sprintf("rand%d", trial),
			B:      1 + rng.Intn(3),
			Ci:     8 * (1 + rng.Intn(12)),
			Hi:     7 + rng.Intn(22),
			Co:     16 * (1 + rng.Intn(8)),
			Hf:     1 + 2*rng.Intn(2), // 1 or 3
			Stride: 1 + rng.Intn(2),
		}
		l.Wi = l.Hi
		l.Wf = l.Hf
		if l.Hf > 1 {
			l.Pad = rng.Intn(2)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid layer: %v", trial, err)
		}
		d := devices[trial%len(devices)]
		cfg := Config{
			Device:   d,
			L1Ways:   []int{2, 3, 4}[rng.Intn(3)],
			L2Ways:   []int{8, 12, 16}[rng.Intn(3)],
			MaxWaves: 2, // bound the trial; truncation is part of the schedule
		}
		t.Run(fmt.Sprintf("trial%d/%s", trial, d.Name), func(t *testing.T) {
			t.Parallel()
			serial := cfg
			serial.Workers = 1
			want, err := Run(l, serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, workers := range []int{2, 3} {
				par := cfg
				par.Workers = workers
				got, err := Run(l, par)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got != want {
					t.Errorf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}

// l2Sweep returns the configs of one shared pass over base: three L2
// capacities plus an associativity variant, each device renamed the way a
// scenario's device specs name their variants.
func l2Sweep(base Config) []Config {
	ways := 8
	if base.L2Ways == 8 {
		ways = 12
	}
	var cfgs []Config
	for i, scale := range []float64{0.75, 1, 1.25, 1} {
		c := base
		c.Device.L2SizeMB *= scale
		c.Device.Name = fmt.Sprintf("%s L2 %d", base.Device.Name, i)
		if i == 3 {
			c.L2Ways = ways
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestSharedPassBitIdentical: one pass over an L2 sweep returns, for each
// config, exactly the one-config serial Run result — across the corpus,
// every ablation config, and the serial and parallel engines (the parallel
// one replays each wave into the L2s on several goroutines). Run under
// -race in CI.
func TestSharedPassBitIdentical(t *testing.T) {
	for _, d := range []gpu.Device{gpu.TitanXp(), gpu.V100()} {
		for _, l := range equivCorpus {
			for ci, base := range equivConfigs(d) {
				cfgs := l2Sweep(base)
				t.Run(fmt.Sprintf("%s/%s/cfg%d", d.Name, l.Name, ci), func(t *testing.T) {
					t.Parallel()
					want := make([]Result, len(cfgs))
					for i, c := range cfgs {
						c.Workers = 1
						r, err := Run(l, c)
						if err != nil {
							t.Fatalf("serial config %d: %v", i, err)
						}
						want[i] = r
					}
					for _, workers := range []int{1, 2, 3} {
						pass := append([]Config(nil), cfgs...)
						pass[0].Workers = workers
						got, err := RunShared(l, pass)
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("workers=%d config %d diverged from its serial run:\n got %+v\nwant %+v",
									workers, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestRunSharedRejects: configs that do not share an L1 phase, an invalid
// config anywhere in the set, an empty set and an invalid layer are
// errors, never panics.
func TestRunSharedRejects(t *testing.T) {
	xp := gpu.TitanXp()
	l := equivCorpus[0]
	ok := Config{Device: xp}
	differ := map[string]func(*Config){
		"L1 ways":     func(c *Config) { c.L1Ways = 2 },
		"SM count":    func(c *Config) { c.Device.NumSM = 28 },
		"L1 capacity": func(c *Config) { c.Device.L1SizeKBPerSM = 24 },
		"padding":     func(c *Config) { c.SkipPadding = true },
		"schedule":    func(c *Config) { c.RowMajorScheduling = true },
		"waves":       func(c *Config) { c.MaxWaves = 1 },
		"device":      func(c *Config) { c.Device = gpu.V100() },
	}
	for name, mutate := range differ {
		other := ok
		mutate(&other)
		if SharesL1(ok, other) {
			t.Errorf("%s: SharesL1 = true", name)
		}
		if _, err := RunShared(l, []Config{ok, other}); err == nil {
			t.Errorf("%s: pass accepted configs with different L1 phases", name)
		}
	}
	same := ok
	same.Device.Name, same.Device.L2SizeMB, same.L2Ways, same.Workers = "other", 2, 8, 3
	if !SharesL1(ok, same) {
		t.Error("configs differing only in L2 capacity, L2 ways, name and workers do not share an L1 phase")
	}
	bad := ok
	bad.L2Ways = -1
	if _, err := RunShared(l, []Config{ok, bad}); err == nil {
		t.Error("pass accepted an invalid L2 config")
	}
	if _, err := RunShared(l, nil); err == nil {
		t.Error("pass accepted no configs")
	}
	if _, err := RunShared(layers.Conv{Name: "bad"}, []Config{ok}); err == nil {
		t.Error("pass accepted an invalid layer")
	}
	// A field the simulator never reads may hold NaN, which equals
	// nothing: a one-config pass must not compare its config with itself.
	odd := Config{Device: xp, MaxWaves: 1}
	odd.Device.LatL1Clk = math.NaN()
	if _, err := Run(l, odd); err != nil {
		t.Errorf("one-config run with a NaN latency: %v", err)
	}
}

// TestRunSharedSplitsPasses: a config set over the per-pass line budget
// splits into several passes and every result still equals its own run.
func TestRunSharedSplitsPasses(t *testing.T) {
	xp := gpu.TitanXp()
	base := Config{Device: xp, MaxWaves: 2}
	cfgs := l2Sweep(base)
	cfgs = append(cfgs, l2Sweep(Config{Device: xp, MaxWaves: 2, L2Ways: 8})...)
	l1, l2, err := base.Caches()
	if err != nil {
		t.Fatal(err)
	}
	// Room for the L1s and about two L2s per pass.
	budget := xp.NumSM*lines(l1) + 2*lines(l2)
	for _, l := range equivCorpus[:3] {
		got, err := runShared(l, cfgs, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(cfgs) {
			t.Fatalf("%s: %d results for %d configs", l.Name, len(got), len(cfgs))
		}
		for i, c := range cfgs {
			want, err := Run(l, c)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("%s config %d: split pass diverged:\n got %+v\nwant %+v", l.Name, i, got[i], want)
			}
		}
	}
}
