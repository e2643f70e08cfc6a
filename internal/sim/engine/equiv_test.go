package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/sim/trace"
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
// Every run goes through a shared stream tier, cold and then warm, and must
// reproduce the serial reference Result exactly.
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
				par.Streams = trace.NewSharedStreams(0)
				got, err := Run(l, par)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got != want {
					t.Errorf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, want)
				}
				// Second run against the now-warm tier: hits must be as
				// exact as generation.
				again, err := Run(l, par)
				if err != nil {
					t.Fatalf("warm rerun: %v", err)
				}
				if again != want {
					t.Errorf("workers=%d warm-tier rerun diverged:\n got %+v\nwant %+v",
						workers, again, want)
				}
			}
		})
	}
}
