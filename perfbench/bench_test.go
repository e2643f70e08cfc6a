package main

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"
)

const heldOutSeed = 7919

// generators are the workloads' op sources, the sweep included.
var generators = map[string]func(seed int64) func(i int) op{
	"explore-jobs": exploreOps,
	"fleet-sim":    fleetOps,
	"sim-l2sweep":  func(seed int64) func(int) op { return func(int) op { return simSweepOp(seed) } },
}

func TestGeneratorDeterministic(t *testing.T) {
	for name, gen := range generators {
		a, b, other := gen(1), gen(1), gen(heldOutSeed)
		differs := false
		for i := 0; i < 40; i++ {
			x, y := a(i), b(i)
			if !bytes.Equal(x.body, y.body) || !bytes.Equal(x.doc, y.doc) {
				t.Fatalf("%s op %d: same seed, different inputs", name, i)
			}
			if !bytes.Equal(x.doc, other(i).doc) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seed %d generates the inputs of seed 1", name, heldOutSeed)
		}
	}
}

// TestSeedShapes checks that the default and a held-out seed give ops of
// the same shape: points per op.
func TestSeedShapes(t *testing.T) {
	want := map[string]int{"explore-jobs": explorePoints, "fleet-sim": fleetPoints, "sim-l2sweep": simSweepPoints}
	for name, gen := range generators {
		for _, seed := range []int64{1, heldOutSeed} {
			at := gen(seed)
			for i := 0; i < 100; i++ {
				pts, err := expandDoc(at(i).doc)
				if err != nil {
					t.Fatalf("%s seed %d op %d: %v", name, seed, i, err)
				}
				if len(pts) != want[name] {
					t.Fatalf("%s seed %d op %d: %d points, want %d", name, seed, i, len(pts), want[name])
				}
				if name == "fleet-sim" && i >= 4 || name == "sim-l2sweep" && i >= 1 {
					break // costly to expand; the shape is fixed by the template
				}
			}
		}
	}
}

// TestUniqueDevices checks that no two ops of a run share a device, which
// is what makes every explore-jobs and fleet-sim job miss the memo.
func TestUniqueDevices(t *testing.T) {
	for _, name := range []string{"explore-jobs", "fleet-sim"} {
		at := generators[name](1)
		seen := map[string]int{}
		for i := 0; i < 90; i++ {
			pts, err := expandDoc(at(i).doc)
			if err != nil {
				t.Fatal(err)
			}
			devs := map[string]bool{}
			for _, p := range pts {
				devs[fmt.Sprintf("%s %v", p.Device.Name, p.Device.L2SizeMB)] = true
			}
			for d := range devs {
				if j, ok := seen[d]; ok {
					t.Fatalf("%s: ops %d and %d share device %s", name, j, i, d)
				}
				seen[d] = i
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if tailSamples(100, 0.9) != 10 || tailSamples(101, 0.9) != 10 || tailSamples(0, 0.9) != 0 {
		t.Errorf("tailSamples = %d, %d, %d; want 10, 10, 0", tailSamples(100, 0.9), tailSamples(101, 0.9), tailSamples(0, 0.9))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		// Overlapping children, one sticking out of the parent: they
		// cover [10, 50) and [90, 100) of it, 50 ms.
		{ID: 2, Parent: 1, Name: "server.request", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "server.request", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "server.scrape", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 3, Name: "inner", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50 * time.Millisecond, 2: 20 * time.Millisecond,
		3: 20 * time.Millisecond, 4: 30 * time.Millisecond, 5: 10 * time.Millisecond} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	sum, count := layerSelf(spans)
	if sum["server.request"] != 40*time.Millisecond || count["server.request"] != 2 {
		t.Errorf("server.request self %v over %d spans, want 40ms over 2", sum["server.request"], count["server.request"])
	}
}

func TestParseSSE(t *testing.T) {
	raw := []byte("id: 1\nevent: result\ndata: {\"a\":1}\n\n: keep-alive\n\nid: 1\nevent: done\ndata: {}\n\n")
	fs, err := parseSSE(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].event != "result" || fs[0].id != 1 || string(fs[0].data) != `{"a":1}` || fs[1].event != "done" {
		t.Fatalf("parsed %+v", fs)
	}
	if _, err := parseSSE([]byte("bogus\n\n")); err == nil {
		t.Error("malformed frame parsed")
	}
}
