package trace

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"delta/internal/layers"
	"delta/internal/tiling"
)

var fig5Like = layers.Conv{
	Name: "t", B: 2, Ci: 4, Hi: 12, Wi: 12, Co: 48, Hf: 3, Wf: 3, Stride: 1, Pad: 1,
}

func newGen(t *testing.T, l layers.Conv, skipPad bool) *Generator {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(l, tiling.NewGrid(l), skipPad)
}

func TestIFmapLoopCoversTile(t *testing.T) {
	g := newGen(t, fig5Like, false)
	tile := g.Grid.Tile
	total := 0
	warps := 0
	g.IFmapLoop(0, 0, func(addrs []int64) {
		warps++
		total += len(addrs)
		for _, a := range addrs {
			if a < 0 || a >= g.FilterBase() {
				t.Fatalf("IFmap address %d outside IFmap region [0,%d)", a, g.FilterBase())
			}
			if a%layers.ElemBytes != 0 {
				t.Fatalf("unaligned element address %d", a)
			}
		}
	})
	// Full interior CTA: blkM x blkK elements in blkK * blkM/32 warps.
	if want := tile.BlkM * tile.BlkK; total != want {
		t.Errorf("tile elements = %d, want %d", total, want)
	}
	if want := tile.BlkK * tile.BlkM / tiling.WarpSize; warps != want {
		t.Errorf("warp requests = %d, want %d", warps, want)
	}
}

func TestIFmapLoopEdgePredication(t *testing.T) {
	g := newGen(t, fig5Like, false)
	lastRow := g.Grid.Rows - 1
	total := 0
	g.IFmapLoop(lastRow, 0, func(addrs []int64) { total += len(addrs) })
	valid := g.Grid.M - lastRow*g.Grid.Tile.BlkM
	if want := valid * g.Grid.Tile.BlkK; total != want {
		t.Errorf("edge CTA elements = %d, want %d", total, want)
	}
}

func TestIFmapWarpIsColumnSlice(t *testing.T) {
	// Every warp request must stay within one matrix column: addresses
	// strictly increasing (Fig. 5a pattern).
	g := newGen(t, fig5Like, false)
	g.IFmapLoop(0, 0, func(addrs []int64) {
		for i := 1; i < len(addrs); i++ {
			if addrs[i] <= addrs[i-1] {
				t.Fatalf("warp addresses not increasing: %v", addrs)
			}
		}
	})
}

func TestSkipPadDropsHaloLoads(t *testing.T) {
	full := 0
	newGen(t, fig5Like, false).IFmapLoop(0, 0, func(a []int64) { full += len(a) })
	skipped := 0
	newGen(t, fig5Like, true).IFmapLoop(0, 0, func(a []int64) { skipped += len(a) })
	if skipped >= full {
		t.Errorf("skipPad kept %d of %d loads; expected fewer", skipped, full)
	}
}

func TestFilterLoopLayout(t *testing.T) {
	g := newGen(t, fig5Like, false)
	tile := g.Grid.Tile // Co=48 -> 128x64 tile, blkK=4 -> 8 columns per warp
	total := 0
	g.FilterLoop(0, 0, func(addrs []int64) {
		total += len(addrs)
		for _, a := range addrs {
			if a < g.FilterBase() {
				t.Fatalf("filter address %d below filter base %d", a, g.FilterBase())
			}
		}
	})
	// Edge: N=48 < blkN=64, K=36 >= blkK=4: 48 columns x 4 k-values.
	if want := g.Grid.N * tile.BlkK; total != want {
		t.Errorf("filter elements = %d, want %d", total, want)
	}
}

func TestFilterWarpSegmentsContiguous(t *testing.T) {
	// Within one warp, each blkK-run is contiguous (stride 4 B) and runs
	// from different columns are K elements apart.
	g := newGen(t, fig5Like, false)
	blkK := g.Grid.Tile.BlkK
	kBytes := int64(g.Grid.K) * layers.ElemBytes
	g.FilterLoop(0, 0, func(addrs []int64) {
		for i := 1; i < len(addrs); i++ {
			d := addrs[i] - addrs[i-1]
			if i%blkK == 0 {
				if d != kBytes-int64(blkK-1)*layers.ElemBytes {
					t.Fatalf("inter-column stride %d unexpected", d)
				}
			} else if d != layers.ElemBytes {
				t.Fatalf("intra-column stride %d, want %d", d, layers.ElemBytes)
			}
		}
	})
}

func TestCoalescerDenseWarp(t *testing.T) {
	c := NewCoalescer(128, 32)
	// 32 consecutive 4 B elements starting at 0: one 128 B request, 4 sectors.
	addrs := make([]int64, 32)
	for i := range addrs {
		addrs[i] = int64(i * 4)
	}
	if reqs := c.Coalesce(addrs); reqs != 1 {
		t.Errorf("dense aligned warp: %d requests, want 1", reqs)
	}
	if len(c.Sectors()) != 4 {
		t.Errorf("sectors = %d, want 4", len(c.Sectors()))
	}
}

func TestCoalescerMisalignedWarp(t *testing.T) {
	c := NewCoalescer(128, 32)
	// Same dense warp shifted by 64 B: spans two 128 B blocks.
	addrs := make([]int64, 32)
	for i := range addrs {
		addrs[i] = int64(64 + i*4)
	}
	if reqs := c.Coalesce(addrs); reqs != 2 {
		t.Errorf("misaligned warp: %d requests, want 2", reqs)
	}
	if len(c.Sectors()) != 4 {
		t.Errorf("sectors = %d, want 4", len(c.Sectors()))
	}
}

func TestCoalescerScatteredWarp(t *testing.T) {
	c := NewCoalescer(128, 32)
	// 32 elements 128 B apart: 32 requests, 32 sectors.
	addrs := make([]int64, 32)
	for i := range addrs {
		addrs[i] = int64(i * 128)
	}
	if reqs := c.Coalesce(addrs); reqs != 32 {
		t.Errorf("scattered warp: %d requests, want 32", reqs)
	}
	if len(c.Sectors()) != 32 {
		t.Errorf("sectors = %d, want 32", len(c.Sectors()))
	}
}

func TestCoalescer32BGranularity(t *testing.T) {
	c := NewCoalescer(32, 32)
	addrs := make([]int64, 32)
	for i := range addrs {
		addrs[i] = int64(i * 4)
	}
	// Volta-style 32 B requests: a dense warp needs 4.
	if reqs := c.Coalesce(addrs); reqs != 4 {
		t.Errorf("32B requests = %d, want 4", reqs)
	}
}

// coalesceRef is the quadratic reference: first-seen-order sector dedup and
// unique request-block counting, with no sortedness assumption.
func coalesceRef(addrs []int64, reqBytes, secBytes int64) (requests int, sectors []int64) {
	for _, a := range addrs {
		s := a / secBytes
		found := false
		for _, q := range sectors {
			if q == s {
				found = true
				break
			}
		}
		if !found {
			sectors = append(sectors, s)
		}
	}
	ratio := reqBytes / secBytes
	for i, s := range sectors {
		seen := false
		for _, q := range sectors[:i] {
			if q/ratio == s/ratio {
				seen = true
				break
			}
		}
		if !seen {
			requests++
		}
	}
	return requests, sectors
}

func checkCoalesceMatchesRef(t *testing.T, c *Coalescer, addrs []int64, reqBytes, secBytes int64) {
	t.Helper()
	wantReqs, wantSecs := coalesceRef(addrs, reqBytes, secBytes)
	if reqs := c.Coalesce(addrs); reqs != wantReqs {
		t.Errorf("Coalesce(%v) = %d requests, want %d", addrs, reqs, wantReqs)
	}
	got := c.Sectors()
	if len(got) != len(wantSecs) {
		t.Fatalf("Sectors(%v) = %v, want %v", addrs, got, wantSecs)
	}
	for i := range got {
		if got[i] != wantSecs[i] {
			t.Fatalf("Sectors(%v) = %v, want %v", addrs, got, wantSecs)
		}
	}
}

func TestCoalescerUnsortedFallback(t *testing.T) {
	c := NewCoalescer(128, 32)
	cases := [][]int64{
		{96, 0, 64, 32},                    // descending-ish
		{0, 4, 8, 200, 100, 100, 0, 300},   // sorted prefix, then disorder
		{500, 500, 500},                    // duplicates only
		{0, 127, 128, 64, 256, 255, 1024},  // request-block straddles
		{32, 0},                            // minimal inversion
		{0, 33, 32, 95, 64, 1, 2, 3, 4, 5}, // dedup against earlier inserts
	}
	for _, addrs := range cases {
		checkCoalesceMatchesRef(t, c, addrs, 128, 32)
	}
}

func TestCoalescerQuickVsReference(t *testing.T) {
	c := NewCoalescer(128, 32)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(tiling.WarpSize)
		addrs := make([]int64, n)
		base := int64(rng.Intn(4096)) * 4
		for i := range addrs {
			addrs[i] = base + int64(rng.Intn(512))*4
		}
		if trial%2 == 0 {
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		}
		checkCoalesceMatchesRef(t, c, addrs, 128, 32)
	}
}

func TestPointwiseFilterWarp(t *testing.T) {
	// 1x1 conv, Co <= 32 -> 128x32 tile with blkK=4.
	l := layers.Conv{Name: "pw", B: 4, Ci: 64, Hi: 14, Wi: 14, Co: 24, Hf: 1, Wf: 1, Stride: 1}
	g := newGen(t, l, false)
	if g.Grid.Tile.BlkN != 32 || g.Grid.Tile.BlkK != 4 {
		t.Fatalf("tile = %v", g.Grid.Tile)
	}
	total := 0
	g.FilterLoop(0, 0, func(addrs []int64) { total += len(addrs) })
	if want := 24 * 4; total != want {
		t.Errorf("filter elements = %d, want %d", total, want)
	}
}

// streamCorpus spans the layer shapes whose IFmap columns stress the fused
// generation path: strides, padding and no padding, pointwise taps, edge
// CTAs, and both Pascal (128 B requests) and Volta (32 B) granularities.
var streamCorpus = []layers.Conv{
	{Name: "s1p1", B: 2, Ci: 4, Hi: 12, Wi: 12, Co: 48, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
	{Name: "s2p2", B: 2, Ci: 3, Hi: 27, Wi: 27, Co: 96, Hf: 5, Wf: 5, Stride: 2, Pad: 2},
	{Name: "nopad", B: 1, Ci: 2, Hi: 9, Wi: 9, Co: 16, Hf: 3, Wf: 3, Stride: 1},
	{Name: "pw", B: 3, Ci: 6, Hi: 7, Wi: 7, Co: 24, Hf: 1, Wf: 1, Stride: 1},
}

// expandRuns flattens a stream's line runs back into the sector sequence
// they compress (runs only merge ascending same-line sectors, so bit order
// within a run is access order).
func expandRuns(runs []LineRun, lineShift uint) []int64 {
	var out []int64
	for _, r := range runs {
		for bit := 0; bit < 64; bit++ {
			if r.Mask&(1<<uint(bit)) != 0 {
				out = append(out, r.Line<<lineShift+int64(bit))
			}
		}
	}
	return out
}

// genericStream walks a tile stream exactly as the pre-memoization engine
// did — materialize each warp, Coalesce it, concatenate the sector lists —
// and returns the flat sector sequence plus the request count.
func genericStream(g *Generator, kind string, idx, loop, reqBytes, secBytes int) (secs []int64, requests uint64) {
	co := NewCoalescer(reqBytes, secBytes)
	visit := func(addrs []int64) {
		requests += uint64(co.Coalesce(addrs))
		secs = append(secs, co.Sectors()...)
	}
	if kind == "ifmap" {
		g.IFmapLoop(idx, loop, visit)
	} else {
		g.FilterLoop(idx, loop, visit)
	}
	return secs, requests
}

// TestStreamCacheMatchesGeneric pins the StreamCache (the range-built
// filter streams and both IFmap paths) against the warp-by-warp reference:
// identical request counts and identical sector sequences for every (axis,
// index, loop) across the corpus, strides, paddings, both request
// granularities of the modeled devices, and sectors from one element (4 B)
// to 32 B at up to 32 sectors per line.
func TestStreamCacheMatchesGeneric(t *testing.T) {
	grans := []struct{ req, sec, line int }{{128, 32, 128}, {32, 32, 128}, {64, 8, 256}, {16, 16, 64}, {32, 4, 128}}
	for _, l := range streamCorpus {
		for _, skipPad := range []bool{false, true} {
			g := newGen(t, l, skipPad)
			for _, gr := range grans {
				sc := NewStreamCache(g, gr.req, gr.sec, gr.line, 8)
				lineShift := uint(bits.TrailingZeros(uint(gr.line / gr.sec)))
				loops := g.Grid.MainLoops()
				check := func(kind string, idx, loop int) {
					t.Helper()
					var st *Stream
					if kind == "ifmap" {
						st = sc.IFmap(idx, loop)
					} else {
						st = sc.Filter(idx, loop)
					}
					wantSecs, wantReqs := genericStream(g, kind, idx, loop, gr.req, gr.sec)
					if st.Requests != wantReqs {
						t.Fatalf("%s/%v/%d×%d %s(%d,%d): requests %d, want %d",
							l.Name, skipPad, gr.req, gr.sec, kind, idx, loop, st.Requests, wantReqs)
					}
					got := expandRuns(st.Runs, lineShift)
					if len(got) != len(wantSecs) {
						t.Fatalf("%s/%v/%d×%d %s(%d,%d): %d sectors, want %d",
							l.Name, skipPad, gr.req, gr.sec, kind, idx, loop, len(got), len(wantSecs))
					}
					for i := range got {
						if got[i] != wantSecs[i] {
							t.Fatalf("%s/%v/%d×%d %s(%d,%d): sector %d = %d, want %d",
								l.Name, skipPad, gr.req, gr.sec, kind, idx, loop, i, got[i], wantSecs[i])
						}
					}
				}
				for loop := 0; loop < loops; loop++ {
					for row := 0; row < g.Grid.Rows; row++ {
						check("ifmap", row, loop)
					}
					for col := 0; col < g.Grid.Cols; col++ {
						check("filter", col, loop)
					}
				}
				// Revisit after the loop sweep: slots were overwritten, so
				// these regenerate — results must be unchanged (pure
				// functions of the key).
				check("ifmap", 0, 0)
				check("filter", 0, loops-1)
			}
		}
	}
}

// TestStreamCacheMemoizes asserts a repeated (index, loop) lookup is served
// from the slot (same Stream pointer, same contents) rather than refilled.
func TestStreamCacheMemoizes(t *testing.T) {
	g := newGen(t, fig5Like, false)
	sc := NewStreamCache(g, 128, 32, 128, 8)
	a := sc.IFmap(0, 0)
	runs := append([]LineRun{}, a.Runs...)
	b := sc.IFmap(0, 0)
	if a != b {
		t.Fatal("repeat lookup returned a different Stream")
	}
	if len(b.Runs) != len(runs) {
		t.Fatalf("repeat lookup changed the stream: %d runs, want %d", len(b.Runs), len(runs))
	}
	// A different loop refills the slot; returning to the first loop must
	// regenerate identical content.
	sc.IFmap(0, 1)
	c := sc.IFmap(0, 0)
	if len(c.Runs) != len(runs) {
		t.Fatalf("regenerated stream diverged: %d runs, want %d", len(c.Runs), len(runs))
	}
	for i := range runs {
		if c.Runs[i] != runs[i] {
			t.Fatalf("regenerated run %d = %+v, want %+v", i, c.Runs[i], runs[i])
		}
	}
}

// streamsEqual reports deep equality of two coalesced streams.
func streamsEqual(a, b *Stream) bool {
	if a.Requests != b.Requests || len(a.Runs) != len(b.Runs) {
		return false
	}
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			return false
		}
	}
	return true
}

// TestSharedStreamsMatchPrivate pins the parallel engine's topology: the
// workers of a pass each own a StreamCache, but all of them share the
// layer's one Generator across goroutines. For every (axis, index, loop)
// across the corpus, both granularities, and both padding modes, each
// worker — traversing in its own order, so its ring evicts and refills
// differently — must return streams deep-equal to a private Generator's.
// Run under -race in CI, this also shows a built Generator is read-only.
func TestSharedStreamsMatchPrivate(t *testing.T) {
	grans := []struct{ req, sec, line int }{{128, 32, 128}, {32, 32, 128}}
	for _, l := range streamCorpus {
		for _, skipPad := range []bool{false, true} {
			shared := newGen(t, l, skipPad)
			for gi, gr := range grans {
				t.Run(fmt.Sprintf("%s/skip%v/g%d", l.Name, skipPad, gi), func(t *testing.T) {
					// Copy the private streams out first: a ring's Stream
					// is only valid until its slot refills.
					priv := NewStreamCache(newGen(t, l, skipPad), gr.req, gr.sec, gr.line, 8)
					rows, cols, loops := shared.Grid.Rows, shared.Grid.Cols, shared.Grid.MainLoops()
					want := make([]Stream, 0, loops*(rows+cols))
					for loop := 0; loop < loops; loop++ {
						for i := 0; i < rows+cols; i++ {
							var s *Stream
							if i < rows {
								s = priv.IFmap(i, loop)
							} else {
								s = priv.Filter(i-rows, loop)
							}
							want = append(want, Stream{Requests: s.Requests, Runs: append([]LineRun(nil), s.Runs...)})
						}
					}

					const workers = 3
					errs := make(chan error, workers)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(seed int) {
							defer wg.Done()
							sc := NewStreamCache(shared, gr.req, gr.sec, gr.line, 8)
							for loop := 0; loop < loops; loop++ {
								for i := 0; i < rows+cols; i++ {
									idx := (i + seed*(rows+cols)/workers) % (rows + cols)
									var got *Stream
									if idx < rows {
										got = sc.IFmap(idx, loop)
									} else {
										got = sc.Filter(idx-rows, loop)
									}
									if !streamsEqual(got, &want[loop*(rows+cols)+idx]) {
										errs <- fmt.Errorf("worker %d: stream %d of loop %d diverged from the private generator's", seed, idx, loop)
										return
									}
								}
							}
						}(w)
					}
					wg.Wait()
					close(errs)
					for err := range errs {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestCoalescerQuickVsReferenceMixed extends the property test to the
// shapes the fallback must survive: warps with a sorted prefix and an
// unsorted tail (the mixed case where a naive fallback would double-count
// request blocks the prefix already emitted), at both the Pascal 128 B and
// Volta 32 B request granularities. Sector sets and request counts are both
// pinned to the quadratic first-seen reference.
func TestCoalescerQuickVsReferenceMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, gr := range []struct{ req, sec int }{{128, 32}, {32, 32}} {
		c := NewCoalescer(gr.req, gr.sec)
		for trial := 0; trial < 2000; trial++ {
			n := 1 + rng.Intn(tiling.WarpSize)
			addrs := make([]int64, n)
			base := int64(rng.Intn(4096)) * 4
			for i := range addrs {
				addrs[i] = base + int64(rng.Intn(512))*4
			}
			switch trial % 3 {
			case 0: // fully sorted: the fast path end to end
				sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			case 1: // sorted prefix, unsorted tail: fast path hands off mid-warp
				cut := rng.Intn(n)
				sort.Slice(addrs[:cut], func(i, j int) bool { return addrs[i] < addrs[j] })
			default: // raw order
			}
			checkCoalesceMatchesRef(t, c, addrs, int64(gr.req), int64(gr.sec))
		}
	}
}
