// Package trace generates the warp-level global-load address streams of the
// blocked im2col GEMM: exactly the requests the cuDNN main loop issues for
// its IFmap and filter tiles (Fig. 5), CTA by CTA, loop by loop.
//
// The generator is the simulator's ground truth: the analytical model's L1
// and L2 equations are abstractions of these streams.
//
// A CTA's streams depend only on its grid coordinates, not its identity: the
// FilterLoop stream is a function of (ctaCol, loop) and the IFmapLoop stream
// of (ctaRow, loop), so every CTA in a wave that shares a row or column
// re-issues an identical stream — the redundancy behind the paper's
// column-wise scheduling argument (Section IV-C). StreamCache memoizes the
// coalesced form of each stream so the engine generates and coalesces it
// once per unique (axis, index, loop) per wave instead of once per CTA. It
// is the only stream memo: an engine pass that serves several configs
// (engine.RunShared) generates each stream once for all of them, and no
// stream outlives its pass.
package trace

import (
	"math/bits"

	"delta/internal/im2col"
	"delta/internal/layers"
	"delta/internal/tiling"
)

// Generator produces warp requests for one layer's GEMM.
type Generator struct {
	Layer layers.Conv
	Grid  tiling.Grid

	mat im2col.Matrix
	fil im2col.FilterMatrix

	// filterBase is the byte offset of the weight region, placed after the
	// padded IFmap region so the two streams never alias.
	filterBase int64

	skipPad bool
}

// New builds a generator for the layer under the given grid. If skipPad is
// true, loads that fall in the zero-padding halo are predicated off (the
// paper's traffic accounting keeps them, so the engine defaults to false).
func New(l layers.Conv, g tiling.Grid, skipPad bool) *Generator {
	mat := im2col.New(l)
	return &Generator{
		Layer:      l,
		Grid:       g,
		mat:        mat,
		fil:        im2col.NewFilter(l),
		filterBase: mat.PaddedElems() * layers.ElemBytes,
		skipPad:    skipPad,
	}
}

// FilterBase returns the byte address where the weight region starts.
func (g *Generator) FilterBase() int64 { return g.filterBase }

// VisitFn receives one warp's byte addresses (up to 32; fewer at predicated
// edges). The slice is reused across calls — consume, don't retain.
type VisitFn func(addrs []int64)

// IFmapLoop emits the warp requests loading the blkM x blkK IFmap tile of
// CTA (ctaRow, _) for one main loop. Threads are arranged down the M
// dimension, so each warp covers 32 consecutive rows of one matrix column —
// the Fig. 5a access pattern. Addresses are produced by stride-stepping an
// incremental column iterator instead of a full Address decode per element.
func (g *Generator) IFmapLoop(ctaRow, loop int, visit VisitFn) {
	var buf [tiling.WarpSize]int64
	g.ifmapLoop(ctaRow, loop, &buf, visit)
}

// ifmapLoop is IFmapLoop with a caller-provided warp scratch buffer: visit
// is an unknown function, so a local buffer escapes to the heap on every
// call — per-CTA-per-loop on the simulator's hot path. Hot callers
// (StreamCache) pass a long-lived buffer instead.
func (g *Generator) ifmapLoop(ctaRow, loop int, buf *[tiling.WarpSize]int64, visit VisitFn) {
	t := g.Grid.Tile
	k0 := loop * t.BlkK
	row0 := ctaRow * t.BlkM
	rows := t.BlkM
	if row0+rows > g.Grid.M {
		rows = g.Grid.M - row0
	}

	for dk := 0; dk < t.BlkK; dk++ {
		k := k0 + dk
		if k >= g.Grid.K {
			break
		}
		it := g.mat.ColumnIter(k, row0)
		for chunk := 0; chunk < rows; chunk += tiling.WarpSize {
			lanes := rows - chunk
			if lanes > tiling.WarpSize {
				lanes = tiling.WarpSize
			}
			n := 0
			for i := 0; i < lanes; i++ {
				if !g.skipPad || !it.IsPad() {
					buf[n] = it.Addr() * layers.ElemBytes
					n++
				}
				it.Advance()
			}
			if n > 0 {
				visit(buf[:n])
			}
		}
	}
}

// FilterLoop emits the warp requests loading the blkN x blkK filter tile of
// CTA (_, ctaCol) for one main loop. Threads are arranged down the K
// dimension, so each warp covers blkK consecutive K elements of 32/blkK
// adjacent columns — the Fig. 5b/5c access pattern.
func (g *Generator) FilterLoop(ctaCol, loop int, visit VisitFn) {
	var buf [tiling.WarpSize]int64
	g.filterLoop(ctaCol, loop, &buf, visit)
}

// filterLoop is FilterLoop with a caller-provided warp scratch buffer; see
// ifmapLoop.
func (g *Generator) filterLoop(ctaCol, loop int, buf *[tiling.WarpSize]int64, visit VisitFn) {
	t := g.Grid.Tile
	k0 := loop * t.BlkK
	n0 := ctaCol * t.BlkN
	colsPerWarp := tiling.WarpSize / t.BlkK
	if colsPerWarp < 1 {
		colsPerWarp = 1
	}

	ks := t.BlkK
	if k0+ks > g.Grid.K {
		ks = g.Grid.K - k0
	}
	for group := 0; group < t.BlkN; group += colsPerWarp {
		cnt := 0
		for dc := 0; dc < colsPerWarp; dc++ {
			n := n0 + group + dc
			if n >= g.Grid.N {
				break
			}
			// Column n's blkK addresses are contiguous from (k0, n).
			addr := g.filterBase + g.fil.Address(k0, n)*layers.ElemBytes
			for dk := 0; dk < ks; dk++ {
				buf[cnt] = addr
				addr += layers.ElemBytes
				cnt++
			}
		}
		if cnt > 0 {
			visit(buf[:cnt])
		}
	}
}

// Coalescer groups a warp's addresses into L1 requests and unique sectors.
// A Coalescer is reusable and allocation-free after construction.
type Coalescer struct {
	reqBytes    int64
	sectorBytes int64

	// Power-of-two granularities (every modeled device) replace the two
	// divisions per address with shifts.
	secShift   uint
	ratioShift uint
	pow2       bool

	sectors [tiling.WarpSize]int64
	nSec    int
}

// NewCoalescer builds a coalescer for a device's L1 request and sector
// granularities.
func NewCoalescer(reqBytes, sectorBytes int) *Coalescer {
	c := &Coalescer{reqBytes: int64(reqBytes), sectorBytes: int64(sectorBytes)}
	if sectorBytes > 0 && reqBytes >= sectorBytes &&
		sectorBytes&(sectorBytes-1) == 0 && reqBytes&(reqBytes-1) == 0 {
		c.pow2 = true
		c.secShift = uint(bits.TrailingZeros(uint(sectorBytes)))
		c.ratioShift = uint(bits.TrailingZeros(uint(reqBytes / sectorBytes)))
	}
	return c
}

// Coalesce ingests one warp's byte addresses. It returns the number of L1
// requests (unique request-granularity blocks) the warp generates; the
// unique touched sectors are retrievable via Sectors until the next call.
//
// The generator emits every warp's addresses in ascending order (Fig. 5's
// access patterns are monotone), so duplicates are adjacent and one pass
// counts sectors and requests during insertion. Unsorted input — possible
// for external callers — falls back to the quadratic reference scan, whose
// result (first-seen sector order, distinct request blocks over the whole
// warp including the already-inserted sorted prefix) is pinned against
// coalesceRef by TestCoalescerQuickVsReference.
func (c *Coalescer) Coalesce(addrs []int64) (requests int) {
	c.nSec = 0
	if c.pow2 {
		prev := int64(-1)
		lastSec := int64(-1)
		lastReq := int64(-1)
		for i, a := range addrs {
			if a < prev {
				return c.coalesceUnsorted(addrs[i:])
			}
			prev = a
			if s := a >> c.secShift; s != lastSec {
				c.sectors[c.nSec] = s
				c.nSec++
				lastSec = s
				if r := s >> c.ratioShift; r != lastReq {
					requests++
					lastReq = r
				}
			}
		}
		return requests
	}
	ratio := c.reqBytes / c.sectorBytes
	prev := int64(-1)
	lastSec := int64(-1)
	lastReq := int64(-1)
	for i, a := range addrs {
		if a < prev {
			return c.coalesceUnsorted(addrs[i:])
		}
		prev = a
		if s := a / c.sectorBytes; s != lastSec {
			c.sectors[c.nSec] = s
			c.nSec++
			lastSec = s
			if r := s / ratio; r != lastReq {
				requests++
				lastReq = r
			}
		}
	}
	return requests
}

// coalesceUnsorted finishes a warp whose remaining addresses are not in
// ascending order, deduplicating against everything inserted so far —
// including the sorted prefix — in first-seen order (the reference
// semantics). The request count is recomputed over the full sector set, so
// blocks the sorted prefix already spanned are not double-counted.
func (c *Coalescer) coalesceUnsorted(rest []int64) (requests int) {
	for _, a := range rest {
		s := a / c.sectorBytes
		found := false
		for i := c.nSec - 1; i >= 0; i-- {
			if c.sectors[i] == s {
				found = true
				break
			}
		}
		if !found {
			c.sectors[c.nSec] = s
			c.nSec++
		}
	}
	// Count requests over the full sector set: unique request-granularity
	// blocks in first-seen order.
	ratio := c.reqBytes / c.sectorBytes
	for i := 0; i < c.nSec; i++ {
		r := c.sectors[i] / ratio
		seen := false
		for j := 0; j < i; j++ {
			if c.sectors[j]/ratio == r {
				seen = true
				break
			}
		}
		if !seen {
			requests++
		}
	}
	return requests
}

// Sectors returns the unique sector indices (address / sectorBytes) of the
// last Coalesce call. The slice is invalidated by the next call.
func (c *Coalescer) Sectors() []int64 { return c.sectors[:c.nSec] }

// SectorBytes returns the sector granularity in bytes.
func (c *Coalescer) SectorBytes() int64 { return c.sectorBytes }

// LineRun is a maximal ascending run of unique sectors within one cache
// line: Line is the line index (byte address / LineBytes) and bit i of
// Mask marks sector i of that line.
type LineRun struct {
	Line int64
	Mask uint64
}

// Stream is one tile stream — the warp requests of one (axis, index, loop)
// cell — in coalesced form: the unique-per-warp sectors in L1 access order
// (warps concatenated in issue order), compressed into line runs, plus the
// total L1 request count. Replaying Runs through a cache (one
// AccessLineSectors call per run) is bit-identical to generating and
// coalescing the stream warp by warp and accessing each sector: runs only
// merge sectors that were adjacent and ascending in the original stream,
// so access order, duplicate revisits across warps, and per-sector counts
// are all preserved.
type Stream struct {
	Requests uint64
	Runs     []LineRun
}

// streamEntry is one memo slot: the stream of (index, loop), whose Runs
// buffer is reused across refills.
type streamEntry struct {
	index int32
	loop  int32
	live  bool
	s     Stream
}

// StreamCache memoizes coalesced tile streams keyed by (axis, index, loop).
// It is bounded to one wave's worth of unique streams per axis: slots are
// direct-mapped by index modulo the wave-derived slot count, so a wave's
// streams never collide (indices active in one wave span less than the slot
// count) and older waves' entries are evicted by overwrite — a ring, not a
// tracked LRU. A StreamCache is single-goroutine (each engine worker owns
// one); streams are pure functions of (axis, index, loop), so per-worker
// caches cannot diverge.
type StreamCache struct {
	gen *Generator
	co  *Coalescer

	lineShift  uint // log2(LineBytes / SectorBytes): sector index -> line
	secShift   uint // log2(SectorBytes)
	ratioShift uint // log2(L1ReqBytes / SectorBytes)

	// fastIFmap selects the fused IFmap path: instead of materializing
	// every warp's 32 addresses and re-scanning them in the coalescer, the
	// column iterator is stepped run by run and each run's sector range is
	// emitted arithmetically. Requires no padding predication and a step
	// (Stride elements) no larger than a sector, so runs touch every
	// sector in their range — true of every real conv layer; anything else
	// falls back to the warp-by-warp path. Both paths produce identical
	// Streams (pinned by TestStreamCacheFastMatchesGeneric).
	fastIFmap bool

	ifmap  []streamEntry // direct-mapped by ctaRow % len
	filter []streamEntry // direct-mapped by ctaCol % len

	buf     [tiling.WarpSize]int64 // warp scratch shared by both axes
	cur     *Stream                // fill target of the in-flight generation
	lastSec int64                  // last appended sector, for run merging

	// Per-warp coalescing state of the fused path (the Coalescer resets
	// per warp, so block/request counting must too).
	wLastSec int64
	wLastReq int64

	visit VisitFn // allocated once; appends into cur
}

// NewStreamCache builds a stream memo over gen for a device's coalescing
// granularities (lineBytes/sectorBytes must be a power-of-two ratio, as
// gpu.Device.Validate guarantees), sized to one wave of waveSize CTAs.
func NewStreamCache(gen *Generator, reqBytes, sectorBytes, lineBytes, waveSize int) *StreamCache {
	slots := func(n int) int {
		if n > waveSize {
			n = waveSize
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	sc := &StreamCache{
		gen:        gen,
		co:         NewCoalescer(reqBytes, sectorBytes),
		lineShift:  uint(bits.TrailingZeros(uint(lineBytes / sectorBytes))),
		secShift:   uint(bits.TrailingZeros(uint(sectorBytes))),
		ratioShift: uint(bits.TrailingZeros(uint(reqBytes / sectorBytes))),
		ifmap:      make([]streamEntry, slots(gen.Grid.Rows)),
		filter:     make([]streamEntry, slots(gen.Grid.Cols)),
	}
	sc.fastIFmap = !gen.skipPad &&
		int64(gen.Layer.Stride)*layers.ElemBytes <= int64(sectorBytes) &&
		reqBytes >= sectorBytes &&
		sectorBytes&(sectorBytes-1) == 0 && reqBytes&(reqBytes-1) == 0
	sc.visit = func(addrs []int64) {
		sc.cur.Requests += uint64(sc.co.Coalesce(addrs))
		runs := sc.cur.Runs
		for _, sec := range sc.co.Sectors() {
			line := sec >> sc.lineShift
			// Merge into the open run only while the stream stays on the
			// same line AND keeps ascending: a warp boundary may revisit a
			// line at a lower (or equal) sector, which must remain a
			// separate access so replay order and counts stay exact.
			if n := len(runs); n > 0 && runs[n-1].Line == line && sec > sc.lastSec {
				runs[n-1].Mask |= 1 << uint(sec-(line<<sc.lineShift))
			} else {
				runs = append(runs, LineRun{Line: line, Mask: 1 << uint(sec-(line<<sc.lineShift))})
			}
			sc.lastSec = sec
		}
		sc.cur.Runs = runs
	}
	return sc
}

// IFmap returns the coalesced IFmap tile stream of CTA row ctaRow at the
// given main loop, generating it only if the slot does not already hold it.
// The returned Stream is valid until the slot is refilled (at the earliest,
// the next IFmap call with a different row or loop).
func (sc *StreamCache) IFmap(ctaRow, loop int) *Stream {
	e := &sc.ifmap[ctaRow%len(sc.ifmap)]
	if e.live && e.index == int32(ctaRow) && e.loop == int32(loop) {
		return &e.s
	}
	e.index, e.loop, e.live = int32(ctaRow), int32(loop), true
	sc.fill(&e.s)
	if sc.fastIFmap {
		sc.fillIFmapFused(ctaRow, loop)
	} else {
		sc.gen.ifmapLoop(ctaRow, loop, &sc.buf, sc.visit)
	}
	return &e.s
}

// fillIFmapFused generates the IFmap stream of (ctaRow, loop) without
// materializing addresses: each warp is a slice of one im2col column, which
// the column iterator decomposes into arithmetic runs (fixed Stride-element
// step until the output-row wrap); a run's touched sectors are exactly the
// range [first, last] because the step never exceeds a sector. Warp
// boundaries reset block/request state just as the Coalescer does per call.
func (sc *StreamCache) fillIFmapFused(ctaRow, loop int) {
	g := sc.gen
	t := g.Grid.Tile
	k0 := loop * t.BlkK
	row0 := ctaRow * t.BlkM
	rows := t.BlkM
	if row0+rows > g.Grid.M {
		rows = g.Grid.M - row0
	}
	step := int64(g.Layer.Stride) * layers.ElemBytes

	for dk := 0; dk < t.BlkK; dk++ {
		k := k0 + dk
		if k >= g.Grid.K {
			break
		}
		it := g.mat.ColumnIter(k, row0)
		for chunk := 0; chunk < rows; chunk += tiling.WarpSize {
			lanes := rows - chunk
			if lanes > tiling.WarpSize {
				lanes = tiling.WarpSize
			}
			sc.wLastSec = -1
			sc.wLastReq = -1
			for lanes > 0 {
				run := it.RunLen()
				if run > lanes {
					run = lanes
				}
				a0 := it.Addr() * layers.ElemBytes
				sc.emitSectorRange(a0>>sc.secShift, (a0+int64(run-1)*step)>>sc.secShift)
				it.AdvanceRun(run)
				lanes -= run
			}
		}
	}
}

// emitSectorRange appends the ascending sector range [s0, s1] to the
// current stream: warp-local dedup against the previous sector, request
// counting on block transitions, and line-run compression — the same
// decisions the materialize-then-Coalesce path makes per address.
func (sc *StreamCache) emitSectorRange(s0, s1 int64) {
	if s0 == sc.wLastSec {
		s0++
	}
	if s1 < s0 {
		return
	}
	runs := sc.cur.Runs
	for s := s0; s <= s1; s++ {
		if b := s >> sc.ratioShift; b != sc.wLastReq {
			sc.cur.Requests++
			sc.wLastReq = b
		}
		line := s >> sc.lineShift
		bit := uint64(1) << uint(s-(line<<sc.lineShift))
		if n := len(runs); n > 0 && runs[n-1].Line == line && s > sc.lastSec {
			runs[n-1].Mask |= bit
		} else {
			runs = append(runs, LineRun{Line: line, Mask: bit})
		}
		sc.lastSec = s
	}
	sc.cur.Runs = runs
	sc.wLastSec = s1
}

// Filter is IFmap for the filter axis: the stream of CTA column ctaCol.
func (sc *StreamCache) Filter(ctaCol, loop int) *Stream {
	e := &sc.filter[ctaCol%len(sc.filter)]
	if e.live && e.index == int32(ctaCol) && e.loop == int32(loop) {
		return &e.s
	}
	e.index, e.loop, e.live = int32(ctaCol), int32(loop), true
	sc.fill(&e.s)
	sc.gen.filterLoop(ctaCol, loop, &sc.buf, sc.visit)
	return &e.s
}

func (sc *StreamCache) fill(s *Stream) {
	s.Requests = 0
	s.Runs = s.Runs[:0]
	sc.cur = s
	sc.lastSec = -1
}
