// Package engine drives the im2col GEMM's warp-level load trace through a
// simulated GPU memory hierarchy — per-SM sectored L1 caches, one shared
// sectored L2, and a DRAM byte counter — under column-major CTA scheduling
// with round-robin SM assignment.
//
// The engine substitutes for the paper's nvprof measurements: its traffic
// counters at each level are the "measured" side of every model-vs-measured
// figure (README, Performance).
//
// A run is a pass: it generates each tile stream once, drives each SM's L1
// once, and feeds every L1 miss to the L2 of each config it serves. Configs
// that differ only in L2 capacity, L2 associativity or device name share
// everything above the L2 (SharesL1), so RunShared answers an L2 sweep of
// one layer in one pass; Run is the one-config pass.
//
// Two execution strategies produce bit-identical counters: the serial
// reference engine (Config.Workers = 1) walks the wave schedule on one
// goroutine, and the default parallel engine fans per-SM L1 simulation out
// across workers, then replays the recorded L1 miss segments through each
// L2 in the exact serial interleave order (see runParallel).
package engine

import (
	"fmt"
	"math/bits"
	"runtime"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/sim/cache"
	"delta/internal/sim/trace"
	"delta/internal/tiling"
)

// Config controls a simulation run.
type Config struct {
	Device gpu.Device

	// L1Ways / L2Ways set cache associativity (defaults 4 and 16).
	L1Ways, L2Ways int

	// SkipPadding predicates off loads into the zero-padding halo. The
	// paper's accounting keeps them; default false.
	SkipPadding bool

	// RowMajorScheduling orders CTAs row-major instead of the paper's
	// column-wise order (Section IV-C). With many CTA columns this
	// lengthens the filter-tile reuse distance: an ablation that validates
	// the scheduling assumption behind the DRAM model.
	RowMajorScheduling bool

	// MaxWaves truncates the simulation after the given number of CTA
	// waves (0 = run everything). Counters are NOT scaled; callers that
	// sample must scale. Used only to bound very large experiments.
	MaxWaves int

	// Workers bounds the goroutines a pass uses: the L1 phase fans per-SM
	// simulation across them, and a pass serving several configs replays
	// each wave into its L2s on at most this many goroutines. 0 (the
	// default) uses GOMAXPROCS, 1 selects the serial reference engine, and
	// higher values cap the pool explicitly (never above the SM count).
	// RunShared takes it from the first config. Every setting yields
	// bit-identical counters.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.L1Ways == 0 {
		c.L1Ways = 4
	}
	if c.L2Ways == 0 {
		c.L2Ways = 16
	}
	return c
}

// Normalized returns the config with cache-geometry defaults applied and
// the execution-strategy knob (Workers) cleared: the equivalence class
// under which results are bit-identical, so it is usable as a memoization
// key.
func (c Config) Normalized() Config {
	c = c.withDefaults()
	c.Workers = 0
	return c
}

// SharesL1 reports whether one pass can serve both configs: they are equal
// apart from the device name, the L2 capacity and the L2 associativity,
// none of which changes anything above the L2.
func SharesL1(a, b Config) bool { return a.l1Phase() == b.l1Phase() }

// l1Phase is the part of a config that determines its L1 phase.
func (c Config) l1Phase() Config {
	c = c.Normalized()
	c.Device.Name = ""
	c.Device.L2SizeMB = 0
	c.L2Ways = 0
	return c
}

// Caches derives the cache geometries a run simulates: the per-SM L1 and
// the shared L2, each sized to the device's capacity rounded down to whole
// sets of LineBytes x ways. It returns an error — never a panic — for an
// invalid device, a non-positive way count, a level too small to hold one
// set, any geometry the cache model rejects, or more than maxLines lines
// in all, so a caller validating untrusted configs (internal/scenario)
// rejects exactly what a run would.
func (c Config) Caches() (l1, l2 cache.Config, err error) {
	if err := c.Device.Validate(); err != nil {
		return cache.Config{}, cache.Config{}, err
	}
	c = c.withDefaults()
	if l1, err = levelConfig("L1", c.Device.L1SizeKBPerSM*1024, c.Device, c.L1Ways); err != nil {
		return cache.Config{}, cache.Config{}, err
	}
	if l2, err = levelConfig("L2", c.Device.L2SizeBytes(), c.Device, c.L2Ways); err != nil {
		return cache.Config{}, cache.Config{}, err
	}
	// Checked per term so the product cannot overflow.
	l1Lines, l2Lines := lines(l1), lines(l2)
	if l2Lines > maxLines || l1Lines > (maxLines-l2Lines)/c.Device.NumSM {
		return cache.Config{}, cache.Config{}, fmt.Errorf("engine: %d SMs x %d L1 lines + %d L2 lines exceed the %d cache lines one run may simulate",
			c.Device.NumSM, l1Lines, l2Lines, maxLines)
	}
	return l1, l2, nil
}

// maxLines bounds the cache lines one pass simulates, every SM's L1 plus
// each config's L2. The cache model keeps 32 B of way state per line, so a
// pass allocates at most 128 MiB of it. The largest registered device
// (V100: 84 SMs x 256 L1 lines + 49,152 L2 lines) simulates about 70k
// lines per config.
const maxLines = 1 << 22

func lines(c cache.Config) int { return c.SizeBytes / c.LineBytes }

// levelConfig sizes one cache level. The way count is bounded by the
// level's line count before any multiplication, so no way count can
// overflow the set size.
func levelConfig(level string, sizeBytes float64, d gpu.Device, ways int) (cache.Config, error) {
	size := int(sizeBytes)
	if ways <= 0 || ways > size/d.LineBytes {
		return cache.Config{}, fmt.Errorf("engine: %s of %d B cannot hold one set of %d ways of %d B lines",
			level, size, ways, d.LineBytes)
	}
	cfg := cache.Config{
		SizeBytes: size - size%(d.LineBytes*ways), LineBytes: d.LineBytes,
		SectorBytes: d.SectorBytes, Ways: ways,
	}
	if err := cfg.Validate(); err != nil {
		return cache.Config{}, fmt.Errorf("engine: %s: %w", level, err)
	}
	return cfg, nil
}

// Result holds the simulated ("measured") traffic of one layer.
type Result struct {
	Layer  layers.Conv
	Device string
	Grid   tiling.Grid

	L1Requests uint64 // warp-level L1 requests after coalescing

	// Measured load traffic in bytes, defined exactly like nvprof counts
	// them: L1 = requests x request granularity; L2 = L1 sector misses x
	// 32 B; DRAM = L2 sector misses x 32 B.
	L1Bytes   float64
	L2Bytes   float64
	DRAMBytes float64

	// StoreBytes is the epilogue OFmap write volume issued to L2 (sector
	// granularity; global stores bypass L1 on the modeled devices).
	StoreBytes float64

	// DRAMWriteBytes is the dirty-writeback volume reaching DRAM,
	// including the end-of-kernel flush.
	DRAMWriteBytes float64

	L1Stats cache.Stats // aggregated over all SM L1s
	L2Stats cache.Stats

	SimulatedCTAs int
	TotalCTAs     int
}

// MissRateL1 returns L2 bytes / L1 bytes, the Fig. 4 quantity.
func (r Result) MissRateL1() float64 {
	if r.L1Bytes == 0 {
		return 0
	}
	return r.L2Bytes / r.L1Bytes
}

// MissRateL2 returns DRAM bytes / L2 bytes.
func (r Result) MissRateL2() float64 {
	if r.L2Bytes == 0 {
		return 0
	}
	return r.DRAMBytes / r.L2Bytes
}

// Scale returns the factor to extrapolate sampled traffic to the full
// launch (TotalCTAs / SimulatedCTAs); 1 when the run was complete.
func (r Result) Scale() float64 {
	if r.SimulatedCTAs == 0 {
		return 0
	}
	return float64(r.TotalCTAs) / float64(r.SimulatedCTAs)
}

// Run simulates one layer under one config: the one-config pass. Tile
// selection follows the stock Fig. 6 lookup.
func Run(l layers.Conv, cfg Config) (Result, error) {
	rs, err := RunShared(l, []Config{cfg})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// RunShared simulates one layer under every config of cfgs, which must
// all share an L1 phase with cfgs[0] (SharesL1); results are index-aligned
// with cfgs and each equals Run(l, cfgs[i]) exactly. The L1 phase runs
// once per pass. A pass keeps every simulated L1 and L2 line under
// maxLines, so a config set larger than that splits into several passes.
// An invalid layer or config, or configs that do not share an L1 phase,
// return an error.
func RunShared(l layers.Conv, cfgs []Config) ([]Result, error) {
	return runShared(l, cfgs, maxLines)
}

// runShared is RunShared with the per-pass line budget as a parameter.
func runShared(l layers.Conv, cfgs []Config, passLines int) ([]Result, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("engine: no configs to simulate %s under", l.Name)
	}
	var l1 cache.Config
	l2s := make([]cache.Config, len(cfgs))
	for i, c := range cfgs {
		var err error
		if l1, l2s[i], err = c.Caches(); err != nil {
			return nil, err
		}
		if i > 0 && !SharesL1(cfgs[0], c) {
			return nil, fmt.Errorf("engine: config %d does not share an L1 phase with config 0", i)
		}
	}
	grid := tiling.NewGrid(l)
	budget := passLines - cfgs[0].Device.NumSM*lines(l1)
	out := make([]Result, 0, len(cfgs))
	for start := 0; start < len(cfgs); {
		end, used := start+1, lines(l2s[start])
		for end < len(cfgs) && used+lines(l2s[end]) <= budget {
			used += lines(l2s[end])
			end++
		}
		s := newSim(l, grid, cfgs[start:end], l1, l2s[start:end])
		if w := s.workerCount(); w > 1 {
			s.runParallel(w)
		} else {
			s.runSerial()
		}
		rs, err := s.finish()
		s.release()
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
		start = end
	}
	return out, nil
}

// sim carries the state of one pass, shared by the serial and parallel
// engines.
type sim struct {
	cfg  Config // the pass's first config, with defaults: its L1 phase
	d    gpu.Device
	grid tiling.Grid
	gen  *trace.Generator

	l1s []*cache.Cache
	l2s []l2Side

	loops    int
	waveSize int
	limit    int // schedule indices simulated: min(NumCTA, MaxWaves*waveSize)

	ofmapBase  int64
	l1Requests uint64
	simulated  int // CTAs simulated
}

// l2Side is one config's share of a pass: its L2, the DRAM sectors that
// L2 missed, and the device name its Result reports.
type l2Side struct {
	device      string
	l2          *cache.Cache
	dramSectors uint64
}

// load sends one L1 miss run to the side's L2.
func (side *l2Side) load(line int64, mask uint64) {
	if m := side.l2.AccessLineSectors(line, mask); m != 0 {
		side.dramSectors += uint64(bits.OnesCount64(m))
	}
}

func newSim(l layers.Conv, grid tiling.Grid, cfgs []Config, l1Cfg cache.Config, l2Cfgs []cache.Config) *sim {
	cfg := cfgs[0].withDefaults()
	d := cfg.Device
	gen := trace.New(l, grid, cfg.SkipPadding)

	// Cache state comes from size-class pools: backing arrays (an L2
	// alone is ~1 MB of way state) are reset and reused across layers
	// instead of re-allocated per run.
	l1s := make([]*cache.Cache, d.NumSM)
	for i := range l1s {
		l1s[i] = cache.Acquire(l1Cfg)
	}
	l2s := make([]l2Side, len(cfgs))
	for i, c := range cfgs {
		l2s[i] = l2Side{device: c.Device.Name, l2: cache.Acquire(l2Cfgs[i])}
	}

	// CTAs execute in waves of NumSM x ActiveCTAs (Section IV-C), assigned
	// round-robin to SMs. MaxWaves truncates the schedule to whole waves.
	numCTA := grid.NumCTA()
	s := &sim{
		cfg: cfg, d: d, grid: grid, gen: gen,
		l1s: l1s, l2s: l2s,
		loops:    grid.MainLoops(),
		waveSize: d.NumSM * grid.ActiveCTAs(d),
		limit:    numCTA,
		// Epilogue stores: the OFmap lives after the weight region.
		ofmapBase: gen.FilterBase() + int64(grid.K)*int64(grid.N)*layers.ElemBytes,
	}
	if cfg.MaxWaves > 0 && cfg.MaxWaves*s.waveSize < numCTA {
		s.limit = cfg.MaxWaves * s.waveSize
	}
	return s
}

// workerCount resolves the Config.Workers knob against GOMAXPROCS and the
// SM count (one worker per SM at most).
func (s *sim) workerCount() int {
	w := s.cfg.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > s.d.NumSM {
		w = s.d.NumSM
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ctaAt maps a schedule index to CTA grid coordinates: column-major order
// (Section IV-C: column-wise scheduling for the skinny im2col GEMM) or
// row-major under the ablation knob.
func (s *sim) ctaAt(idx int) (row, col int) {
	if s.cfg.RowMajorScheduling {
		return idx / s.grid.Cols, idx % s.grid.Cols
	}
	return idx % s.grid.Rows, idx / s.grid.Rows
}

// storeCTA issues the epilogue stores of CTA (row, col) to one side's L2:
// its blkM x blkN block of the row-major M x N OFmap. Stores bypass L1 and
// write-allocate in L2.
func (s *sim) storeCTA(side *l2Side, row, col int) {
	g := s.grid
	sb := int64(s.d.SectorBytes)
	m0 := row * g.Tile.BlkM
	n0 := col * g.Tile.BlkN
	nEnd := n0 + g.Tile.BlkN
	if nEnd > g.N {
		nEnd = g.N
	}
	for m := m0; m < m0+g.Tile.BlkM && m < g.M; m++ {
		start := s.ofmapBase + (int64(m)*int64(g.N)+int64(n0))*layers.ElemBytes
		end := s.ofmapBase + (int64(m)*int64(g.N)+int64(nEnd))*layers.ElemBytes
		for sec := start / sb; sec*sb < end; sec++ {
			side.l2.WriteSector(sec * sb)
		}
	}
}

// runSerial is the reference engine: one goroutine walks the wave schedule
// in program order — within a wave, loops proceed in lockstep across CTAs
// so concurrently-resident CTAs interleave in L2, the behaviour the DRAM
// model's reuse argument (Fig. 8) relies on — driving every L1 and, inline
// with each L1 miss, every L2 of the pass.
//
// Tile streams come from a StreamCache: a CTA's coalesced sector stream is
// a pure function of (axis, grid index, loop), so CTAs sharing a row or
// column replay the memoized stream instead of regenerating and
// re-coalescing it. Replaying a stream drives the L1 with the exact sector
// sequence the warp-by-warp path produced, and the misses are forwarded to
// each L2 in the same relative order, so all counters stay bit-identical
// (pinned by TestGoldenResults).
func (s *sim) runSerial() {
	sc := trace.NewStreamCache(s.gen, s.d.L1ReqBytes, s.d.SectorBytes, s.d.LineBytes, s.waveSize)
	drive := func(l1 *cache.Cache, st *trace.Stream) {
		s.l1Requests += st.Requests
		for _, r := range st.Runs {
			if m := l1.AccessLineSectors(r.Line, r.Mask); m != 0 {
				for i := range s.l2s {
					s.l2s[i].load(r.Line, m)
				}
			}
		}
	}
	for start := 0; start < s.limit; start += s.waveSize {
		end := start + s.waveSize
		if end > s.limit {
			end = s.limit
		}
		for loop := 0; loop < s.loops; loop++ {
			for idx := start; idx < end; idx++ {
				row, col := s.ctaAt(idx)
				l1 := s.l1s[idx%s.d.NumSM]
				drive(l1, sc.IFmap(row, loop))
				drive(l1, sc.Filter(col, loop))
			}
		}
		for idx := start; idx < end; idx++ {
			row, col := s.ctaAt(idx)
			for i := range s.l2s {
				s.storeCTA(&s.l2s[i], row, col)
			}
		}
		s.simulated += end - start
	}
}

// release returns pooled state (cache backing arrays) after a pass; the
// Results only carry copied counters, never references into them.
func (s *sim) release() {
	for i, c := range s.l1s {
		c.Release()
		s.l1s[i] = nil
	}
	for i := range s.l2s {
		s.l2s[i].l2.Release()
		s.l2s[i].l2 = nil
	}
}

// finish builds one Result per config of the pass: the L1 side is shared,
// aggregated in SM index order as the serial engine always has; each L2 is
// flushed and reported on its own.
func (s *sim) finish() ([]Result, error) {
	numCTA := s.grid.NumCTA()
	if s.simulated == 0 {
		return nil, fmt.Errorf("engine: no CTAs simulated for %s (%d total)", s.gen.Layer.Name, numCTA)
	}
	base := Result{
		Layer: s.gen.Layer, Grid: s.grid, L1Requests: s.l1Requests,
		SimulatedCTAs: s.simulated, TotalCTAs: numCTA,
	}
	for _, c := range s.l1s {
		st := c.Stats()
		base.L1Stats.SectorAccesses += st.SectorAccesses
		base.L1Stats.SectorHits += st.SectorHits
		base.L1Stats.SectorMisses += st.SectorMisses
		base.L1Stats.LineEvictions += st.LineEvictions
	}
	sectorBytes := float64(s.d.SectorBytes)
	base.L1Bytes = float64(s.l1Requests) * float64(s.d.L1ReqBytes)
	base.L2Bytes = float64(base.L1Stats.SectorMisses) * sectorBytes

	out := make([]Result, len(s.l2s))
	for i := range s.l2s {
		side := &s.l2s[i]
		side.l2.FlushDirty()
		r := base
		r.Device = side.device
		r.L2Stats = side.l2.Stats()
		r.DRAMBytes = float64(side.dramSectors) * sectorBytes
		r.StoreBytes = float64(r.L2Stats.SectorWrites) * sectorBytes
		r.DRAMWriteBytes = float64(r.L2Stats.DirtyWritebacks) * sectorBytes
		out[i] = r
	}
	return out, nil
}
