// Package engine drives the im2col GEMM's warp-level load trace through a
// simulated GPU memory hierarchy — per-SM sectored L1 caches, one shared
// sectored L2, and a DRAM byte counter — under column-major CTA scheduling
// with round-robin SM assignment.
//
// The engine substitutes for the paper's nvprof measurements: its traffic
// counters at each level are the "measured" side of every model-vs-measured
// figure (README, Performance).
//
// Two execution strategies produce bit-identical counters: the serial
// reference engine (Config.Workers = 1) walks the wave schedule on one
// goroutine, and the default parallel engine fans per-SM L1 simulation out
// across workers, then replays the recorded L1 miss segments through the
// one shared L2, on the coordinating goroutine, in the exact serial
// interleave order (see runParallel).
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

	// Workers bounds the goroutines the engine fans per-SM L1 simulation
	// across: 0 (the default) uses GOMAXPROCS, 1 selects the serial
	// reference engine, and higher values cap the pool explicitly (never
	// above the SM count). Every setting yields bit-identical counters.
	Workers int

	// Streams, when non-nil, backs every worker's private stream memo
	// with a process-level shared tier, so coalesced tile streams are
	// generated once per identity (layer, grid, geometry, axis, index,
	// loop) across engine runs — scenario sweeps whose points share
	// coalescing geometry stop regenerating identical streams. Streams
	// are pure functions of their identity, so sharing cannot change any
	// counter. Safe for concurrent use by parallel runs.
	Streams *trace.SharedStreams
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
// the execution-strategy knobs (Workers, Streams) cleared: the equivalence
// class under which results are bit-identical, so it is usable as a
// memoization key.
func (c Config) Normalized() Config {
	c = c.withDefaults()
	c.Workers = 0
	c.Streams = nil
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
	l1Lines, l2Lines := l1.SizeBytes/l1.LineBytes, l2.SizeBytes/l2.LineBytes
	if l2Lines > maxLines || l1Lines > (maxLines-l2Lines)/c.Device.NumSM {
		return cache.Config{}, cache.Config{}, fmt.Errorf("engine: %d SMs x %d L1 lines + %d L2 lines exceed the %d cache lines one run may simulate",
			c.Device.NumSM, l1Lines, l2Lines, maxLines)
	}
	return l1, l2, nil
}

// maxLines bounds the cache lines one run simulates, every SM's L1 plus
// the L2. The cache model keeps 32 B of way state per line, so a run
// allocates at most 128 MiB of it. The largest registered device (V100:
// 84 SMs x 256 L1 lines + 49,152 L2 lines) simulates about 70k lines.
const maxLines = 1 << 22

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

// Run simulates one layer. Tile selection follows the stock Fig. 6 lookup.
func Run(l layers.Conv, cfg Config) (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	// The layer is already validated; skip RunGrid's duplicate check.
	return runGrid(l, tiling.NewGrid(l), cfg)
}

// RunGrid simulates one layer with an explicit CTA grid.
func RunGrid(l layers.Conv, grid tiling.Grid, cfg Config) (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	return runGrid(l, grid, cfg)
}

func runGrid(l layers.Conv, grid tiling.Grid, cfg Config) (Result, error) {
	l1, l2, err := cfg.Caches()
	if err != nil {
		return Result{}, err
	}
	s := newSim(l, grid, cfg.withDefaults(), l1, l2)
	defer s.release()
	if w := s.workerCount(); w > 1 {
		s.runParallel(w)
	} else {
		s.runSerial()
	}
	return s.finish()
}

// sim carries the state of one simulation run, shared by the serial and
// parallel engines.
type sim struct {
	cfg  Config
	d    gpu.Device
	grid tiling.Grid
	gen  *trace.Generator

	l1s []*cache.Cache
	l2  *cache.Cache

	loops    int
	waveSize int
	limit    int // schedule indices simulated: min(NumCTA, MaxWaves*waveSize)

	ofmapBase   int64
	dramSectors uint64
	res         Result
}

func newSim(l layers.Conv, grid tiling.Grid, cfg Config, l1Cfg, l2Cfg cache.Config) *sim {
	d := cfg.Device
	gen := trace.New(l, grid, cfg.SkipPadding)

	// Cache state comes from per-geometry pools: backing arrays (an L2
	// alone is ~1 MB of way state) are reset and reused across layers
	// instead of re-allocated per run.
	l1s := make([]*cache.Cache, d.NumSM)
	for i := range l1s {
		l1s[i] = cache.Acquire(l1Cfg)
	}
	l2 := cache.Acquire(l2Cfg)

	// CTAs execute in waves of NumSM x ActiveCTAs (Section IV-C), assigned
	// round-robin to SMs. MaxWaves truncates the schedule to whole waves.
	numCTA := grid.NumCTA()
	s := &sim{
		cfg: cfg, d: d, grid: grid, gen: gen,
		l1s: l1s, l2: l2,
		loops:    grid.MainLoops(),
		waveSize: d.NumSM * grid.ActiveCTAs(d),
		limit:    numCTA,
		// Epilogue stores: the OFmap lives after the weight region.
		ofmapBase: gen.FilterBase() + int64(grid.K)*int64(grid.N)*layers.ElemBytes,
		res:       Result{Layer: l, Device: d.Name, Grid: grid, TotalCTAs: numCTA},
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

// storeCTA issues the epilogue stores of CTA (row, col): its blkM x blkN
// block of the row-major M x N OFmap. Stores bypass L1 and write-allocate
// in L2.
func (s *sim) storeCTA(row, col int) {
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
			s.l2.WriteSector(sec * sb)
		}
	}
}

// runSerial is the reference engine: one goroutine walks the wave schedule
// in program order — within a wave, loops proceed in lockstep across CTAs
// so concurrently-resident CTAs interleave in L2, the behaviour the DRAM
// model's reuse argument (Fig. 8) relies on — driving every L1 and the
// shared L2 directly.
//
// Tile streams come from a StreamCache: a CTA's coalesced sector stream is
// a pure function of (axis, grid index, loop), so CTAs sharing a row or
// column replay the memoized stream instead of regenerating and
// re-coalescing it. Replaying a stream drives the L1 with the exact sector
// sequence the warp-by-warp path produced, and the misses are forwarded to
// the L2 in the same relative order, so all counters stay bit-identical
// (pinned by TestGoldenResults).
func (s *sim) runSerial() {
	sc := trace.NewStreamCache(s.gen, s.d.L1ReqBytes, s.d.SectorBytes, s.d.LineBytes, s.waveSize)
	if s.cfg.Streams != nil {
		sc.SetShared(s.cfg.Streams)
	}
	drive := func(l1 *cache.Cache, st *trace.Stream) {
		s.res.L1Requests += st.Requests
		for _, r := range st.Runs {
			if m := l1.AccessLineSectors(r.Line, r.Mask); m != 0 {
				if m = s.l2.AccessLineSectors(r.Line, m); m != 0 {
					s.dramSectors += uint64(bits.OnesCount64(m))
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
			s.storeCTA(s.ctaAt(idx))
		}
		s.res.SimulatedCTAs += end - start
	}
}

// release returns pooled state (cache backing arrays) after a run; the
// Result only carries copied counters, never references into them.
func (s *sim) release() {
	for i, c := range s.l1s {
		c.Release()
		s.l1s[i] = nil
	}
	s.l2.Release()
	s.l2 = nil
}

// finish aggregates per-cache stats into the Result, in the same order the
// serial engine always has (SM index order, then L2).
func (s *sim) finish() (Result, error) {
	if s.res.SimulatedCTAs == 0 {
		return Result{}, fmt.Errorf("engine: no CTAs simulated for %s (%d total)",
			s.res.Layer.Name, s.res.TotalCTAs)
	}
	for _, c := range s.l1s {
		st := c.Stats()
		s.res.L1Stats.SectorAccesses += st.SectorAccesses
		s.res.L1Stats.SectorHits += st.SectorHits
		s.res.L1Stats.SectorMisses += st.SectorMisses
		s.res.L1Stats.LineEvictions += st.LineEvictions
	}
	s.l2.FlushDirty()
	s.res.L2Stats = s.l2.Stats()

	sectorBytes := float64(s.d.SectorBytes)
	s.res.L1Bytes = float64(s.res.L1Requests) * float64(s.d.L1ReqBytes)
	s.res.L2Bytes = float64(s.res.L1Stats.SectorMisses) * sectorBytes
	s.res.DRAMBytes = float64(s.dramSectors) * sectorBytes
	s.res.StoreBytes = float64(s.res.L2Stats.SectorWrites) * sectorBytes
	s.res.DRAMWriteBytes = float64(s.res.L2Stats.DirtyWritebacks) * sectorBytes
	return s.res, nil
}
