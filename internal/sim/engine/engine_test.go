package engine

import (
	"math"
	"runtime"
	"testing"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/sim/cache"
	"delta/internal/tiling"
	"delta/internal/traffic"
)

var xp = gpu.TitanXp()

var testLayer = layers.Conv{
	Name: "e", B: 4, Ci: 32, Hi: 14, Wi: 14, Co: 64, Hf: 3, Wf: 3, Stride: 1, Pad: 1,
}

func run(t *testing.T, l layers.Conv, cfg Config) Result {
	t.Helper()
	if cfg.Device.Name == "" {
		cfg.Device = xp
	}
	r, err := Run(l, cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", l.Name, err)
	}
	return r
}

func TestFlowConservation(t *testing.T) {
	r := run(t, testLayer, Config{})
	// Every L2 access is an L1 miss; every DRAM sector is an L2 miss.
	if r.L2Stats.SectorAccesses != r.L1Stats.SectorMisses {
		t.Errorf("L2 accesses %d != L1 misses %d", r.L2Stats.SectorAccesses, r.L1Stats.SectorMisses)
	}
	wantDRAM := float64(r.L2Stats.SectorMisses) * 32
	if r.DRAMBytes != wantDRAM {
		t.Errorf("DRAM bytes %v != L2 miss bytes %v", r.DRAMBytes, wantDRAM)
	}
	// Hierarchy ordering.
	if !(r.DRAMBytes <= r.L2Bytes && r.L2Bytes <= r.L1Bytes) {
		t.Errorf("ordering violated: L1=%v L2=%v DRAM=%v", r.L1Bytes, r.L2Bytes, r.DRAMBytes)
	}
	if r.SimulatedCTAs != r.TotalCTAs {
		t.Errorf("simulated %d of %d CTAs", r.SimulatedCTAs, r.TotalCTAs)
	}
}

func TestDRAMAtLeastFootprint(t *testing.T) {
	// Compulsory misses: DRAM traffic covers at least the touched footprint
	// (padded IFmap + filter), within sector rounding.
	r := run(t, testLayer, Config{})
	foot := testLayer.IFmapPaddedBytes() + testLayer.FilterBytes()
	if r.DRAMBytes < foot*0.95 {
		t.Errorf("DRAM %v below compulsory footprint %v", r.DRAMBytes, foot)
	}
}

func TestDRAMNearFootprintWhenL2Fits(t *testing.T) {
	// Whole working set (~105 KB) fits the 3 MB L2: DRAM traffic should be
	// close to one footprint despite the CTA-column re-streaming.
	l := layers.Conv{Name: "fits", B: 2, Ci: 32, Hi: 14, Wi: 14, Co: 256, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	r := run(t, l, Config{})
	foot := l.IFmapPaddedBytes() + l.FilterBytes()
	if ratio := r.DRAMBytes / foot; ratio > 1.6 {
		t.Errorf("L2-resident layer re-read %vx its footprint from DRAM", ratio)
	}
}

func TestColumnRestreamWhenL2Thrashes(t *testing.T) {
	// IFmap (~25 MB) >> L2 (3 MB) and Co=256 gives 2 CTA columns: the
	// second column pass cannot reuse L2 contents, so DRAM IFmap traffic
	// approaches 2 footprints — the Eq. 10 mechanism.
	l := layers.Conv{Name: "stream", B: 32, Ci: 64, Hi: 56, Wi: 56, Co: 256, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	r := run(t, l, Config{})
	if r.Grid.Cols != 2 {
		t.Fatalf("cols = %d, want 2", r.Grid.Cols)
	}
	foot := l.IFmapPaddedBytes()
	if ratio := r.DRAMBytes / foot; ratio < 1.5 {
		t.Errorf("thrashing layer DRAM/footprint = %v, want ~2 (column re-stream)", ratio)
	}
}

func TestL1TrafficMatchesModelOrder(t *testing.T) {
	// The simulator's L1 traffic should land in the same ballpark as the
	// analytical model (the Fig. 11 claim). Allow a generous band here;
	// precise agreement is asserted statistically in the experiments.
	r := run(t, testLayer, Config{})
	e, err := traffic.Model(testLayer, xp, traffic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := e.L1Bytes / r.L1Bytes
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("model/sim L1 ratio = %v (model %v, sim %v)", ratio, e.L1Bytes, r.L1Bytes)
	}
}

func TestL2TrafficMatchesModelOrder(t *testing.T) {
	r := run(t, testLayer, Config{})
	e, err := traffic.Model(testLayer, xp, traffic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := e.L2Bytes / r.L2Bytes
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("model/sim L2 ratio = %v (model %v, sim %v)", ratio, e.L2Bytes, r.L2Bytes)
	}
}

func TestSkipPaddingReducesTraffic(t *testing.T) {
	full := run(t, testLayer, Config{})
	skip := run(t, testLayer, Config{SkipPadding: true})
	if skip.L1Requests > full.L1Requests {
		t.Errorf("skip-padding issued more requests (%d > %d)", skip.L1Requests, full.L1Requests)
	}
	if skip.DRAMBytes >= full.DRAMBytes {
		t.Errorf("skip-padding DRAM %v >= padded %v", skip.DRAMBytes, full.DRAMBytes)
	}
}

func TestEpilogueStores(t *testing.T) {
	r := run(t, testLayer, Config{})
	// Issued store volume covers the OFmap exactly (sector rounding only).
	want := testLayer.OFmapBytes()
	if r.StoreBytes < want || r.StoreBytes > want*1.1 {
		t.Errorf("store bytes = %v, want ~%v", r.StoreBytes, want)
	}
	// Streaming outputs all eventually reach DRAM.
	if r.DRAMWriteBytes < want*0.9 || r.DRAMWriteBytes > want*1.1 {
		t.Errorf("DRAM write bytes = %v, want ~%v", r.DRAMWriteBytes, want)
	}
}

func TestSchedulingAblationMatchesEq10(t *testing.T) {
	// Section IV-C assumes column-wise CTA scheduling, under which each of
	// the grid's CTA columns re-streams the whole IFmap: DRAM traffic ~
	// IFmap * cols + filter (Eq. 10). Row-major order instead shares each
	// IFmap row-band across all columns and re-streams the (small) filter,
	// moving *less* data for IFmap-dominated layers — i.e. Eq. 10 models
	// cuDNN's observed schedule, not an optimal one, and the simulator
	// reproduces exactly that distinction.
	l := layers.Conv{Name: "sched", B: 16, Ci: 128, Hi: 28, Wi: 28, Co: 512, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	col := run(t, l, Config{})
	row := run(t, l, Config{RowMajorScheduling: true})
	if col.Grid.Cols < 4 {
		t.Fatalf("need a multi-column grid, got %d", col.Grid.Cols)
	}
	eq10 := l.IFmapPaddedBytes()*float64(col.Grid.Cols) + l.FilterBytes()
	if r := col.DRAMBytes / eq10; r < 0.7 || r > 1.3 {
		t.Errorf("column-wise DRAM %v vs Eq. 10 %v (ratio %v)", col.DRAMBytes, eq10, r)
	}
	// Row-major keeps the IFmap resident per row band: well below Eq. 10.
	if row.DRAMBytes >= col.DRAMBytes {
		t.Errorf("row-major DRAM %v should undercut column-wise %v on an IFmap-dominated layer",
			row.DRAMBytes, col.DRAMBytes)
	}
	// Both orders issue identical request streams at L1.
	if col.L1Requests != row.L1Requests {
		t.Errorf("L1 requests differ: %d vs %d", col.L1Requests, row.L1Requests)
	}
}

func TestMaxWavesSampling(t *testing.T) {
	l := layers.Conv{Name: "mw", B: 64, Ci: 32, Hi: 28, Wi: 28, Co: 64, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	r := run(t, l, Config{MaxWaves: 1})
	if r.SimulatedCTAs >= r.TotalCTAs {
		t.Fatalf("sampling did not truncate: %d of %d", r.SimulatedCTAs, r.TotalCTAs)
	}
	if r.Scale() <= 1 {
		t.Errorf("scale = %v, want > 1", r.Scale())
	}
}

func TestMissRatesInRange(t *testing.T) {
	r := run(t, testLayer, Config{})
	if mr := r.MissRateL1(); mr <= 0 || mr > 1 {
		t.Errorf("L1 miss rate = %v", mr)
	}
	if mr := r.MissRateL2(); mr <= 0 || mr > 1 {
		t.Errorf("L2 miss rate = %v", mr)
	}
}

func TestPointwiseVsSpatialMissRates(t *testing.T) {
	// 1x1 layers have little intra-tile reuse, so their L1 miss rate should
	// exceed a reuse-heavy 3x3 layer's (the spread of Fig. 4).
	pw := layers.Conv{Name: "pw", B: 4, Ci: 192, Hi: 28, Wi: 28, Co: 64, Hf: 1, Wf: 1, Stride: 1}
	sp := layers.Conv{Name: "sp", B: 4, Ci: 96, Hi: 28, Wi: 28, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	rp := run(t, pw, Config{})
	rs := run(t, sp, Config{})
	if rp.MissRateL1() <= rs.MissRateL1() {
		t.Errorf("1x1 L1 miss rate %v should exceed 3x3's %v", rp.MissRateL1(), rs.MissRateL1())
	}
}

func TestVoltaRequestGranularity(t *testing.T) {
	// The same layer on V100 (32 B requests) must issue more, smaller L1
	// requests but less total L1 request traffic than Pascal's 128 B.
	rx := run(t, testLayer, Config{Device: xp})
	rv := run(t, testLayer, Config{Device: gpu.V100()})
	if rv.L1Requests <= rx.L1Requests {
		t.Errorf("V100 requests %d should exceed Pascal's %d", rv.L1Requests, rx.L1Requests)
	}
	if rv.L1Bytes >= rx.L1Bytes {
		t.Errorf("V100 L1 bytes %v should be below Pascal's %v", rv.L1Bytes, rx.L1Bytes)
	}
}

func TestBatchScalingApproxLinear(t *testing.T) {
	small := run(t, testLayer, Config{})
	big := run(t, testLayer.WithBatch(8), Config{})
	ratio := big.L1Bytes / small.L1Bytes
	if math.Abs(ratio-2) > 0.3 {
		t.Errorf("L1 traffic batch scaling = %v, want ~2", ratio)
	}
}

// TestInvalidInputs: every input a run cannot simulate — including cache
// geometries the cache model would panic on — comes back as an error.
func TestInvalidInputs(t *testing.T) {
	tinyL2 := gpu.V100()
	tinyL2.L2SizeMB = 0.001
	cases := []struct {
		name  string
		layer layers.Conv
		cfg   Config
	}{
		{"invalid layer", layers.Conv{Name: "bad"}, Config{Device: xp}},
		{"zero device", testLayer, Config{}},
		{"L2 rounds to zero sets", testLayer, Config{Device: xp, L2Ways: 100000}},
		{"L2 smaller than one set", testLayer, Config{Device: tinyL2}},
		{"negative L1 ways", testLayer, Config{Device: xp, L1Ways: -1}},
		{"negative L2 ways", testLayer, Config{Device: xp, L2Ways: -1}},
		{"L1 ways beyond its lines", testLayer, Config{Device: xp, L1Ways: 1 << 20}},
		{"set size overflows", testLayer, Config{Device: xp, L2Ways: 1 << 60}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.layer, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestAllocsBounded is the allocation regression guard for the pooled
// engine: with cache backing arrays, chunk buffers, and warp scratch
// reused, a run of the test layer sits around 60 (serial) to 100
// (two workers) allocations — generator, stream-cache slots, worker
// goroutines and result bookkeeping — where the pre-pooling engine paid
// ~10k (one escaped warp buffer per tile-stream call plus fresh cache
// arrays per run). The bound leaves headroom so GC-emptied pools and
// runtime noise cannot flake the test, while still catching any return of
// per-warp or per-run allocation. The parallel case names its worker
// count: testing.AllocsPerRun sets GOMAXPROCS to 1 while it measures, so
// Workers 0 would resolve to the serial engine.
func TestAllocsBounded(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := Config{Device: xp, Workers: workers}
		if _, err := Run(testLayer, cfg); err != nil { // warm the pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Run(testLayer, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 600 {
			t.Errorf("workers=%d: %v allocs/run, want <= 600 (pooling regressed)", workers, allocs)
		}
	}
}

// TestParallelBuffersBounded: the parallel engine records L1 misses one
// chunk of main loops at a time, so the bytes a pass allocates do not grow
// with the layer's loop count. The layer has 288 main loops in one wave of
// 6 CTAs; a pass that buffered the whole wave would allocate about 21 MB
// here, against about 1.5 MB for the serial engine. Not parallel:
// TotalAlloc counts every goroutine of the process, and two GCs empty the
// pools first so both runs start cold.
func TestParallelBuffersBounded(t *testing.T) {
	l := layers.Conv{Name: "deep", B: 1, Ci: 256, Hi: 27, Wi: 27, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	runtime.GC()
	runtime.GC()
	allocated := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, l, Config{Device: xp, Workers: workers})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	serial := allocated(1)
	parallel := allocated(2)
	if parallel > serial+4<<20 {
		t.Errorf("a two-worker pass allocated %d B, the serial pass %d B: want at most 4 MiB more", parallel, serial)
	}
}

// FuzzSimulateDevice: the engine survives every device it accepts. The
// fuzzer sets a Table I device's line, sector and request sizes, SM count,
// L1 and L2 sizes and way counts; whenever Config.Caches accepts them, a
// one-wave serial run of a small layer must not panic, and its traffic
// must flow downhill: the L2 sees at most the sectors the L1 saw, and
// DRAM at most what the L2 saw. The harness skips devices with more than
// 2^18 cache lines in all, so one run stays in the milliseconds; the V100
// has about 70k.
func FuzzSimulateDevice(f *testing.F) {
	tableI := []gpu.Device{gpu.TitanXp(), gpu.P100(), gpu.V100()}
	seed := func(base int, d gpu.Device) {
		f.Add(uint8(base), uint16(d.LineBytes), uint16(d.SectorBytes), uint16(d.L1ReqBytes), uint16(d.NumSM),
			uint16(d.L1SizeKBPerSM), uint16(d.L2SizeMB*1024), uint8(4), uint8(16))
	}
	for i, d := range tableI {
		seed(i, d)
	}
	subSector := gpu.TitanXp()
	subSector.L1ReqBytes = 16 // narrower than its 32 B sector
	seed(0, subSector)

	// K = 27 and N = 48 leave partial filter tiles at both edges, and the
	// stride takes the fused IFmap path only for sectors of 8 B or more.
	l := layers.Conv{Name: "fuzz", B: 4, Ci: 3, Hi: 15, Wi: 15, Co: 48, Hf: 3, Wf: 3, Stride: 2, Pad: 1}
	f.Fuzz(func(t *testing.T, base uint8, line, sector, req, sms, l1KB, l2KB uint16, l1Ways, l2Ways uint8) {
		d := tableI[int(base)%len(tableI)]
		d.LineBytes, d.SectorBytes, d.L1ReqBytes = int(line%1025), int(sector%1025), int(req%1025)
		d.NumSM = int(sms % 129)
		d.L1SizeKBPerSM = float64(l1KB % 257)
		d.L2SizeMB = float64(l2KB%8193) / 1024
		cfg := Config{Device: d, L1Ways: int(l1Ways % 33), L2Ways: int(l2Ways % 65), MaxWaves: 1, Workers: 1}
		l1, l2, err := cfg.Caches()
		if err != nil || d.NumSM*lines(l1)+lines(l2) > 1<<18 {
			return
		}
		r, err := Run(l, cfg)
		if err != nil {
			t.Fatalf("accepted device %+v: %v", d, err)
		}
		if r.L2Bytes > float64(r.L1Stats.SectorAccesses)*float64(d.SectorBytes) || r.DRAMBytes > r.L2Bytes {
			t.Fatalf("traffic grows downhill on %+v: L1 %d sectors, L2 %v B, DRAM %v B",
				d, r.L1Stats.SectorAccesses, r.L2Bytes, r.DRAMBytes)
		}
	})
}

// TestStoreCTAMatchesSectorWrites: the line-batched epilogue leaves the L2
// exactly as one WriteSector per sector would, CTA by CTA, on a grid with
// a partial last column (N % BlkN != 0) and OFmap rows that end mid-line,
// through an L2 small enough to evict dirty lines.
func TestStoreCTAMatchesSectorWrites(t *testing.T) {
	l := layers.Conv{Name: "edges", B: 2, Ci: 3, Hi: 13, Wi: 13, Co: 200, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	d := xp
	d.L2SizeMB = 1.0 / 16
	cfg := Config{Device: d}
	l1, l2, err := cfg.Caches()
	if err != nil {
		t.Fatal(err)
	}
	g := tiling.NewGrid(l)
	s := newSim(l, g, []Config{cfg}, l1, []cache.Config{l2})
	defer s.release()
	ref := cache.New(l2)
	sb := int64(d.SectorBytes)
	for idx := 0; idx < g.NumCTA(); idx++ {
		row, col := s.ctaAt(idx)
		s.storeCTA(&s.l2s[0], row, col)
		n0, nEnd := col*g.Tile.BlkN, min((col+1)*g.Tile.BlkN, g.N)
		for m := row * g.Tile.BlkM; m < (row+1)*g.Tile.BlkM && m < g.M; m++ {
			start := s.ofmapBase + (int64(m)*int64(g.N)+int64(n0))*layers.ElemBytes
			end := s.ofmapBase + (int64(m)*int64(g.N)+int64(nEnd))*layers.ElemBytes
			for sec := start / sb; sec*sb < end; sec++ {
				ref.WriteSector(sec * sb)
			}
		}
		if got, want := s.l2s[0].l2.Stats(), ref.Stats(); got != want {
			t.Fatalf("CTA (%d, %d): L2 %+v, sector by sector %+v", row, col, got, want)
		}
	}
	if got, want := s.l2s[0].l2.FlushDirty(), ref.FlushDirty(); got != want || ref.Stats().LineEvictions == 0 {
		t.Errorf("flushed %d dirty sectors, sector by sector %d (%d evictions)", got, want, ref.Stats().LineEvictions)
	}
}
