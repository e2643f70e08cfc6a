package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/tiling"
)

var (
	xp   = gpu.TitanXp()
	v100 = gpu.V100()
)

func mustModel(t *testing.T, l layers.Conv, d gpu.Device, opt Options) Estimate {
	t.Helper()
	e, err := Model(l, d, opt)
	if err != nil {
		t.Fatalf("Model(%s): %v", l.Name, err)
	}
	return e
}

func TestMLIFilterPaperConstants(t *testing.T) {
	// Section IV-A: "MLI_Filter is calculated as 2.0 and 2.75 when blkK is
	// 8 and 4 respectively" for Pascal GPUs (paper calibration).
	if got := MLIFilterForK(8, 0, xp, true); got != 2.0 {
		t.Errorf("MLIFilter(blkK=8, paper) = %v, want 2.0", got)
	}
	if got := MLIFilterForK(4, 0, xp, true); got != 2.75 {
		t.Errorf("MLIFilter(blkK=4, paper) = %v, want 2.75", got)
	}
	// Request-granularity (default, simulator-consistent) values on Pascal:
	// 32/blkK segments, each touching 1+(blkK-1)/32 blocks of 128 B.
	if got := MLIFilterForK(8, 0, xp, false); math.Abs(got-4.875) > 1e-12 {
		t.Errorf("MLIFilter(blkK=8, request) = %v, want 4.875", got)
	}
	if got := MLIFilterForK(4, 0, xp, false); math.Abs(got-8.75) > 1e-12 {
		t.Errorf("MLIFilter(blkK=4, request) = %v, want 8.75", got)
	}
	// Volta's 32 B requests: same either way.
	if got := MLIFilterForK(8, 0, v100, false); math.Abs(got-1.875) > 1e-12 {
		t.Errorf("MLIFilter(blkK=8, V100) = %v, want 1.875", got)
	}
	if got := MLIFilterForK(4, 0, v100, false); math.Abs(got-2.75) > 1e-12 {
		t.Errorf("MLIFilter(blkK=4, V100) = %v, want 2.75", got)
	}
	// The paper flag is a no-op on Volta.
	if MLIFilterForK(8, 0, v100, true) != MLIFilterForK(8, 0, v100, false) {
		t.Error("paper flag changed Volta filter MLI")
	}
}

func TestMLIFilterForKAlignment(t *testing.T) {
	// K a multiple of the request block (in elements): every filter column
	// starts block-aligned, so each 32 B segment needs exactly one block.
	// Pascal, blkK=8: 4 segments x 1 x 128 B / 128 B used = 4.0.
	if got := MLIFilterForK(8, 2304, xp, false); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("aligned Pascal MLI = %v, want 4.0", got)
	}
	// Volta, blkK=8, aligned: 4 segments x 1 x 32 B / 128 B = 1.0.
	if got := MLIFilterForK(8, 2304, v100, false); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("aligned Volta MLI = %v, want 1.0", got)
	}
	// Odd K cycles through all residues: matches the all-alignments average.
	if got, want := MLIFilterForK(8, 363, v100, false), MLIFilterForK(8, 0, v100, false); math.Abs(got-want) > 1e-12 {
		t.Errorf("odd-K MLI = %v, want all-alignment average %v", got, want)
	}
	// K-aware never below the fully aligned floor of 1.
	if got := MLIFilterForK(4, 1024, v100, false); got < 1 {
		t.Errorf("MLI below 1: %v", got)
	}
}

func TestMLIIFmapGranularity(t *testing.T) {
	// A nearly-dense stream (ratio ~1.009) on Pascal's 128 B requests
	// rounds up to 2 whole requests per warp; on Volta's 32 B requests it
	// rounds to ceil(1.009*4)/4 = 1.25.
	l := layers.Conv{Name: "vgg-ish", B: 1, Ci: 1, Hi: 224, Wi: 224, Co: 64, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	if got := MLIIFmap(l, xp); got != 2.0 {
		t.Errorf("Pascal MLI = %v, want 2.0", got)
	}
	if got := MLIIFmap(l, v100); got != 1.25 {
		t.Errorf("Volta MLI = %v, want 1.25", got)
	}
	// A perfectly coalesced pointwise stride-1 stream has MLI exactly 1.
	pw := layers.Conv{Name: "pw", B: 1, Ci: 64, Hi: 56, Wi: 56, Co: 128, Hf: 1, Wf: 1, Stride: 1}
	if got := MLIIFmap(pw, xp); got != 1.0 {
		t.Errorf("pointwise MLI = %v, want 1.0", got)
	}
	if got := MLIIFmap(pw, v100); got != 1.0 {
		t.Errorf("pointwise Volta MLI = %v, want 1.0", got)
	}
}

func TestMLIAlwaysAtLeastOne(t *testing.T) {
	for _, blkK := range []int{4, 8} {
		for _, d := range gpu.All() {
			for _, exact := range []bool{false, true} {
				if got := MLIFilterForK(blkK, 0, d, exact); got < 1 {
					t.Errorf("MLIFilter(%d,%s,%v) = %v < 1", blkK, d.Name, exact, got)
				}
			}
		}
	}
}

func TestPointwiseUniquePerLoop(t *testing.T) {
	// 1x1 conv: every tile element unique -> blkM*blkK elements per loop.
	l := layers.Conv{Name: "pw", B: 256, Ci: 256, Hi: 14, Wi: 14, Co: 1024, Hf: 1, Wf: 1, Stride: 1}
	e := mustModel(t, l, xp, Options{})
	tile := tiling.Select(l.Co)
	want := float64(tile.BlkM * tile.BlkK)
	if e.UniqueIFmapPerLoop != want {
		t.Errorf("unique per loop = %v, want %v", e.UniqueIFmapPerLoop, want)
	}
}

func TestSpatialConvHasReuse(t *testing.T) {
	// A 3x3 conv on a large feature map: unique-per-loop far below the
	// tile's blkM*blkK accesses (the red-box duplication of Fig. 7).
	l := layers.Conv{Name: "sp", B: 256, Ci: 64, Hi: 56, Wi: 56, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	e := mustModel(t, l, xp, Options{})
	tile := tiling.Select(l.Co)
	tileElems := float64(tile.BlkM * tile.BlkK)
	if e.UniqueIFmapPerLoop >= tileElems/2 {
		t.Errorf("unique per loop = %v, want well under %v (high intra-tile reuse)",
			e.UniqueIFmapPerLoop, tileElems)
	}
	if e.UniqueIFmapPerLoop < float64(tile.BlkM) {
		t.Errorf("unique per loop = %v, must cover at least one column (%d)",
			e.UniqueIFmapPerLoop, tile.BlkM)
	}
}

func TestDRAMFilterLoadedOnce(t *testing.T) {
	l := layers.Conv{Name: "f1", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	e := mustModel(t, l, xp, Options{})
	if got, want := e.DRAMFilterBytes, l.FilterBytes(); got != want {
		t.Errorf("DRAM filter bytes = %v, want %v (loaded once)", got, want)
	}
}

func TestDRAMIFmapColumnMultiplicity(t *testing.T) {
	// Co = 384 -> blkN = 128 -> 3 CTA-tile columns -> IFmap streamed 3x.
	l := layers.Conv{Name: "c3", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	e := mustModel(t, l, xp, Options{})
	if e.Grid.Cols != 3 {
		t.Fatalf("cols = %d, want 3", e.Grid.Cols)
	}
	want := l.IFmapPaddedBytes() * 3
	if math.Abs(e.DRAMIFmapBytes-want) > 1e-6 {
		t.Errorf("DRAM IFmap bytes = %v, want %v", e.DRAMIFmapBytes, want)
	}
}

func TestDRAMPointwiseStridedExcludesUnused(t *testing.T) {
	// ResNet downsampling 1x1 stride-2: only Ho*Wo of Hi*Wi positions load.
	l := layers.Conv{Name: "ds", B: 256, Ci: 512, Hi: 28, Wi: 28, Co: 256, Hf: 1, Wf: 1, Stride: 2}
	e := mustModel(t, l, xp, Options{})
	wantPerCol := float64(256*512*14*14) * layers.ElemBytes
	if got := e.DRAMIFmapBytes / float64(e.Grid.Cols); math.Abs(got-wantPerCol) > 1e-6 {
		t.Errorf("per-column DRAM IFmap = %v, want %v", got, wantPerCol)
	}
}

func TestCapacityAwareOption(t *testing.T) {
	// A small layer whose IFmap fits in the 3 MB L2: the ablation collapses
	// the column re-stream; the paper model does not.
	l := layers.Conv{Name: "small", B: 16, Ci: 64, Hi: 14, Wi: 14, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	paper := mustModel(t, l, xp, Options{})
	aware := mustModel(t, l, xp, Options{CapacityAwareDRAM: true})
	if paper.Grid.Cols <= 1 {
		t.Fatal("test layer should span multiple CTA columns")
	}
	if aware.DRAMIFmapBytes >= paper.DRAMIFmapBytes {
		t.Errorf("capacity-aware %v should be below paper %v",
			aware.DRAMIFmapBytes, paper.DRAMIFmapBytes)
	}
	if got, want := paper.DRAMIFmapBytes/aware.DRAMIFmapBytes, float64(paper.Grid.Cols); math.Abs(got-want) > 1e-9 {
		t.Errorf("ratio = %v, want column count %v", got, want)
	}
}

func TestTileOverride(t *testing.T) {
	l := layers.Conv{Name: "ov", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	e := mustModel(t, l, xp, Options{TileOverride: 256})
	if e.Grid.Tile.BlkM != 256 || e.Grid.Tile.BlkN != 256 {
		t.Errorf("tile = %v, want 256x256", e.Grid.Tile)
	}
}

func TestStoreBytes(t *testing.T) {
	l := layers.Conv{Name: "st", B: 32, Ci: 16, Hi: 8, Wi: 8, Co: 48, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	e := mustModel(t, l, xp, Options{})
	if got, want := e.StoreBytes, l.OFmapBytes(); got != want {
		t.Errorf("StoreBytes = %v, want %v", got, want)
	}
}

func TestMissRates(t *testing.T) {
	l := layers.Conv{Name: "mr", B: 64, Ci: 192, Hi: 28, Wi: 28, Co: 96, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	e := mustModel(t, l, xp, Options{})
	if mr := e.MissRateL1(); mr <= 0 || mr > 1 {
		t.Errorf("L1 miss rate = %v, want (0,1]", mr)
	}
	if mr := e.MissRateL2(); mr <= 0 || mr > 1 {
		t.Errorf("L2 miss rate = %v, want (0,1]", mr)
	}
}

func TestInvalidInputsRejected(t *testing.T) {
	if _, err := Model(layers.Conv{Name: "bad"}, xp, Options{}); err == nil {
		t.Error("invalid layer accepted")
	}
	if _, err := Model(layers.Conv{Name: "ok", B: 1, Ci: 1, Hi: 4, Wi: 4, Co: 1, Hf: 1, Wf: 1, Stride: 1}, gpu.Device{}, Options{}); err == nil {
		t.Error("invalid device accepted")
	}
}

func quickLayer(b, ci, hw, co, fs, s, p uint8) layers.Conv {
	f := 1 + 2*(int(fs)%3) // 1, 3, 5
	l := layers.Conv{
		Name: "q",
		B:    1 + int(b)%64,
		Ci:   1 + int(ci)%512,
		Hi:   4 + int(hw)%64,
		Wi:   4 + int(hw)%64,
		Co:   1 + int(co)%512,
		Hf:   f, Wf: f,
		Stride: 1 + int(s)%2,
		Pad:    int(p) % 3,
	}
	return l
}

// TestQuickHierarchyOrdering: for every valid layer/device combination the
// modeled load traffic obeys DRAM <= L2 <= L1 and everything is positive.
func TestQuickHierarchyOrdering(t *testing.T) {
	devs := gpu.All()
	f := func(b, ci, hw, co, fs, s, p, di uint8) bool {
		l := quickLayer(b, ci, hw, co, fs, s, p)
		if l.Validate() != nil {
			return true
		}
		d := devs[int(di)%len(devs)]
		e, err := Model(l, d, Options{})
		if err != nil {
			return false
		}
		return e.DRAMBytes > 0 &&
			e.DRAMBytes <= e.L2Bytes+1e-6 &&
			e.L2Bytes <= e.L1Bytes+1e-6 &&
			e.MLIIFmap >= 1 && e.MLIFilter >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickBatchMonotone: growing the mini-batch never reduces traffic at
// any level.
func TestQuickBatchMonotone(t *testing.T) {
	f := func(b, ci, hw, co, fs, s, p uint8) bool {
		l := quickLayer(b, ci, hw, co, fs, s, p)
		if l.Validate() != nil {
			return true
		}
		small, err := Model(l, xp, Options{})
		if err != nil {
			return false
		}
		big, err := Model(l.WithBatch(l.B*2), xp, Options{})
		if err != nil {
			return false
		}
		return big.L1Bytes >= small.L1Bytes &&
			big.L2Bytes >= small.L2Bytes &&
			big.DRAMBytes >= small.DRAMBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickPerLoopConsistency: per-loop L1/L2 volumes times loop and CTA
// counts stay within a small factor of the totals (edge effects only).
func TestQuickPerLoopConsistency(t *testing.T) {
	f := func(b, ci, hw, co, fs, s, p uint8) bool {
		l := quickLayer(b, ci, hw, co, fs, s, p)
		if l.Validate() != nil {
			return true
		}
		e, err := Model(l, xp, Options{})
		if err != nil {
			return false
		}
		loops := float64(e.Grid.MainLoops())
		ctas := float64(e.Grid.NumCTA())
		recon := e.PerLoopL1Bytes * loops * ctas
		// The reconstruction uses padded tile extents, so it can only be
		// >= the exact-M/N/K total, and within the edge-padding factor.
		pad := 1 / (e.Grid.EdgeEfficiencyM() * e.Grid.EdgeEfficiencyN())
		kPad := loops * float64(e.Grid.Tile.BlkK) / float64(e.Grid.K)
		return recon >= e.L1Bytes-1e-6 && recon <= e.L1Bytes*pad*kPad*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
