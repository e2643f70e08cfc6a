package tiling

import (
	"testing"
	"testing/quick"

	"delta/internal/gpu"
	"delta/internal/layers"
)

func TestSelectStaircase(t *testing.T) {
	cases := []struct {
		co         int
		blkN, blkK int
	}{
		{1, 32, 4}, {16, 32, 4}, {32, 32, 4},
		{33, 64, 4}, {64, 64, 4},
		{65, 128, 8}, {96, 128, 8}, {128, 128, 8}, {384, 128, 8}, {2048, 128, 8},
	}
	for _, tc := range cases {
		tile := Select(tc.co)
		if tile.BlkN != tc.blkN || tile.BlkK != tc.blkK {
			t.Errorf("Select(%d) = %v, want blkN=%d blkK=%d", tc.co, tile, tc.blkN, tc.blkK)
		}
		if tile.BlkM != 128 {
			t.Errorf("Select(%d): blkM = %d, want 128 (paper fixes blkM)", tc.co, tile.BlkM)
		}
	}
}

func TestSelectWithDim(t *testing.T) {
	if tl := SelectWithDim(384, 256); tl.BlkM != 256 || tl.BlkN != 256 {
		t.Errorf("256 override = %v", tl)
	}
	if tl := SelectWithDim(384, 0); tl != Select(384) {
		t.Errorf("dim 0 should be stock lookup")
	}
	if tl := SelectWithDim(384, 128); tl != Select(384) {
		t.Errorf("dim 128 should be stock lookup")
	}
}

func TestTileGeometry(t *testing.T) {
	tl := Select(128) // (128x128)x8
	if got := tl.Warps(); got != 8 {
		t.Errorf("warps = %d, want 8 (64x32 warp tiles)", got)
	}
	if got := tl.Threads(); got != 256 {
		t.Errorf("threads = %d, want 256", got)
	}
	// Double-buffered SMEM: (128+128)*8*4*2 = 16384 B.
	if got := tl.SMEMBytes(); got != 16384 {
		t.Errorf("SMEM bytes = %v, want 16384", got)
	}
	// Register bytes: 256 threads * 120 regs * 4 B = 122880.
	if got := tl.RegBytes(); got != 122880 {
		t.Errorf("reg bytes = %v, want 122880", got)
	}
}

func TestGridCounts(t *testing.T) {
	l := layers.Conv{Name: "g", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	g := NewGrid(l)
	m, n, k := l.GEMM() // M = 256*13*13 = 43264, N = 128, K = 2304
	if g.M != m || g.N != n || g.K != k {
		t.Fatalf("grid dims (%d,%d,%d) != GEMM (%d,%d,%d)", g.M, g.N, g.K, m, n, k)
	}
	if g.Rows != 338 { // ceil(43264/128)
		t.Errorf("rows = %d, want 338", g.Rows)
	}
	if g.Cols != 1 {
		t.Errorf("cols = %d, want 1", g.Cols)
	}
	if g.NumCTA() != 338 {
		t.Errorf("NumCTA = %d", g.NumCTA())
	}
	if g.MainLoops() != 288 { // 2304/8
		t.Errorf("main loops = %d, want 288", g.MainLoops())
	}
}

func TestActiveCTAsTitanXp(t *testing.T) {
	// 128x128 kernel: reg-limited to 2 CTAs on a 256 KB RF
	// (256KB / 122880B = 2.13), SMEM would allow 6 on 96 KB.
	l := layers.Conv{Name: "a", B: 256, Ci: 64, Hi: 56, Wi: 56, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	g := NewGrid(l)
	d := gpu.TitanXp()
	if got := g.ActiveCTAs(d); got != 2 {
		t.Errorf("active CTAs = %d, want 2 (register-limited)", got)
	}
}

func TestActiveCTAsNeverZeroAndCapped(t *testing.T) {
	// A tiny GEMM cannot have more active CTAs than CTAs per SM.
	l := layers.Conv{Name: "tiny", B: 1, Ci: 16, Hi: 7, Wi: 7, Co: 32, Hf: 1, Wf: 1, Stride: 1}
	g := NewGrid(l)
	d := gpu.TitanXp()
	if got := g.ActiveCTAs(d); got != 1 {
		t.Errorf("active CTAs = %d, want 1 (only %d CTAs on %d SMs)", got, g.NumCTA(), d.NumSM)
	}
}

func TestCTAsOnBusiestSM(t *testing.T) {
	l := layers.Conv{Name: "b", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	g := NewGrid(l)
	d := gpu.TitanXp() // 30 SMs, 338 CTAs -> ceil = 12
	if got := g.CTAsOnBusiestSM(d); got != 12 {
		t.Errorf("busiest SM CTAs = %d, want 12", got)
	}
}

func TestEdgeEfficiency(t *testing.T) {
	// M = 43264 over 338 rows of 128 = 43264/43264 = 1.0 exactly.
	l := layers.Conv{Name: "e", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 100, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	g := NewGrid(l)
	if e := g.EdgeEfficiencyM(); e != 1.0 {
		t.Errorf("M edge efficiency = %v, want 1.0", e)
	}
	// N = 100 on a 128-wide tile: 100/128.
	if e := g.EdgeEfficiencyN(); e != 100.0/128.0 {
		t.Errorf("N edge efficiency = %v", e)
	}
}

func TestProfileTileWidthMatchesFig6(t *testing.T) {
	w := ProfileTileWidth(384)
	if w[0] != 32 || w[31] != 32 || w[32] != 64 || w[63] != 64 || w[64] != 128 || w[383] != 128 {
		t.Errorf("staircase wrong: w[0]=%d w[32]=%d w[64]=%d", w[0], w[32], w[64])
	}
}

// TestSMEMFits: a tile's double-buffered SMEM allocation fits the
// device, so occupancy's SMEM limit never reaches zero.
func TestSMEMFits(t *testing.T) {
	xp := gpu.TitanXp()
	if got := Select(128).SMEMBytes(); got > xp.SMEMBytesPerSM() {
		t.Errorf("stock tile needs %v B of SMEM, TITAN Xp has %v", got, xp.SMEMBytesPerSM())
	}
	big := SelectWithDim(128, 256)
	if got := big.SMEMBytes(); got != (256+256)*8*4*2 {
		t.Errorf("256 tile SMEM = %v B, want 32768", got)
	}
	if got := big.SMEMBytes(); got > xp.SMEMBytesPerSM() {
		t.Errorf("256 tile needs %v B of SMEM, TITAN Xp has %v", got, xp.SMEMBytesPerSM())
	}
}

func TestQuickGridInvariants(t *testing.T) {
	f := func(b, ci, hw, co, fs uint8) bool {
		l := layers.Conv{
			Name: "q", B: 1 + int(b)%32, Ci: 1 + int(ci)%256,
			Hi: 5 + int(hw)%60, Wi: 5 + int(hw)%60,
			Co: 1 + int(co)%512, Hf: 1 + 2*(int(fs)%3), Wf: 1 + 2*(int(fs)%3),
			Stride: 1, Pad: int(fs) % 2,
		}
		if l.Validate() != nil {
			return true
		}
		g := NewGrid(l)
		d := gpu.TitanXp()
		// Grid covers the GEMM exactly.
		if g.Rows*g.Tile.BlkM < g.M || g.Cols*g.Tile.BlkN < g.N {
			return false
		}
		if (g.Rows-1)*g.Tile.BlkM >= g.M || (g.Cols-1)*g.Tile.BlkN >= g.N {
			return false
		}
		// Occupancy sane.
		a := g.ActiveCTAs(d)
		if a < 1 || a > d.MaxCTAPerSM {
			return false
		}
		// Busiest SM holds at least the average CTA share.
		return g.CTAsOnBusiestSM(d)*d.NumSM >= g.NumCTA()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickActiveCTAsMonotoneInResources(t *testing.T) {
	// Doubling both REG and SMEM never reduces occupancy.
	f := func(co uint8) bool {
		l := layers.Conv{Name: "q", B: 64, Ci: 64, Hi: 28, Wi: 28,
			Co: 1 + int(co), Hf: 3, Wf: 3, Stride: 1, Pad: 1}
		if l.Validate() != nil {
			return true
		}
		g := NewGrid(l)
		base := gpu.TitanXp()
		bigger := (gpu.Scale{RegPerSM: 2, SMEMPerSM: 2}).Apply(base)
		return g.ActiveCTAs(bigger) >= g.ActiveCTAs(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
