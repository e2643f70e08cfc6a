package im2col

import (
	"math"
	"testing"
	"testing/quick"

	"delta/internal/layers"
)

// fig5 is the paper's worked example: 4x4 IFmap, pad 1 (6x6 padded), 3x3
// filter, stride 1. Fig. 5a numbers the padded elements 0..35 row-major and
// shows column 0 of the IFmap matrix as 0,1,2,3, 6,7,8,9, 12,13,14,15, 18...
var fig5 = layers.Conv{
	Name: "fig5", B: 1, Ci: 1, Hi: 4, Wi: 4, Co: 1, Hf: 3, Wf: 3, Stride: 1, Pad: 1,
}

func TestFig5ColumnZero(t *testing.T) {
	mt := New(fig5)
	want := []int64{0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15, 18}
	got := make([]int64, len(want))
	mt.ColumnAddresses(0, 0, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("column 0 addresses = %v, want %v", got, want)
		}
	}
}

func TestFig5AdjacentColumnDistance(t *testing.T) {
	mt := New(fig5)
	// Paper Section IV-B: distance between two adjacent columns in the same
	// Wf range is 1 (they are traversals of adjacent filter taps)...
	if d := mt.Address(0, 1) - mt.Address(0, 0); d != 1 {
		t.Errorf("intra-Wf column distance = %d, want 1", d)
	}
	// ...and the distance between columns in different Wf ranges is
	// Wi + 2*Pad - Wf + 1 = 4.
	if d := mt.Address(0, 3) - mt.Address(0, 2); d != 4 {
		t.Errorf("inter-Wf column distance = %d, want 4", d)
	}
}

func TestFig5RowSkipPattern(t *testing.T) {
	mt := New(fig5)
	// Walking down a column, Wf-1 = 2 elements are skipped every
	// Wi + 2*Pad - Wf + 1 = 4 elements (Fig. 5a).
	for i := 0; i < 3; i++ {
		if d := mt.Address(i+1, 0) - mt.Address(i, 0); d != 1 {
			t.Errorf("row %d step = %d, want 1", i, d)
		}
	}
	if d := mt.Address(4, 0) - mt.Address(3, 0); d != 3 {
		t.Errorf("output-row boundary step = %d, want 3 (skip Wf-1=2)", d)
	}
}

func TestDecodePadDetection(t *testing.T) {
	mt := New(fig5)
	// (row 0, col 0) is the top-left padded corner -> pad element.
	if !mt.IsPad(0, 0) {
		t.Error("(0,0) should be padding")
	}
	// Center tap of the filter at output (1,1) is input (2,2) -> real.
	// row = y*Wo + x = 1*4+1 = 5; col = r*Wf+s = 1*3+1 = 4.
	if mt.IsPad(5, 4) {
		t.Error("(5,4) should be a real element")
	}
}

func TestAddressBounds(t *testing.T) {
	l := layers.Conv{Name: "b", B: 3, Ci: 5, Hi: 9, Wi: 11, Co: 7, Hf: 3, Wf: 3, Stride: 2, Pad: 1}
	mt := New(l)
	m, _, k := mt.Dims()
	max := mt.PaddedElems()
	for row := 0; row < m; row += 7 {
		for col := 0; col < k; col += 3 {
			a := mt.Address(row, col)
			if a < 0 || a >= max {
				t.Fatalf("address %d out of [0,%d) at (%d,%d)", a, max, row, col)
			}
		}
	}
}

func TestStrideTwoSampling(t *testing.T) {
	// 1x1 stride-2 conv: consecutive rows within one output row are 2 apart.
	l := layers.Conv{Name: "s2", B: 1, Ci: 1, Hi: 8, Wi: 8, Co: 1, Hf: 1, Wf: 1, Stride: 2, Pad: 0}
	mt := New(l)
	if d := mt.Address(1, 0) - mt.Address(0, 0); d != 2 {
		t.Errorf("stride-2 step = %d, want 2", d)
	}
	// Crossing an output row jumps a full input row pair: from (0, 6) to (2, 0).
	wo := l.Wo()
	if d := mt.Address(wo, 0) - mt.Address(wo-1, 0); d != 2*8-6 {
		t.Errorf("row-crossing step = %d, want %d", d, 2*8-6)
	}
}

func TestFilterMatrixLayout(t *testing.T) {
	l := layers.Conv{Name: "f", B: 1, Ci: 4, Hi: 8, Wi: 8, Co: 16, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	f := NewFilter(l)
	if f.K != 36 || f.N != 16 {
		t.Fatalf("filter dims = (%d,%d), want (36,16)", f.K, f.N)
	}
	// Contiguous down a column...
	if d := f.Address(1, 0) - f.Address(0, 0); d != 1 {
		t.Errorf("K-direction step = %d, want 1", d)
	}
	// ...columns K elements apart.
	if d := f.Address(0, 1) - f.Address(0, 0); d != 36 {
		t.Errorf("N-direction step = %d, want 36", d)
	}
}

func TestRequestRatio(t *testing.T) {
	cases := []struct {
		l    layers.Conv
		want float64
	}{
		{fig5, 6.0 / 4.0},
		// 1x1 stride 1: perfectly coalesced.
		{layers.Conv{B: 1, Ci: 1, Hi: 14, Wi: 14, Co: 1, Hf: 1, Wf: 1, Stride: 1}, 1},
		// 1x1 stride 2: half the elements skipped.
		{layers.Conv{B: 1, Ci: 1, Hi: 14, Wi: 14, Co: 1, Hf: 1, Wf: 1, Stride: 2}, 2},
		// Large feature, 3x3 pad 1: ratio just over 1.
		{layers.Conv{B: 1, Ci: 1, Hi: 224, Wi: 224, Co: 1, Hf: 3, Wf: 3, Stride: 1, Pad: 1}, 226.0 / 224.0},
	}
	for _, tc := range cases {
		if got := RequestRatio(tc.l); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("RequestRatio(%v) = %v, want %v", tc.l, got, tc.want)
		}
	}
}

func randLayer(b, ci, hw, co, fs, s, p uint8) layers.Conv {
	l := layers.Conv{
		Name: "q", B: 1 + int(b)%4, Ci: 1 + int(ci)%8,
		Hi: 3 + int(hw)%30, Wi: 3 + int(hw)%30,
		Co: 1 + int(co)%8, Hf: 1 + int(fs)%3, Wf: 1 + int(fs)%3,
		Stride: 1 + int(s)%2, Pad: int(p) % 2,
	}
	return l
}

// TestQuickAddressMatchesNaive cross-checks the closed-form Address against
// a from-scratch recomputation through Decode.
func TestQuickAddressMatchesNaive(t *testing.T) {
	f := func(b, ci, hw, co, fs, s, p uint8, rowSeed, colSeed uint16) bool {
		l := randLayer(b, ci, hw, co, fs, s, p)
		if l.Validate() != nil {
			return true
		}
		mt := New(l)
		m, _, k := mt.Dims()
		row := int(rowSeed) % m
		col := int(colSeed) % k
		c := mt.Decode(row, col)
		naive := ((int64(c.B)*int64(l.Ci)+int64(c.C))*int64(l.HiPad())+int64(c.Y))*int64(l.WiPad()) + int64(c.X)
		return mt.Address(row, col) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickColumnMonotone: addresses strictly increase down any column
// (the property DIST_V estimation relies on).
func TestQuickColumnMonotone(t *testing.T) {
	f := func(b, ci, hw, co, fs, s, p uint8, colSeed uint16) bool {
		l := randLayer(b, ci, hw, co, fs, s, p)
		if l.Validate() != nil {
			return true
		}
		mt := New(l)
		m, _, k := mt.Dims()
		col := int(colSeed) % k
		prev := mt.Address(0, col)
		for row := 1; row < m; row++ {
			a := mt.Address(row, col)
			if a <= prev {
				return false
			}
			prev = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickPadFraction: every pad coordinate decoded as pad lies outside the
// real image, and a stride-1 layer with no padding never reports pad.
func TestQuickNoPadWithoutPadding(t *testing.T) {
	f := func(b, ci, hw, co, fs uint8, rowSeed, colSeed uint16) bool {
		l := randLayer(b, ci, hw, co, fs, 0, 0)
		l.Pad = 0
		if l.Validate() != nil {
			return true
		}
		mt := New(l)
		m, _, k := mt.Dims()
		return !mt.IsPad(int(rowSeed)%m, int(colSeed)%k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickColumnIterMatchesAddress: the incremental iterator reproduces the
// closed-form Address and IsPad at every row of any column, from any start.
func TestQuickColumnIterMatchesAddress(t *testing.T) {
	f := func(b, ci, hw, co, fs, s, p uint8, rowSeed, colSeed uint16) bool {
		l := randLayer(b, ci, hw, co, fs, s, p)
		if l.Validate() != nil {
			return true
		}
		mt := New(l)
		m, _, k := mt.Dims()
		col := int(colSeed) % k
		row0 := int(rowSeed) % m
		it := mt.ColumnIter(col, row0)
		for row := row0; row < m; row++ {
			if it.Addr() != mt.Address(row, col) {
				t.Logf("%s: addr(%d,%d) = %d, want %d", l.Name, row, col, it.Addr(), mt.Address(row, col))
				return false
			}
			if it.IsPad() != mt.IsPad(row, col) {
				t.Logf("%s: pad(%d,%d) = %v, want %v", l.Name, row, col, it.IsPad(), mt.IsPad(row, col))
				return false
			}
			it.Advance()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestColumnIterStrideTwoWithPad(t *testing.T) {
	// Deterministic spot check on a geometry that exercises every wrap: 3x3
	// stride-2 filter with padding over a batch of 2.
	l := layers.Conv{Name: "s2p", B: 2, Ci: 3, Hi: 9, Wi: 7, Co: 4, Hf: 3, Wf: 3, Stride: 2, Pad: 1}
	mt := New(l)
	m, _, k := mt.Dims()
	for col := 0; col < k; col++ {
		it := mt.ColumnIter(col, 0)
		for row := 0; row < m; row++ {
			if it.Addr() != mt.Address(row, col) || it.IsPad() != mt.IsPad(row, col) {
				t.Fatalf("iter diverged at (%d,%d): addr %d/%d pad %v/%v",
					row, col, it.Addr(), mt.Address(row, col), it.IsPad(), mt.IsPad(row, col))
			}
			it.Advance()
		}
	}
}

func BenchmarkAddress(b *testing.B) {
	mt := New(layers.Conv{Name: "bench", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1})
	m, _, k := mt.Dims()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += mt.Address(i%m, i%k)
	}
	_ = sink
}

func BenchmarkColumnAddresses(b *testing.B) {
	mt := New(layers.Conv{Name: "bench", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1})
	m, _, _ := mt.Dims()
	dst := make([]int64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.ColumnAddresses(0, (i*32)%(m-32), dst)
	}
}

// TestAdvanceRunMatchesAdvance: stepping a column run by run (the fused
// trace-generation path) must visit exactly the states that element-wise
// Advance does at the same rows — address and padding test alike.
func TestAdvanceRunMatchesAdvance(t *testing.T) {
	cases := []layers.Conv{
		{Name: "s1", B: 2, Ci: 4, Hi: 12, Wi: 12, Co: 48, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
		{Name: "s2", B: 2, Ci: 3, Hi: 27, Wi: 27, Co: 32, Hf: 5, Wf: 5, Stride: 2, Pad: 2},
		{Name: "nopad", B: 1, Ci: 2, Hi: 9, Wi: 9, Co: 8, Hf: 3, Wf: 3, Stride: 1},
		{Name: "pw", B: 3, Ci: 6, Hi: 7, Wi: 7, Co: 16, Hf: 1, Wf: 1, Stride: 1},
	}
	for _, l := range cases {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		mt := New(l)
		m, _, k := mt.Dims()
		for _, col := range []int{0, k / 2, k - 1} {
			ref := mt.ColumnIter(col, 0)
			fast := mt.ColumnIter(col, 0)
			row := 0
			for row < m {
				run := fast.RunLen()
				if run < 1 {
					t.Fatalf("%s col %d row %d: RunLen %d", l.Name, col, row, run)
				}
				if row+run > m {
					run = m - row
				}
				// Check every element of the run against the reference,
				// then jump the fast iterator over it in one step.
				probe := fast
				for j := 0; j < run; j++ {
					if probe.Addr() != ref.Addr() || probe.IsPad() != ref.IsPad() {
						t.Fatalf("%s col %d row %d+%d: fast (%d,%v) vs ref (%d,%v)",
							l.Name, col, row, j, probe.Addr(), probe.IsPad(), ref.Addr(), ref.IsPad())
					}
					probe.Advance()
					ref.Advance()
				}
				fast.AdvanceRun(run)
				if fast.Addr() != ref.Addr() || fast.IsPad() != ref.IsPad() {
					t.Fatalf("%s col %d after run at row %d: fast (%d,%v) vs ref (%d,%v)",
						l.Name, col, row, fast.Addr(), fast.IsPad(), ref.Addr(), ref.IsPad())
				}
				row += run
			}
		}
	}
}
