package layers

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// paperExample is the worked example of Fig. 5/7: a 4x4 IFmap with pad 1 and
// a 3x3 filter, stride 1.
var paperExample = Conv{
	Name: "fig5", B: 1, Ci: 1, Hi: 4, Wi: 4, Co: 1, Hf: 3, Wf: 3, Stride: 1, Pad: 1,
}

func TestOutputDimsPaperExample(t *testing.T) {
	if got := paperExample.Ho(); got != 4 {
		t.Errorf("Ho = %d, want 4", got)
	}
	if got := paperExample.Wo(); got != 4 {
		t.Errorf("Wo = %d, want 4", got)
	}
	if got := paperExample.HiPad(); got != 6 {
		t.Errorf("HiPad = %d, want 6", got)
	}
}

func TestGEMMDims(t *testing.T) {
	cases := []struct {
		c       Conv
		m, n, k int
	}{
		{paperExample, 16, 1, 9},
		{Conv{Name: "vgg-conv1", B: 256, Ci: 3, Hi: 224, Wi: 224, Co: 64, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
			256 * 224 * 224, 64, 27},
		{Conv{Name: "resnet-5_1_a", B: 256, Ci: 1024, Hi: 14, Wi: 14, Co: 512, Hf: 1, Wf: 1, Stride: 2, Pad: 0},
			256 * 7 * 7, 512, 1024},
		{FC("fc6", 256, 4096, 1000), 256, 1000, 4096},
	}
	for _, tc := range cases {
		m, n, k := tc.c.GEMM()
		if m != tc.m || n != tc.n || k != tc.k {
			t.Errorf("%s: GEMM = (%d,%d,%d), want (%d,%d,%d)", tc.c.Name, m, n, k, tc.m, tc.n, tc.k)
		}
	}
}

func TestValidate(t *testing.T) {
	good := paperExample
	if err := good.Validate(); err != nil {
		t.Fatalf("valid layer rejected: %v", err)
	}
	bad := []Conv{
		{Name: "b0", B: 0, Ci: 1, Hi: 4, Wi: 4, Co: 1, Hf: 1, Wf: 1, Stride: 1},
		{Name: "b1", B: 1, Ci: 0, Hi: 4, Wi: 4, Co: 1, Hf: 1, Wf: 1, Stride: 1},
		{Name: "b2", B: 1, Ci: 1, Hi: 0, Wi: 4, Co: 1, Hf: 1, Wf: 1, Stride: 1},
		{Name: "b3", B: 1, Ci: 1, Hi: 4, Wi: 4, Co: 1, Hf: 0, Wf: 1, Stride: 1},
		{Name: "b4", B: 1, Ci: 1, Hi: 4, Wi: 4, Co: 1, Hf: 1, Wf: 1, Stride: 0},
		{Name: "b5", B: 1, Ci: 1, Hi: 4, Wi: 4, Co: 1, Hf: 1, Wf: 1, Stride: 1, Pad: -1},
		{Name: "b6", B: 1, Ci: 1, Hi: 2, Wi: 2, Co: 1, Hf: 5, Wf: 5, Stride: 1, Pad: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid layer accepted", c.Name)
		}
	}
}

func TestFootprints(t *testing.T) {
	c := Conv{Name: "t", B: 2, Ci: 3, Hi: 5, Wi: 5, Co: 4, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	if got, want := c.IFmapBytes(), float64(2*3*5*5*4); got != want {
		t.Errorf("IFmapBytes = %v, want %v", got, want)
	}
	if got, want := c.IFmapPaddedBytes(), float64(2*3*7*7*4); got != want {
		t.Errorf("IFmapPaddedBytes = %v, want %v", got, want)
	}
	if got, want := c.FilterBytes(), float64(3*3*3*4*4); got != want {
		t.Errorf("FilterBytes = %v, want %v", got, want)
	}
	if got, want := c.OFmapBytes(), float64(2*5*5*4*4); got != want {
		t.Errorf("OFmapBytes = %v, want %v", got, want)
	}
}

func TestMACsAndFLOPs(t *testing.T) {
	m, n, k := paperExample.GEMM()
	want := float64(m) * float64(n) * float64(k)
	if got := paperExample.MACs(); got != want {
		t.Errorf("MACs = %v, want %v", got, want)
	}
	if got := paperExample.FLOPs(); got != 2*want {
		t.Errorf("FLOPs = %v, want %v", got, 2*want)
	}
}

func TestIsPointwise(t *testing.T) {
	if paperExample.IsPointwise() {
		t.Error("3x3 layer reported pointwise")
	}
	if !FC("fc", 1, 8, 8).IsPointwise() {
		t.Error("FC layer not reported pointwise")
	}
}

func TestWithBatch(t *testing.T) {
	c := paperExample.WithBatch(64)
	if c.B != 64 {
		t.Errorf("B = %d, want 64", c.B)
	}
	if paperExample.B != 1 {
		t.Error("WithBatch mutated the receiver")
	}
}

func TestStringContainsName(t *testing.T) {
	if s := paperExample.String(); !strings.Contains(s, "fig5") {
		t.Errorf("String() = %q lacks layer name", s)
	}
}

// clampConv builds an always-valid Conv from arbitrary fuzz inputs.
func clampConv(b, ci, hw, co, f, s, p uint8) Conv {
	c := Conv{
		Name:   "fuzz",
		B:      1 + int(b)%64,
		Ci:     1 + int(ci)%512,
		Hi:     1 + int(hw)%224,
		Wi:     1 + int(hw)%224,
		Co:     1 + int(co)%512,
		Hf:     1 + int(f)%7,
		Wf:     1 + int(f)%7,
		Stride: 1 + int(s)%4,
		Pad:    int(p) % 4,
	}
	if c.Hf > c.Hi+2*c.Pad {
		c.Hf = c.Hi
		c.Wf = c.Wi
	}
	return c
}

func TestQuickGEMMConsistency(t *testing.T) {
	f := func(b, ci, hw, co, fs, s, p uint8) bool {
		c := clampConv(b, ci, hw, co, fs, s, p)
		if c.Validate() != nil {
			return true // skip rare degenerate configs
		}
		m, n, k := c.GEMM()
		if m <= 0 || n <= 0 || k <= 0 {
			return false
		}
		// Output dims reconstructed from M must match Ho*Wo.
		if m != c.B*c.Ho()*c.Wo() {
			return false
		}
		// MACs must equal the triple product and be finite.
		macs := c.MACs()
		return macs == float64(m)*float64(n)*float64(k) && !math.IsInf(macs, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFootprintPositive(t *testing.T) {
	f := func(b, ci, hw, co, fs, s, p uint8) bool {
		c := clampConv(b, ci, hw, co, fs, s, p)
		if c.Validate() != nil {
			return true
		}
		return c.IFmapBytes() > 0 &&
			c.IFmapPaddedBytes() >= c.IFmapBytes() &&
			c.FilterBytes() > 0 &&
			c.OFmapBytes() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBatchLinearity(t *testing.T) {
	f := func(b, ci, hw, co, fs, s, p uint8) bool {
		c := clampConv(b, ci, hw, co, fs, s, p)
		if c.Validate() != nil {
			return true
		}
		d := c.WithBatch(c.B * 2)
		// Doubling the batch doubles M, IFmap bytes, OFmap bytes and MACs,
		// and leaves the filter footprint unchanged.
		m1, _, _ := c.GEMM()
		m2, _, _ := d.GEMM()
		return m2 == 2*m1 &&
			d.IFmapBytes() == 2*c.IFmapBytes() &&
			d.OFmapBytes() == 2*c.OFmapBytes() &&
			d.MACs() == 2*c.MACs() &&
			d.FilterBytes() == c.FilterBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
