package scenario

import (
	"math"
	"testing"

	"delta/internal/gpu"
)

func TestSplitSpanExactCover(t *testing.T) {
	for _, tc := range []struct{ start, count, n int }{
		{0, 1, 1}, {0, 10, 3}, {0, 10, 10}, {5, 7, 2}, {100, 1, 8},
		{0, 64, 16}, {3, 1000, 7},
	} {
		rs := SplitSpan(tc.start, tc.count, tc.n)
		want := tc.n
		if tc.count < want {
			want = tc.count
		}
		if len(rs) != want {
			t.Errorf("SplitSpan(%d,%d,%d): %d ranges, want %d", tc.start, tc.count, tc.n, len(rs), want)
		}
		next := tc.start
		for i, r := range rs {
			if r.Count <= 0 {
				t.Errorf("SplitSpan(%d,%d,%d): range %d empty (%+v)", tc.start, tc.count, tc.n, i, r)
			}
			if r.Offset != next {
				t.Errorf("SplitSpan(%d,%d,%d): range %d starts at %d, want %d (gap or overlap)",
					tc.start, tc.count, tc.n, i, r.Offset, next)
			}
			next = r.End()
		}
		if next != tc.start+tc.count {
			t.Errorf("SplitSpan(%d,%d,%d): cover ends at %d, want %d", tc.start, tc.count, tc.n, next, tc.start+tc.count)
		}
	}
}

func TestSplitSpanDegenerate(t *testing.T) {
	if rs := SplitSpan(0, 0, 4); rs != nil {
		t.Errorf("empty span: got %v, want nil", rs)
	}
	if rs := SplitSpan(7, -3, 4); rs != nil {
		t.Errorf("negative span: got %v, want nil", rs)
	}
	// n < 1 collapses to one range covering the whole span.
	rs := SplitSpan(2, 5, 0)
	if len(rs) != 1 || rs[0] != (Range{Offset: 2, Count: 5}) {
		t.Errorf("n=0: got %v, want one full range", rs)
	}
}

// TestSizeCheckedOverflow exercises the saturating arithmetic behind
// Size/SizeChecked. A scenario whose cross-product actually overflows int
// would need multi-gigabyte axis slices, so the helpers are checked
// directly and the sentinel behavior at the Size level is pinned through
// them.
func TestSizeCheckedOverflow(t *testing.T) {
	if got := mulCap(math.MaxInt/2, 3); got != math.MaxInt {
		t.Errorf("mulCap overflow: got %d, want MaxInt", got)
	}
	if got := mulCap(math.MaxInt, 1); got != math.MaxInt {
		t.Errorf("mulCap identity at MaxInt: got %d", got)
	}
	if got := mulCap(0, math.MaxInt); got != 0 {
		t.Errorf("mulCap zero: got %d", got)
	}
	if got := mulCap(1<<31, 1<<31); got != 1<<62 {
		t.Errorf("mulCap 2^62 square: got %d, want %d", got, 1<<62)
	}
	if got := mulCap(1<<32, 1<<32); got != math.MaxInt {
		t.Errorf("mulCap 2^64 square: got %d, want MaxInt", got)
	}
	if got := mulCap(1<<20, 1<<20); got != 1<<40 {
		t.Errorf("mulCap in range: got %d, want %d", got, 1<<40)
	}
	if got := addCap(math.MaxInt, 1); got != math.MaxInt {
		t.Errorf("addCap overflow: got %d, want MaxInt", got)
	}
	if got := addCap(40, 2); got != 42 {
		t.Errorf("addCap in range: got %d", got)
	}
}

// TestSizeCheckedMatchesExpand pins SizeChecked against the ground truth
// on a realistic multi-axis scenario.
func TestSizeCheckedMatchesExpand(t *testing.T) {
	sc := Scenario{
		Name:      "sz",
		Workloads: []Workload{{Name: "alexnet"}, {Name: "googlenet"}},
		Devices:   []gpu.Device{gpu.TitanXp(), gpu.V100()},
		Batches:   []int{1, 32},
		Models:    []string{ModelDelta, ModelPrior},
		Passes:    []string{PassInference, PassTraining},
	}
	n, err := sc.SizeChecked()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pts) || n != sc.Size() {
		t.Fatalf("SizeChecked %d, Size %d, Expand %d", n, sc.Size(), len(pts))
	}
}
