package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || !almost(m, 5) {
		t.Errorf("Mean = %v, %v", m, err)
	}
	sd, err := StdDev(xs)
	if err != nil || !almost(sd, 2) {
		t.Errorf("StdDev = %v, %v", sd, err)
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4, 16})
	if err != nil || !almost(g, 4) {
		t.Errorf("GeoMean = %v, %v", g, err)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("negative sample accepted")
	}
	if _, err := GeoMean(nil); err != ErrEmpty {
		t.Error("empty sample set accepted")
	}
}

func TestGMAE(t *testing.T) {
	// Perfect predictions: zero error.
	g, err := GMAE([]float64{1, 1, 1})
	if err != nil || !almost(g, 0) {
		t.Errorf("GMAE(ones) = %v, %v", g, err)
	}
	// Symmetric: 2x over and 2x under give the same error.
	over, _ := GMAE([]float64{2})
	under, _ := GMAE([]float64{0.5})
	if !almost(over, under) {
		t.Errorf("GMAE asymmetric: %v vs %v", over, under)
	}
	if !almost(over, 1) {
		t.Errorf("GMAE(2x) = %v, want 1 (100%%)", over)
	}
	// A 10% ratio error reads as ~10%.
	g10, _ := GMAE([]float64{1.10})
	if math.Abs(g10-0.10) > 0.005 {
		t.Errorf("GMAE(1.10) = %v, want ~0.10", g10)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	med, err := Quantile(xs, 0.5)
	if err != nil || !almost(med, 3) {
		t.Errorf("median = %v, %v", med, err)
	}
	min, _ := Quantile(xs, 0)
	max, _ := Quantile(xs, 1)
	if min != 1 || max != 5 {
		t.Errorf("min/max = %v/%v", min, max)
	}
	q, _ := Quantile([]float64{0, 10}, 0.25)
	if !almost(q, 2.5) {
		t.Errorf("interpolated quantile = %v, want 2.5", q)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Min != 1 || s.Max != 4 || !almost(s.Median, 2.5) {
		t.Errorf("summary = %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Error("empty summary accepted")
	}
}

func TestFilterOutliers(t *testing.T) {
	kept, dropped := FilterOutliers([]float64{0.9, 1.1, 3.0, 0.2}, 2.0)
	if dropped != 2 || len(kept) != 2 {
		t.Errorf("kept %v dropped %d", kept, dropped)
	}
}

func TestQuickGMAEBounds(t *testing.T) {
	// GMAE is non-negative and zero only for all-ones.
	f := func(seeds []uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		rs := make([]float64, len(seeds))
		for i, s := range seeds {
			rs[i] = 0.5 + float64(s)/255.0 // 0.5 .. 1.5
		}
		g, err := GMAE(rs)
		return err == nil && g >= 0 && g < 1.1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seeds []uint8) bool {
		if len(seeds) < 2 {
			return true
		}
		xs := make([]float64, len(seeds))
		for i, s := range seeds {
			xs[i] = float64(s)
		}
		q25, _ := Quantile(xs, 0.25)
		q50, _ := Quantile(xs, 0.5)
		q75, _ := Quantile(xs, 0.75)
		return q25 <= q50 && q50 <= q75
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
