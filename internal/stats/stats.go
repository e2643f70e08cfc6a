// Package stats provides the error and distribution statistics the paper
// reports: geometric means, geometric mean absolute error (GMAE), standard
// deviations, and quantile summaries for box-plot style figures.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over no samples.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs))), nil
}

// GeoMean returns the geometric mean. All samples must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: GeoMean requires positive samples")
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// GMAE returns the geometric mean absolute error of a set of
// modeled/measured ratios: exp(mean(|log(ratio)|)) - 1.
//
// A ratio of exactly 1.0 contributes zero error; 1.10 and 0.909 both
// contribute ~10%. This is the "GMAE" headline statistic of Section VII.
func GMAE(ratios []float64) (float64, error) {
	if len(ratios) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, r := range ratios {
		if r <= 0 {
			return 0, errors.New("stats: GMAE requires positive ratios")
		}
		s += math.Abs(math.Log(r))
	}
	return math.Exp(s/float64(len(ratios))) - 1, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Summary is a five-number distribution summary plus moments, the data
// behind the box plots of Fig. 15.
type Summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean, StdDev             float64
	GeoMean                  float64
}

// Summarize computes a Summary. Samples must be positive for GeoMean; a
// non-positive sample leaves GeoMean as zero.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	var s Summary
	s.N = len(xs)
	s.Min, _ = Quantile(xs, 0)
	s.Q1, _ = Quantile(xs, 0.25)
	s.Median, _ = Quantile(xs, 0.5)
	s.Q3, _ = Quantile(xs, 0.75)
	s.Max, _ = Quantile(xs, 1)
	s.Mean, _ = Mean(xs)
	s.StdDev, _ = StdDev(xs)
	if g, err := GeoMean(xs); err == nil {
		s.GeoMean = g
	}
	return s, nil
}

// FilterOutliers removes ratios beyond the given multiplicative bound
// (e.g. 2.0 drops ratios above 2x or below 0.5x), mirroring the paper's
// exclusion of anomalous profiler measurements (Section VII-A). It returns
// the kept samples and the number dropped.
func FilterOutliers(ratios []float64, bound float64) (kept []float64, dropped int) {
	for _, r := range ratios {
		if r > bound || r < 1/bound {
			dropped++
			continue
		}
		kept = append(kept, r)
	}
	return kept, dropped
}
