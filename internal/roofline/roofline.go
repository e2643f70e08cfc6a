// Package roofline implements the classical roofline model as a second
// baseline alongside the fixed-miss-rate models of package prior: execution
// time is the larger of the arithmetic time (FLOPs over peak throughput)
// and the compulsory-memory time (one read of inputs + weights and one
// write of outputs over DRAM bandwidth).
//
// The roofline ignores every effect DeLTA models — coalescing inefficiency,
// cache-level reuse granularities, CTA scheduling, latency exposure — so it
// bounds how much of DeLTA's accuracy comes from that machinery.
package roofline

import (
	"fmt"
	"math"

	"delta/internal/gpu"
	"delta/internal/layers"
)

// Bound says which roof limits the layer.
type Bound int

const (
	ComputeBound Bound = iota
	MemoryBound
)

func (b Bound) String() string {
	if b == ComputeBound {
		return "compute"
	}
	return "memory"
}

// Result is a roofline prediction.
type Result struct {
	Layer  layers.Conv
	Device string

	Seconds float64
	Bound   Bound

	ArithmeticSeconds float64
	MemorySeconds     float64

	// Intensity is the layer's FLOPs per compulsory byte; Ridge is the
	// device's balance point (FLOPs/s over bytes/s). Intensity above the
	// ridge means compute-bound.
	Intensity float64
	Ridge     float64
}

// Model evaluates the roofline for one layer.
func Model(l layers.Conv, d gpu.Device) (Result, error) {
	if err := l.Validate(); err != nil {
		return Result{}, err
	}
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	flops := l.FLOPs()
	bytes := l.IFmapBytes() + l.FilterBytes() + l.OFmapBytes()

	peakFLOPS := d.MACGFLOPS * 1e9
	peakBytes := d.DRAMBWGBs * 1e9

	r := Result{
		Layer:             l,
		Device:            d.Name,
		ArithmeticSeconds: flops / peakFLOPS,
		MemorySeconds:     bytes / peakBytes,
		Intensity:         flops / bytes,
		Ridge:             peakFLOPS / peakBytes,
	}
	if r.ArithmeticSeconds >= r.MemorySeconds {
		r.Seconds = r.ArithmeticSeconds
		r.Bound = ComputeBound
	} else {
		r.Seconds = r.MemorySeconds
		r.Bound = MemoryBound
	}
	if math.IsInf(r.Seconds, 0) || math.IsNaN(r.Seconds) {
		return Result{}, fmt.Errorf("roofline: layer %q on %q: predicted time %v is not finite", l.Name, d.Name, r.Seconds)
	}
	return r, nil
}
