// Package explore turns DeLTA into the design-space exploration tool the
// paper's conclusion describes: "using DeLTA and a model of hardware
// resource costs, optimizing a future GPU for CNNs becomes a convex
// optimization problem."
//
// It enumerates grids of independent resource scalings (gpu.Scale), prices
// each candidate with a simple silicon cost model, evaluates a workload's
// predicted speedup with the analytical model, and extracts the Pareto
// frontier of (cost, speedup).
package explore

import (
	"fmt"
	"math"
	"sort"

	"delta/internal/cnn"
	"delta/internal/gpu"
	"delta/internal/perf"
	"delta/internal/traffic"
)

// CostModel prices a scaled device relative to the baseline (baseline cost
// is 1.0 by construction). Weights express the fraction of the baseline's
// silicon/power budget each resource class represents; scaling a resource
// by x multiplies its share by x. Weights should sum to ~1.
type CostModel struct {
	SMWeight   float64 // per-SM logic (MACs, scheduler, LSU)
	RegWeight  float64 // register files
	SMEMWeight float64 // shared memory arrays + datapath
	L1Weight   float64 // L1 caches
	L2Weight   float64 // L2 arrays + bandwidth wiring
	DRAMWeight float64 // memory PHY + devices
}

// DefaultCostModel returns a coarse area/power split for a Pascal-class
// GPU: compute-heavy die, significant RF, memory system around a quarter.
func DefaultCostModel() CostModel {
	return CostModel{
		SMWeight:   0.40,
		RegWeight:  0.15,
		SMEMWeight: 0.08,
		L1Weight:   0.07,
		L2Weight:   0.12,
		DRAMWeight: 0.18,
	}
}

func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// Cost returns the relative hardware cost of a scaled device. NumSM scaling
// multiplies every per-SM resource; MAC/REG/SMEM/L1 scalings are per-SM.
func (c CostModel) Cost(s gpu.Scale) float64 {
	sm := orOne(s.NumSM)
	perSM := c.SMWeight*orOne(s.MACPerSM) +
		c.RegWeight*orOne(s.RegPerSM) +
		c.SMEMWeight*orOne(s.SMEMPerSM)*orOne(s.SMEMBW) +
		c.L1Weight*orOne(s.L1BW)
	return sm*perSM + c.L2Weight*orOne(s.L2BW) + c.DRAMWeight*orOne(s.DRAMBW)
}

// Candidate is one evaluated design point.
type Candidate struct {
	Scale   gpu.Scale
	Cost    float64 // relative to baseline (1.0)
	Speedup float64 // workload speedup over baseline
}

// Efficiency returns speedup per unit cost.
func (c Candidate) Efficiency() float64 { return c.Speedup / c.Cost }

func (c Candidate) String() string {
	return fmt.Sprintf("cost %.2f, speedup %.2fx (%.2fx/cost)", c.Cost, c.Speedup, c.Efficiency())
}

// Axes defines the grid of scalings to enumerate. Empty axes mean "1x only".
type Axes struct {
	NumSM    []float64
	MACPerSM []float64
	MemBW    []float64 // applied to L2 and DRAM bandwidth together
	SMLocal  []float64 // applied to REG, SMEM (size+BW), and L1 BW together
}

// DefaultAxes spans the neighborhood of the paper's design options.
func DefaultAxes() Axes {
	return Axes{
		NumSM:    []float64{1, 2},
		MACPerSM: []float64{1, 2, 4, 8},
		MemBW:    []float64{1, 1.5, 2, 3},
		SMLocal:  []float64{1, 2, 3},
	}
}

func orDefault(xs []float64) []float64 {
	if len(xs) == 0 {
		return []float64{1}
	}
	return xs
}

// Enumerate expands the axes into the full scale grid.
func (a Axes) Enumerate() []gpu.Scale {
	var out []gpu.Scale
	for _, sm := range orDefault(a.NumSM) {
		for _, mac := range orDefault(a.MACPerSM) {
			for _, mem := range orDefault(a.MemBW) {
				for _, loc := range orDefault(a.SMLocal) {
					out = append(out, gpu.Scale{
						NumSM: sm, MACPerSM: mac,
						L2BW: mem, DRAMBW: mem,
						RegPerSM: loc, SMEMPerSM: loc, SMEMBW: loc, L1BW: loc,
					})
				}
			}
		}
	}
	return out
}

// Workload is the network whose predicted time drives the exploration.
type Workload struct {
	Net cnn.Network
	Opt traffic.Options
}

// time evaluates the workload on a device. A count-weighted total that
// overflows to ±Inf or NaN is an error, as in pipeline.Network.
func (w Workload) time(d gpu.Device) (float64, error) {
	rs, err := perf.ModelAll(w.Net.Layers, d, w.Opt)
	if err != nil {
		return 0, err
	}
	t := perf.NetworkTime(rs, w.Net.Counts)
	if math.IsInf(t, 0) || math.IsNaN(t) {
		return 0, fmt.Errorf("explore: network %q on %q: predicted time %v is not finite", w.Net.Name, d.Name, t)
	}
	return t, nil
}

// Evaluate prices and times every scale against the baseline device.
func Evaluate(w Workload, base gpu.Device, scales []gpu.Scale, cm CostModel) ([]Candidate, error) {
	baseTime, err := w.time(base)
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, 0, len(scales))
	for _, s := range scales {
		t, err := w.time(s.Apply(base))
		if err != nil {
			return nil, err
		}
		out = append(out, Candidate{Scale: s, Cost: cm.Cost(s), Speedup: baseTime / t})
	}
	return out, nil
}

// ParetoFront returns the candidates not dominated in (lower cost, higher
// speedup), sorted by cost ascending.
func ParetoFront(cands []Candidate) []Candidate {
	sorted := append([]Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost != sorted[j].Cost {
			return sorted[i].Cost < sorted[j].Cost
		}
		return sorted[i].Speedup > sorted[j].Speedup
	})
	var front []Candidate
	best := 0.0
	for _, c := range sorted {
		if c.Speedup > best {
			front = append(front, c)
			best = c.Speedup
		}
	}
	return front
}

// CheapestAtLeast returns the lowest-cost candidate reaching the target
// speedup, and whether one exists.
func CheapestAtLeast(cands []Candidate, target float64) (Candidate, bool) {
	var best Candidate
	found := false
	for _, c := range cands {
		if c.Speedup < target {
			continue
		}
		if !found || c.Cost < best.Cost {
			best, found = c, true
		}
	}
	return best, found
}

// MostEfficient returns the candidate with the highest speedup per cost.
func MostEfficient(cands []Candidate) (Candidate, bool) {
	var best Candidate
	found := false
	for _, c := range cands {
		if !found || c.Efficiency() > best.Efficiency() {
			best, found = c, true
		}
	}
	return best, found
}
