// Whole-network and design-space entry points: the batch shapes every
// consumer needs, built on EvaluateAll so they inherit the worker pool and
// cancellation.

package pipeline

import (
	"context"
	"fmt"
	"math"

	"delta/internal/backprop"
	"delta/internal/cnn"
	"delta/internal/explore"
	"delta/internal/gpu"
	"delta/internal/perf"
	"delta/internal/scenario"
	"delta/internal/traffic"
)

// NetworkRequest names a whole-network evaluation.
type NetworkRequest struct {
	Net    cnn.Network
	Device gpu.Device

	Options  traffic.Options
	Model    Model
	Pass     Pass
	MissRate float64
}

// NetworkResult aggregates per-layer results the way the serial helpers do.
type NetworkResult struct {
	Net     string
	Device  string
	Model   Model
	Pass    Pass
	Results []Result

	// Seconds is the count-weighted network time (perf.NetworkTime order).
	Seconds float64

	// Bottlenecks is the count-weighted histogram (inference delta/prior
	// requests only; nil otherwise).
	Bottlenecks map[perf.Bottleneck]int
}

// Network evaluates every layer of a network concurrently and aggregates
// exactly like the serial perf.NetworkTime / backprop.NetworkStep paths.
func (e *Evaluator) Network(ctx context.Context, nr NetworkRequest) (NetworkResult, error) {
	// Counts may be nil (all ones, as in perf.NetworkTime); per-layer and
	// device validation happens inside each request.
	if nr.Net.Counts != nil && len(nr.Net.Counts) != len(nr.Net.Layers) {
		return NetworkResult{}, fmt.Errorf("pipeline: network %q: %d counts for %d layers",
			nr.Net.Name, len(nr.Net.Counts), len(nr.Net.Layers))
	}
	reqs := make([]Request, len(nr.Net.Layers))
	for i, l := range nr.Net.Layers {
		reqs[i] = Request{
			Layer: l, Device: nr.Device, Options: nr.Options,
			Model: nr.Model, Pass: nr.Pass, MissRate: nr.MissRate,
			SkipDgrad: nr.Pass == PassTraining && i == 0,
		}
	}
	rs, err := e.EvaluateAll(ctx, reqs)
	if err != nil {
		return NetworkResult{}, err
	}
	out := NetworkResult{Net: nr.Net.Name, Device: nr.Device.Name, Results: rs}
	if len(rs) > 0 {
		out.Model, out.Pass = rs[0].Model, rs[0].Pass
	}
	counts := nr.Net.Counts
	for i, r := range rs {
		c := 1
		if counts != nil {
			c = counts[i]
		}
		out.Seconds += r.Seconds * float64(c)
	}
	if math.IsInf(out.Seconds, 0) || math.IsNaN(out.Seconds) {
		return NetworkResult{}, fmt.Errorf("pipeline: network %q on %q: predicted time %v is not finite",
			nr.Net.Name, nr.Device.Name, out.Seconds)
	}
	if out.Pass == PassInference && out.Model != ModelRoofline {
		out.Bottlenecks = make(map[perf.Bottleneck]int)
		for i, r := range rs {
			c := 1
			if counts != nil {
				c = counts[i]
			}
			out.Bottlenecks[r.Perf.Bottleneck] += c
		}
	}
	return out, nil
}

// Training evaluates a network's full training step layer-concurrently,
// returning the same steps and weighted total as backprop.NetworkStep.
func (e *Evaluator) Training(ctx context.Context, net cnn.Network, d gpu.Device, opt traffic.Options) ([]backprop.Step, float64, error) {
	nr, err := e.Network(ctx, NetworkRequest{Net: net, Device: d, Options: opt, Pass: PassTraining})
	if err != nil {
		return nil, 0, err
	}
	steps := make([]backprop.Step, len(nr.Results))
	for i, r := range nr.Results {
		steps[i] = r.Training
	}
	return steps, nr.Seconds, nil
}

// Explore prices and times every candidate scale against the baseline,
// returning candidates identical to the serial explore.Evaluate. The grid
// is expressed as a scenario — one workload across the base + scaled
// device axis — and streamed through the pipeline, so the scales × layers
// fan-out shares the worker pool. Duplicate layer configurations are
// recomputed, not memoized (see Evaluator).
func (e *Evaluator) Explore(ctx context.Context, w explore.Workload, base gpu.Device, scales []gpu.Scale, cm explore.CostModel) ([]explore.Candidate, error) {
	if len(w.Net.Layers) == 0 {
		return nil, fmt.Errorf("pipeline: explore workload %q has no layers", w.Net.Name)
	}
	devices := make([]gpu.Device, 0, 1+len(scales))
	devices = append(devices, base)
	for _, s := range scales {
		devices = append(devices, s.Apply(base))
	}
	upds, err := e.RunScenario(ctx, scenario.Scenario{
		Name:      "explore:" + w.Net.Name,
		Workloads: []scenario.Workload{{Net: w.Net}},
		Devices:   devices,
		Options:   []traffic.Options{w.Opt},
	})
	if err != nil {
		return nil, err
	}
	// One update per device, in device-axis order; NetworkResult.Seconds
	// is the layer-order weighted sum the serial path computes.
	baseTime := upds[0].Network.Seconds
	out := make([]explore.Candidate, 0, len(scales))
	for si, s := range scales {
		t := upds[si+1].Network.Seconds
		out = append(out, explore.Candidate{Scale: s, Cost: cm.Cost(s), Speedup: baseTime / t})
	}
	return out, nil
}
