// Package delta is a Go implementation of DeLTA ("DeLTA: GPU Performance
// Model for Deep Learning Applications with In-depth Memory System Traffic
// Analysis", Lym et al., ISPASS 2019): an analytical model of the memory
// traffic and execution time of convolution layers executed on a GPU with
// the im2col/implicit-GEMM algorithm.
//
// The package is a facade over the implementation packages:
//
//   - EstimateTraffic evaluates the Section IV traffic model (L1, L2, DRAM
//     bytes) for a layer on a device.
//   - EstimatePerformance evaluates the Section V performance model on top
//     of a traffic estimate, returning cycles, seconds, and the bottleneck
//     resource.
//   - Simulate runs the trace-driven memory-hierarchy simulator that stands
//     in for the paper's hardware measurements.
//   - SimulateTiming runs the event-driven execution-time simulator.
//   - AlexNet/VGG16/GoogLeNet/ResNet152 provide the paper's benchmark
//     layer configurations; TitanXp/P100/V100 its Table I devices.
//
// A minimal use:
//
//	layer := delta.Conv{Name: "conv", B: 256, Ci: 256, Hi: 13, Wi: 13,
//	    Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
//	est, err := delta.EstimateTraffic(layer, delta.TitanXp(), delta.TrafficOptions{})
//	...
//	res, err := delta.EstimatePerformance(est, delta.TitanXp())
//	fmt.Println(res.Seconds, res.Bottleneck)
package delta

import (
	"context"

	"delta/internal/backprop"
	"delta/internal/cnn"
	"delta/internal/explore"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/microbench"
	"delta/internal/perf"
	"delta/internal/pipeline"
	"delta/internal/prior"
	"delta/internal/roofline"
	"delta/internal/scenario"
	"delta/internal/sim/engine"
	"delta/internal/sim/timing"
	"delta/internal/tiling"
	"delta/internal/traffic"
)

// Core model types.
type (
	// Conv describes one convolution (or fully-connected) layer.
	Conv = layers.Conv

	// GPU is a parameterized device (Table I plus latencies).
	GPU = gpu.Device

	// GPUScale scales independent GPU resources (Fig. 16a design options).
	GPUScale = gpu.Scale

	// DesignOption is one column of the Fig. 16a scaling-study table.
	DesignOption = gpu.DesignOption

	// TrafficOptions tunes traffic-model variants; the zero value
	// reproduces the paper.
	TrafficOptions = traffic.Options

	// TrafficEstimate is the per-level traffic prediction for one layer.
	TrafficEstimate = traffic.Estimate

	// PerfResult is the execution-time prediction with its bottleneck.
	PerfResult = perf.Result

	// Bottleneck names the resource limiting a layer (MAC_BW, SMEM_BW,
	// L1_BW, L2_BW, DRAM_BW, DRAM_LAT).
	Bottleneck = perf.Bottleneck

	// Network is a named list of unique conv layers with instance counts.
	Network = cnn.Network

	// Tile is a CTA tile configuration of the blocked GEMM.
	Tile = tiling.Tile

	// SimConfig configures the trace-driven memory-hierarchy simulator.
	SimConfig = engine.Config

	// SimResult is the simulated ("measured") traffic of one layer.
	SimResult = engine.Result

	// TimingResult is the event-driven simulated execution time.
	TimingResult = timing.Result

	// MicrobenchPoint is one sample of the DRAM latency/bandwidth curve.
	MicrobenchPoint = microbench.Point
)

// Bottleneck values, re-exported for switch statements.
const (
	MACBW   = perf.MACBW
	SMEMBW  = perf.SMEMBW
	L1BW    = perf.L1BW
	L2BW    = perf.L2BW
	DRAMBW  = perf.DRAMBW
	DRAMLAT = perf.DRAMLAT
)

// DefaultBatch is the paper's evaluation mini-batch size.
const DefaultBatch = cnn.DefaultBatch

// Devices.

// TitanXp returns the Pascal TITAN Xp of Table I.
func TitanXp() GPU { return gpu.TitanXp() }

// P100 returns the Pascal Tesla P100 of Table I.
func P100() GPU { return gpu.P100() }

// V100 returns the Volta Tesla V100 of Table I.
func V100() GPU { return gpu.V100() }

// Devices returns all Table I devices.
func Devices() []GPU { return gpu.All() }

// DeviceByName looks a device up by name: the Table I devices (with
// forgiving spelling, e.g. "titanxp") plus anything added via
// RegisterDevice.
func DeviceByName(name string) (GPU, error) { return gpu.ByName(name) }

// RegisterDevice adds a device to the by-name registry so later
// DeviceByName lookups (CLI flags, server requests) resolve it.
func RegisterDevice(d GPU) error { return gpu.Register(d) }

// DeviceNames returns every resolvable device name.
func DeviceNames() []string { return gpu.Names() }

// NetworkByName builds a registered network ("alexnet", "vgg16",
// "googlenet", "resnet50", "resnet152", "resnet152full") at mini-batch b
// (0 means DefaultBatch).
func NetworkByName(name string, b int) (Network, error) { return cnn.ByName(name, b) }

// NetworkNames returns the registered network names.
func NetworkNames() []string { return cnn.Names() }

// DesignOptions returns the nine Fig. 16a scaling-study design options.
func DesignOptions() []DesignOption { return gpu.DesignOptions() }

// Models.

// EstimateTraffic evaluates the DeLTA memory-traffic model (Eq. 2-10).
func EstimateTraffic(l Conv, d GPU, opt TrafficOptions) (TrafficEstimate, error) {
	return traffic.Model(l, d, opt)
}

// EstimatePerformance evaluates the DeLTA performance model (Eq. 11-18) on
// a traffic estimate produced for the same device.
func EstimatePerformance(e TrafficEstimate, d GPU) (PerfResult, error) {
	return perf.Model(e, d)
}

// Estimate runs both models in sequence: the common entry point.
func Estimate(l Conv, d GPU, opt TrafficOptions) (PerfResult, error) {
	return perf.ModelLayer(l, d, opt)
}

// EstimateAllContext evaluates a layer list through the shared pipeline as
// a one-point scenario: layers fan out across the worker pool, and every
// layer is computed (analytical results are not memoized). Results are
// index-aligned with the layers and identical to the serial path.
func EstimateAllContext(ctx context.Context, ls []Conv, d GPU, opt TrafficOptions) ([]PerfResult, error) {
	if len(ls) == 0 {
		return nil, ctx.Err()
	}
	net := Network{Name: "batch", Layers: ls}
	upds, err := DefaultPipeline().RunScenario(ctx, scenario.Single(net, d, opt, "", "", 0))
	if err != nil {
		return nil, err
	}
	rs := upds[0].Network.Results
	out := make([]PerfResult, len(rs))
	for i, r := range rs {
		out[i] = r.Perf
	}
	return out, nil
}

// NetworkTime sums layer times weighted by instance counts (nil = all 1).
func NetworkTime(rs []PerfResult, counts []int) float64 {
	return perf.NetworkTime(rs, counts)
}

// BottleneckHistogram counts layers per bottleneck, weighted by counts.
func BottleneckHistogram(rs []PerfResult, counts []int) map[Bottleneck]int {
	return perf.BottleneckHistogram(rs, counts)
}

// PriorEstimate applies the fixed-miss-rate prior-model baseline
// (Section III; mr = 1.0 is the setting prior work advocates).
func PriorEstimate(l Conv, d GPU, missRate float64) (PerfResult, error) {
	return prior.Model(l, d, missRate)
}

// Simulators.

// Simulate runs the trace-driven memory-hierarchy simulator — the stand-in
// for the paper's nvprof traffic measurements. By default the engine fans
// per-SM L1 simulation across GOMAXPROCS workers and replays L1 misses
// through the shared L2 in serial order, so counters are bit-identical to
// the serial reference engine (SimConfig.Workers = 1) at any width. It
// runs the engine directly; the pipeline helpers below memoize runs, and
// a scenario sweep over L2 capacity shares each layer's pass across its
// points (see Stream).
func Simulate(l Conv, cfg SimConfig) (SimResult, error) {
	return engine.Run(l, cfg)
}

// SimRequest names one trace-driven simulation for SimulateAllContext: a
// layer under an engine configuration.
type SimRequest = pipeline.SimRequest

// SimulateAllContext runs a batch of simulations through the shared
// pipeline: per-layer runs fan out across the worker pool and repeated
// (layer, device, config) simulations are served from the pipeline's
// simulation memo.
// Results are index-aligned with the requests and bit-identical to serial
// engine runs. (Heterogeneous per-request configs do not form a
// cross-product, so this is the one batch helper that bypasses the
// scenario expansion and feeds the pipeline directly.)
func SimulateAllContext(ctx context.Context, reqs []SimRequest) ([]SimResult, error) {
	return DefaultPipeline().SimulateAll(ctx, reqs)
}

// SimulateLayersContext simulates each layer under one shared config as a
// one-point scenario through the shared pipeline — the common
// experiment-driver shape. Repeated simulations are served from the
// pipeline's simulation memo.
func SimulateLayersContext(ctx context.Context, ls []Conv, cfg SimConfig) ([]SimResult, error) {
	if len(ls) == 0 {
		return nil, ctx.Err()
	}
	upds, err := DefaultPipeline().RunScenario(ctx, scenario.SingleSim(ls, cfg))
	if err != nil {
		return nil, err
	}
	return upds[0].Sim, nil
}

// SimulateTiming runs the event-driven execution-time simulator on a
// traffic estimate.
func SimulateTiming(e TrafficEstimate, d GPU) (TimingResult, error) {
	return timing.Run(e, d)
}

// DRAMMicrobench sweeps the DRAM channel model across offered loads,
// reproducing the Fig. 18 latency/bandwidth curve.
func DRAMMicrobench(d GPU, fractions []float64, requests int) ([]MicrobenchPoint, error) {
	return microbench.Sweep(d, fractions, requests)
}

// Networks.

// AlexNet returns AlexNet's conv layers at mini-batch b.
func AlexNet(b int) Network { return cnn.AlexNet(b) }

// VGG16 returns VGG16's unique conv layers at mini-batch b.
func VGG16(b int) Network { return cnn.VGG16(b) }

// GoogLeNet returns GoogLeNet's unique conv layers at mini-batch b.
func GoogLeNet(b int) Network { return cnn.GoogLeNet(b) }

// ResNet50 returns every conv instance of ResNet50 with counts (not part of
// the paper's evaluation; provided for library users).
func ResNet50(b int) Network { return cnn.ResNet50(b) }

// ResNet152 returns ResNet152's unique conv layers at mini-batch b.
func ResNet152(b int) Network { return cnn.ResNet152(b) }

// ResNet152Full returns every conv instance of ResNet152 with counts, the
// Fig. 16 scaling-study workload.
func ResNet152Full(b int) Network { return cnn.ResNet152Full(b) }

// PaperSuite returns the four evaluated CNNs at mini-batch b.
func PaperSuite(b int) []Network { return cnn.PaperSuite(b) }

// FC constructs a fully-connected layer as a 1x1 convolution.
func FC(name string, batch, in, out int) Conv { return layers.FC(name, batch, in, out) }

// SelectTile returns the CTA tile cuDNN would pick for an output channel
// count (the Fig. 6 lookup).
func SelectTile(co int) Tile { return tiling.Select(co) }

// Training extension (see internal/backprop): the data-gradient and
// weight-gradient GEMMs of the backward pass, and whole-network training
// step times.
type TrainingStep = backprop.Step

// DgradLayer returns the convolution computing the data gradient of l.
func DgradLayer(l Conv) (Conv, error) { return backprop.DgradLayer(l) }

// WgradLayer returns the GEMM-shaped layer of l's weight gradient.
func WgradLayer(l Conv) (Conv, error) { return backprop.WgradLayer(l) }

// EstimateTrainingStep models fprop + dgrad + wgrad for one layer.
func EstimateTrainingStep(l Conv, d GPU, opt TrafficOptions, skipDgrad bool) (TrainingStep, error) {
	return backprop.ModelStep(l, d, opt, skipDgrad)
}

// EstimateNetworkTrainingContext models a whole network's training-step
// time as a one-point training-pass scenario, evaluating layers
// concurrently through the shared pipeline.
func EstimateNetworkTrainingContext(ctx context.Context, n Network, d GPU, opt TrafficOptions) ([]TrainingStep, float64, error) {
	upds, err := DefaultPipeline().RunScenario(ctx,
		scenario.Single(n, d, opt, scenario.ModelDelta, scenario.PassTraining, 0))
	if err != nil {
		return nil, 0, err
	}
	nr := upds[0].Network
	steps := make([]TrainingStep, len(nr.Results))
	for i, r := range nr.Results {
		steps[i] = r.Training
	}
	return steps, nr.Seconds, nil
}

// Design-space exploration (see internal/explore): cost-priced resource
// grids, Pareto frontiers, and target-speedup search.
type (
	// ExploreAxes defines the resource-scaling grid to enumerate.
	ExploreAxes = explore.Axes

	// ExploreCandidate is one priced, evaluated design point.
	ExploreCandidate = explore.Candidate

	// CostModel prices scaled devices relative to the baseline.
	CostModel = explore.CostModel

	// ExploreWorkload is the network (plus traffic options) whose
	// predicted time drives an exploration.
	ExploreWorkload = explore.Workload
)

// DefaultCostModel returns a coarse Pascal-class silicon cost split.
func DefaultCostModel() CostModel { return explore.DefaultCostModel() }

// DefaultExploreAxes spans the neighborhood of the Fig. 16a options.
func DefaultExploreAxes() ExploreAxes { return explore.DefaultAxes() }

// ExploreContext prices and evaluates every scale in the grid on the
// workload. The grid is expressed as a scenario (one workload × the base +
// scaled device axis) streamed through the shared pipeline's worker pool;
// candidates are identical to the serial evaluation.
func ExploreContext(ctx context.Context, n Network, base GPU, axes ExploreAxes, cm CostModel) ([]ExploreCandidate, error) {
	return DefaultPipeline().Explore(ctx, explore.Workload{Net: n}, base, axes.Enumerate(), cm)
}

// ParetoFront extracts the undominated (cost, speedup) candidates.
func ParetoFront(cands []ExploreCandidate) []ExploreCandidate {
	return explore.ParetoFront(cands)
}

// CheapestAtLeast returns the lowest-cost candidate hitting the target
// speedup.
func CheapestAtLeast(cands []ExploreCandidate, target float64) (ExploreCandidate, bool) {
	return explore.CheapestAtLeast(cands, target)
}

// RooflineResult is a classical roofline prediction (baseline; see
// internal/roofline).
type RooflineResult = roofline.Result

// Roofline evaluates the classical roofline model for one layer: the larger
// of the arithmetic time and the compulsory-traffic memory time.
func Roofline(l Conv, d GPU) (RooflineResult, error) { return roofline.Model(l, d) }

// Unified evaluation pipeline (see internal/pipeline): the concurrent
// Request/Result path every batch consumer — EstimateAll, Explore,
// EstimateNetworkTraining, the CLIs, and cmd/delta-server — goes through.
type (
	// Pipeline is a concurrent evaluator of model requests that memoizes
	// simulations.
	Pipeline = pipeline.Evaluator

	// PipelineOption configures NewPipeline.
	PipelineOption = pipeline.Option

	// EvalRequest names one layer evaluation: layer, device, model
	// variant (delta | prior | roofline), and pass (inference | training).
	EvalRequest = pipeline.Request

	// EvalResult is the unified answer to an EvalRequest.
	EvalResult = pipeline.Result

	// NetworkEvalRequest names a whole-network evaluation.
	NetworkEvalRequest = pipeline.NetworkRequest

	// NetworkEvalResult aggregates per-layer results with the
	// count-weighted network time and bottleneck histogram.
	NetworkEvalResult = pipeline.NetworkResult

	// EvalModel selects the analytical model variant of an EvalRequest.
	EvalModel = pipeline.Model

	// EvalPass selects forward-only or full training-step evaluation.
	EvalPass = pipeline.Pass
)

// Pipeline model and pass selectors.
const (
	ModelDelta    = pipeline.ModelDelta
	ModelPrior    = pipeline.ModelPrior
	ModelRoofline = pipeline.ModelRoofline

	PassInference = pipeline.PassInference
	PassTraining  = pipeline.PassTraining
)

// Declarative scenarios (see internal/scenario): the one request shape
// every sweep — grids of workloads × devices × batches × models × passes ×
// traffic options, plus optional simulator configs — expands from. Build a
// Scenario in Go (or decode one from JSON via internal/spec / the
// delta-server /v2 jobs API) and stream it through the pipeline.
type (
	// Scenario is a declarative cross-product evaluation sweep.
	Scenario = scenario.Scenario

	// ScenarioWorkload names one workload-axis entry: a registered
	// network name or an explicit layer list.
	ScenarioWorkload = scenario.Workload

	// ScenarioPoint is one expanded evaluation of a scenario.
	ScenarioPoint = scenario.Point

	// StreamUpdate is one incremental result of a scenario stream, with
	// progress counts (Done/Total) and the point's result or error.
	StreamUpdate = pipeline.StreamUpdate

	// StreamOption configures Stream / RunScenario calls.
	StreamOption = pipeline.StreamOption

	// StreamErrorPolicy selects fail-fast or collect-partial sweeps.
	StreamErrorPolicy = pipeline.ErrorPolicy
)

// Scenario model/pass axis values and stream error policies.
const (
	ScenarioModelDelta    = scenario.ModelDelta
	ScenarioModelPrior    = scenario.ModelPrior
	ScenarioModelRoofline = scenario.ModelRoofline

	ScenarioPassInference = scenario.PassInference
	ScenarioPassTraining  = scenario.PassTraining

	StreamFailFast       = pipeline.FailFast
	StreamCollectPartial = pipeline.CollectPartial
)

// WithStreamErrorPolicy selects a stream's error policy (default
// StreamFailFast).
func WithStreamErrorPolicy(p StreamErrorPolicy) StreamOption {
	return pipeline.WithErrorPolicy(p)
}

// WithStreamOffset resumes a stream partway through the expansion order:
// the first n points are skipped without evaluation and updates continue
// from Done == n+1 with indices and Total unchanged. Because expansion
// order is deterministic, a resumed sweep's updates are bit-identical to
// the tail of an uninterrupted run — this is how delta-server resumes
// half-finished durable jobs after a restart.
func WithStreamOffset(n int) StreamOption {
	return pipeline.WithOffset(n)
}

// WithStreamLimit bounds how many points a stream emits after the
// offset: the sweep stops once n updates are sent, with Done/Total and
// point indices still global. An offset+limit window is therefore
// bit-identical to the same slice of an unbounded run, which is what
// lets distributed sweeps shard a scenario's index space across workers
// and merge the pieces back losslessly. Negative means unlimited.
func WithStreamLimit(n int) StreamOption {
	return pipeline.WithLimit(n)
}

// Stream expands a scenario and evaluates its points through the shared
// pipeline — each point's layers fan out across the worker pool — emitting
// one update per point in expansion order with progress counts.
// Consecutive simulation points that differ only in L2 capacity, L2 ways
// or device name (an L2 sweep) share one simulator pass per layer, with
// each point's results unchanged. Cancel ctx to abandon the stream early.
func Stream(ctx context.Context, sc Scenario, opts ...StreamOption) (<-chan StreamUpdate, error) {
	return DefaultPipeline().Stream(ctx, sc, opts...)
}

// RunScenario streams a scenario to completion and collects the ordered
// updates.
func RunScenario(ctx context.Context, sc Scenario, opts ...StreamOption) ([]StreamUpdate, error) {
	return DefaultPipeline().RunScenario(ctx, sc, opts...)
}

// NewPipeline constructs a private evaluation pipeline. Most callers can
// use DefaultPipeline; construct your own to bound the worker pool
// (WithPipelineWorkers) or disable the simulation memo
// (WithoutPipelineCache). Analytical requests are never memoized.
func NewPipeline(opts ...PipelineOption) *Pipeline { return pipeline.New(opts...) }

// DefaultPipeline returns the process-wide shared pipeline, so independent
// callers share one worker pool and one simulation memo.
func DefaultPipeline() *Pipeline { return pipeline.Default() }

// WithPipelineWorkers caps a new pipeline's worker pool.
func WithPipelineWorkers(n int) PipelineOption { return pipeline.WithWorkers(n) }

// WithoutPipelineCache disables a new pipeline's simulation memo.
func WithoutPipelineCache() PipelineOption { return pipeline.WithoutCache() }
