package delta

// The benchmark harness: one testing.B benchmark per paper table/figure.
// Each benchmark regenerates its artifact through the experiment driver and
// reports domain-specific metrics alongside the usual ns/op, so
// `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// Figure benchmarks run the reduced "quick" sweep per iteration to keep
// -bench runs tractable; `delta-experiments -run all` produces the full
// artifacts (README, CLIs).

import (
	"context"
	"math"
	"testing"

	"delta/internal/benchkit"
	"delta/internal/experiments"
	"delta/internal/explore"
	"delta/internal/gpu"
	"delta/internal/perf"
	"delta/internal/pipeline"
	"delta/internal/tiling"
	"delta/internal/traffic"
)

var benchCfg = experiments.Config{Batch: 32, SimBatch: 2, TimingBatch: 8, Quick: true}

func benchDriver(b *testing.B, id string) {
	d, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := d.Run(context.Background(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for _, t := range tables {
			rows += t.Len()
		}
		b.ReportMetric(float64(rows), "rows")
	}
}

// BenchmarkTab1DeviceSpecs regenerates Table I.
func BenchmarkTab1DeviceSpecs(b *testing.B) { benchDriver(b, "tab1") }

// BenchmarkFig4MissRates regenerates the GoogLeNet miss-rate figure.
func BenchmarkFig4MissRates(b *testing.B) { benchDriver(b, "fig4") }

// BenchmarkFig6CTATileLookup regenerates the CTA-tile-width staircase.
func BenchmarkFig6CTATileLookup(b *testing.B) { benchDriver(b, "fig6") }

// BenchmarkFig11TrafficModel regenerates the headline traffic validation.
func BenchmarkFig11TrafficModel(b *testing.B) { benchDriver(b, "fig11") }

// BenchmarkFig12PriorTraffic regenerates the prior-model traffic comparison.
func BenchmarkFig12PriorTraffic(b *testing.B) { benchDriver(b, "fig12") }

// BenchmarkFig13PerfTitanXp regenerates the TITAN Xp performance validation.
func BenchmarkFig13PerfTitanXp(b *testing.B) { benchDriver(b, "fig13") }

// BenchmarkFig14PerfV100 regenerates the V100 performance validation.
func BenchmarkFig14PerfV100(b *testing.B) { benchDriver(b, "fig14") }

// BenchmarkFig15Distribution regenerates the estimate distributions.
func BenchmarkFig15Distribution(b *testing.B) { benchDriver(b, "fig15") }

// BenchmarkFig16ScalingStudy regenerates the GPU scaling study.
func BenchmarkFig16ScalingStudy(b *testing.B) { benchDriver(b, "fig16") }

// BenchmarkFig17Sensitivity regenerates the sensitivity sweeps.
func BenchmarkFig17Sensitivity(b *testing.B) { benchDriver(b, "fig17") }

// BenchmarkFig18DRAMMicrobench regenerates the DRAM latency/BW curves.
func BenchmarkFig18DRAMMicrobench(b *testing.B) { benchDriver(b, "fig18") }

// BenchmarkFig19ExecutionCycles regenerates the absolute-cycles figure.
func BenchmarkFig19ExecutionCycles(b *testing.B) { benchDriver(b, "fig19") }

// BenchmarkFig20AbsoluteTraffic regenerates the absolute-traffic figure.
func BenchmarkFig20AbsoluteTraffic(b *testing.B) { benchDriver(b, "fig20") }

// BenchmarkExtTraining regenerates the training-step extension tables.
func BenchmarkExtTraining(b *testing.B) { benchDriver(b, "train") }

// BenchmarkExtExplore regenerates the design-space-search extension table.
func BenchmarkExtExplore(b *testing.B) { benchDriver(b, "explore") }

// --- Micro-benchmarks of the core model itself ---

// BenchmarkTrafficModelSingleLayer measures one closed-form traffic
// evaluation (the unit of every design-space sweep).
func BenchmarkTrafficModelSingleLayer(b *testing.B) {
	l := Conv{Name: "b", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	d := gpu.TitanXp()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := traffic.Model(l, d, traffic.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfModelSingleLayer measures traffic + performance model.
func BenchmarkPerfModelSingleLayer(b *testing.B) {
	l := Conv{Name: "b", B: 256, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	d := gpu.TitanXp()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := perf.ModelLayer(l, d, traffic.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResNet152FullSweep measures a full-network evaluation, the unit
// of the Fig. 16 design-space exploration.
func BenchmarkResNet152FullSweep(b *testing.B) {
	net := ResNet152Full(256)
	d := gpu.TitanXp()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := perf.ModelAll(net.Layers, d, traffic.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(perf.NetworkTime(rs, net.Counts)*1e3, "predicted-ms")
	}
}

// BenchmarkSimulatorSmallLayer measures the trace-driven simulator on the
// Appendix A base layer at B=1.
func BenchmarkSimulatorSmallLayer(b *testing.B) {
	l := Conv{Name: "b", B: 1, Ci: 256, Hi: 13, Wi: 13, Co: 128, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Simulate(l, SimConfig{Device: gpu.TitanXp()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.L1Stats.SectorAccesses)/float64(b.Elapsed().Nanoseconds())*1e3, "Msectors/s")
	}
}

// BenchmarkCTATileSelect measures the Fig. 6 lookup (called per layer in
// every sweep).
func BenchmarkCTATileSelect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = tiling.Select(i % 512)
	}
}

// --- Serial vs. pipeline design-space exploration ---
//
// The paper frames DeLTA as fast enough to drive whole design-space
// optimizations; these two benchmarks measure that claim's hot path — the
// default-axes grid (96 candidates) over full ResNet152 — serially and
// through the concurrent pipeline. The pipeline never memoizes analytical
// results, so the comparison isolates the worker-pool fan-out; on >= 4
// cores the pipeline run should be >= 2x faster.

func exploreWorkloadAndScales() (explore.Workload, []gpu.Scale, explore.CostModel) {
	return explore.Workload{Net: ResNet152Full(256)},
		explore.DefaultAxes().Enumerate(),
		explore.DefaultCostModel()
}

// BenchmarkExploreSerial measures the serial explore.Evaluate sweep.
func BenchmarkExploreSerial(b *testing.B) {
	w, scales, cm := exploreWorkloadAndScales()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cands, err := explore.Evaluate(w, gpu.TitanXp(), scales, cm)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(cands)), "candidates")
	}
}

// BenchmarkExplorePipeline measures the same sweep through the concurrent
// pipeline (every candidate is really computed).
func BenchmarkExplorePipeline(b *testing.B) {
	w, scales, cm := exploreWorkloadAndScales()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pipeline.New()
		cands, err := p.Explore(context.Background(), w, gpu.TitanXp(), scales, cm)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(cands)), "candidates")
	}
}

// --- Serial vs. parallel trace-driven simulation ---
//
// The two benchmark pairs behind BENCH_sim.json (see cmd/delta-bench,
// which runs the same benchkit bodies). On one core the parallel runs
// degrade gracefully to the serial path; on >= 4 cores the suite pair
// should show >= 3x.

// BenchmarkSimEngineSerial measures the serial reference engine on one
// mid-size layer.
func BenchmarkSimEngineSerial(b *testing.B) { benchkit.EngineRun(b, 1) }

// BenchmarkSimEngineParallel measures the deterministic two-phase parallel
// engine (GOMAXPROCS workers) on the same layer.
func BenchmarkSimEngineParallel(b *testing.B) { benchkit.EngineRun(b, 0) }

// BenchmarkSimSuiteSerial simulates the Fig. 4 corpus layer by layer on
// one goroutine — the pre-pipeline experiment-driver shape.
func BenchmarkSimSuiteSerial(b *testing.B) { benchkit.SuiteSerial(b) }

// BenchmarkSimSuiteParallel fans the same corpus across the pipeline
// worker pool (cacheless, so every layer really simulates).
func BenchmarkSimSuiteParallel(b *testing.B) { benchkit.SuiteParallel(b) }

// BenchmarkSimSuiteCached answers the same corpus from a warm simulation
// memo, so every layer is a memo hit.
func BenchmarkSimSuiteCached(b *testing.B) { benchkit.SuiteCached(b) }

// BenchmarkSimL2SweepPerPoint measures a three-capacity L2 sweep of the
// corpus run point by point, each point re-running the L1 phase.
func BenchmarkSimL2SweepPerPoint(b *testing.B) { benchkit.L2SweepPerPoint(b) }

// BenchmarkSimL2SweepGrouped measures the same sweep as one scenario,
// whose points share each layer's L1 phase in one engine pass.
func BenchmarkSimL2SweepGrouped(b *testing.B) { benchkit.L2SweepGrouped(b) }

// BenchmarkScenarioStream measures declarative-sweep throughput: the
// canonical multi-axis scenario streamed through a pipeline,
// reporting points/s — the Scenario-API overhead metric BENCH_sim.json
// tracks (see cmd/delta-bench, which runs the same benchkit body).
func BenchmarkScenarioStream(b *testing.B) { benchkit.ScenarioStream(b) }

// BenchmarkFleetSweep measures the distributed shape of the same sweep:
// sharded over in-process HTTP workers and merged by a coordinator — the
// fleet_vs_single numerator in BENCH_sim.json.
func BenchmarkFleetSweep(b *testing.B) { benchkit.FleetSweep(b) }

// --- Ablation benches: traffic-model and simulator design choices ---

// ablationDRAMRatio evaluates the whole paper suite under a traffic-model
// variant and reports the geomean model/simulator DRAM ratio, so ablations
// are directly comparable. The per-layer simulations fan out across a
// cacheless pipeline so every iteration really simulates.
func ablationDRAMRatio(b *testing.B, opt traffic.Options, skipPad bool) {
	b.ReportAllocs()
	d := gpu.TitanXp()
	ls := []Conv{
		{Name: "a", B: 2, Ci: 192, Hi: 28, Wi: 28, Co: 96, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
		{Name: "b", B: 2, Ci: 64, Hi: 56, Wi: 56, Co: 256, Hf: 3, Wf: 3, Stride: 1, Pad: 1},
		{Name: "c", B: 2, Ci: 512, Hi: 14, Wi: 14, Co: 128, Hf: 1, Wf: 1, Stride: 1},
	}
	p := NewPipeline(WithoutPipelineCache())
	for i := 0; i < b.N; i++ {
		sims, err := p.SimulateLayers(context.Background(), ls,
			SimConfig{Device: d, SkipPadding: skipPad})
		if err != nil {
			b.Fatal(err)
		}
		prod := 1.0
		for li, l := range ls {
			m, err := traffic.Model(l, d, opt)
			if err != nil {
				b.Fatal(err)
			}
			prod *= m.DRAMBytes / sims[li].DRAMBytes
		}
		b.ReportMetric(math.Pow(prod, 1.0/float64(len(ls))), "geomean-DRAM-ratio")
	}
}

// BenchmarkAblationPaperDRAM measures the paper's Eq. 10 (column re-stream
// always charged).
func BenchmarkAblationPaperDRAM(b *testing.B) {
	ablationDRAMRatio(b, traffic.Options{}, false)
}

// BenchmarkAblationCapacityAwareDRAM measures the L2-capacity-aware variant
// that removes the paper's known small-layer over-estimation.
func BenchmarkAblationCapacityAwareDRAM(b *testing.B) {
	ablationDRAMRatio(b, traffic.Options{CapacityAwareDRAM: true}, false)
}

// BenchmarkAblationPaperMLIFilter measures the published Pascal filter-MLI
// constants instead of the request-granularity closed form.
func BenchmarkAblationPaperMLIFilter(b *testing.B) {
	ablationDRAMRatio(b, traffic.Options{PaperMLIFilter: true}, false)
}

// BenchmarkAblationSkipPadding measures the simulator with zero-padding
// loads predicated off (the model keeps them, per the paper).
func BenchmarkAblationSkipPadding(b *testing.B) {
	ablationDRAMRatio(b, traffic.Options{}, true)
}
