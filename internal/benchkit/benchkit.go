// Package benchkit hosts the canonical serial-vs-parallel simulator
// benchmark bodies, shared by the `go test -bench` harness (bench_test.go)
// and the benchmark-trajectory tool (cmd/delta-bench) so both measure
// exactly the same workloads. The pairs establish the repo's recorded perf
// baseline (BENCH_sim.json):
//
//   - Engine pair: one mid-size layer through the serial reference engine
//     vs the two-phase parallel engine — the intra-layer speedup.
//   - Suite pair: a whole network's layers simulated back to back serially
//     vs fanned across the pipeline worker pool — the experiment-driver
//     speedup (Fig. 4/11/12/17/20 and the ablations all have this shape).
//     SuiteCached answers the same layers from a warm simulation memo.
//   - L2-sweep pair: one L2-capacity sweep of the suite layers run point by
//     point vs as one scenario, whose points share each layer's L1 phase
//     in one engine pass.
package benchkit

import (
	"context"
	"fmt"
	"testing"

	"delta/internal/cnn"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/pipeline"
	"delta/internal/scenario"
	"delta/internal/sim/engine"
)

// EngineLayer is the single-layer workload of the engine-level pair: a
// mid-size GoogLeNet-class layer, heavy enough that the wave phases
// dominate per-run setup, small enough for -benchtime runs.
var EngineLayer = layers.Conv{
	Name: "bench", B: 4, Ci: 192, Hi: 28, Wi: 28, Co: 96, Hf: 3, Wf: 3, Stride: 1, Pad: 1,
}

// SuiteBatch is the mini-batch of the suite-level pair (the experiment
// drivers' simulation batch).
const SuiteBatch = 2

// SuiteLayers returns the multi-layer workload of the suite-level pair:
// GoogLeNet's unique conv layers at SuiteBatch, the Fig. 4 corpus.
func SuiteLayers() []layers.Conv {
	return cnn.GoogLeNet(SuiteBatch).Layers
}

// EngineRun is the body of the engine-level pair: one simulation of
// EngineLayer at the given worker count (1 = serial reference, 0 =
// GOMAXPROCS parallel).
func EngineRun(b *testing.B, workers int) {
	b.ReportAllocs()
	d := gpu.TitanXp()
	var sectors uint64
	for i := 0; i < b.N; i++ {
		r, err := engine.Run(EngineLayer, engine.Config{Device: d, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		sectors += r.L1Stats.SectorAccesses
	}
	b.ReportMetric(float64(sectors)/float64(b.Elapsed().Nanoseconds())*1e3, "Msectors/s")
}

// SuiteSerial is the body of the suite-level serial baseline: every layer
// simulated back to back on one goroutine (the pre-pipeline experiment
// driver shape).
func SuiteSerial(b *testing.B) {
	b.ReportAllocs()
	d := gpu.TitanXp()
	ls := SuiteLayers()
	for i := 0; i < b.N; i++ {
		for _, l := range ls {
			if _, err := engine.Run(l, engine.Config{Device: d, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(SuiteLayers())), "layers")
}

// ScenarioSweep returns the canonical scenario-throughput workload: a
// multi-axis analytical sweep (2 networks × 2 devices × 3 models at B=32,
// 12 whole-network points) — the declarative-API shape the /v2 jobs server
// streams.
func ScenarioSweep() scenario.Scenario {
	return scenario.Scenario{
		Name:      "bench",
		Workloads: []scenario.Workload{{Name: "alexnet"}, {Name: "googlenet"}},
		Devices:   []gpu.Device{gpu.TitanXp(), gpu.V100()},
		Batches:   []int{32},
		Models:    []string{scenario.ModelDelta, scenario.ModelPrior, scenario.ModelRoofline},
	}
}

// ScenarioStream streams ScenarioSweep through a pipeline per iteration
// and reports end-to-end points/s, the Scenario-API overhead metric
// recorded in BENCH_sim.json. Analytical results are never memoized, so
// every point's layers are really evaluated.
func ScenarioStream(b *testing.B) {
	b.ReportAllocs()
	p := pipeline.New()
	sc := ScenarioSweep()
	points := 0
	for i := 0; i < b.N; i++ {
		//lint:ignore ctxflow benchmark harness: *testing.B owns the run lifecycle
		upds, err := p.RunScenario(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(upds) != sc.Size() {
			b.Fatalf("streamed %d points, want %d", len(upds), sc.Size())
		}
		points += len(upds)
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}

// SuiteParallel is the body of the suite-level parallel run: the same
// layers fanned across a cacheless pipeline (every layer really simulates,
// isolating the worker-pool fan-out).
func SuiteParallel(b *testing.B) {
	b.ReportAllocs()
	cfg := engine.Config{Device: gpu.TitanXp()}
	ls := SuiteLayers()
	p := pipeline.New(pipeline.WithoutCache())
	for i := 0; i < b.N; i++ {
		//lint:ignore ctxflow benchmark harness: *testing.B owns the run lifecycle
		if _, err := p.SimulateLayers(context.Background(), ls, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ls)), "layers")
}

// SuiteCached is the warm counterpart of SuiteParallel: the same layers
// through a default pipeline whose simulation memo was filled before the
// timer started, so every layer is a memo hit. suite_cached_vs_cold in
// BENCH_sim.json is SuiteParallel ns over SuiteCached ns.
func SuiteCached(b *testing.B) {
	cfg := engine.Config{Device: gpu.TitanXp()}
	ls := SuiteLayers()
	p := pipeline.New()
	//lint:ignore ctxflow benchmark harness: *testing.B owns the run lifecycle
	ctx := context.Background()
	if _, err := p.SimulateLayers(ctx, ls, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SimulateLayers(ctx, ls, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ls)), "layers")
}

// l2Sweep is the body of the L2-sweep pair: GoogLeNet at SuiteBatch on
// the TITAN Xp at three L2 capacities, through a fresh cacheless pipeline
// per iteration. Nothing above the L2 differs between the points, so run
// as one scenario they form one group and each layer's L1 phase runs once;
// run point by point, each point re-runs it.
func l2Sweep(b *testing.B, grouped bool) {
	b.ReportAllocs()
	sc := scenario.Scenario{
		Name:       "l2sweep",
		Workloads:  []scenario.Workload{{Name: "googlenet"}},
		Batches:    []int{SuiteBatch},
		SimConfigs: []engine.Config{{}},
	}
	for i := 0; i < 3; i++ {
		d := gpu.TitanXp()
		d.L2SizeMB += float64(i)
		d.Name = fmt.Sprintf("%s L2 %gMB", d.Name, d.L2SizeMB)
		sc.Devices = append(sc.Devices, d)
	}
	ls := SuiteLayers()
	//lint:ignore ctxflow benchmark harness: *testing.B owns the run lifecycle
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		p := pipeline.New(pipeline.WithoutCache())
		if grouped {
			if _, err := p.RunScenario(ctx, sc); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for _, d := range sc.Devices {
			if _, err := p.SimulateLayers(ctx, ls, engine.Config{Device: d}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(sc.Devices)), "points")
}

// L2SweepPerPoint runs the L2 sweep as one SimulateLayers call per
// capacity. l2sweep_grouped_vs_per_point in BENCH_sim.json is its ns over
// L2SweepGrouped's.
func L2SweepPerPoint(b *testing.B) { l2Sweep(b, false) }

// L2SweepGrouped runs the same sweep as one scenario through RunScenario.
func L2SweepGrouped(b *testing.B) { l2Sweep(b, true) }
