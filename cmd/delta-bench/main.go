// Command delta-bench records the repository's simulator performance
// baseline: it runs the canonical serial-vs-parallel benchmark pairs (the
// same benchkit bodies `go test -bench 'BenchmarkSim'` runs) through
// testing.Benchmark and writes the results — ns/op, allocs/op, and the
// serial-vs-parallel speedups — as a JSON trajectory artifact.
//
// Usage:
//
//	delta-bench [-o BENCH_sim.json] [-check-against BASELINE.json]
//	            [-workers-sweep] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// An -o that names the -check-against baseline exits 2 before anything
// runs: check a change with -o BENCH_sim.fresh.json.
//
// The artifact is committed at the repo root as the recorded baseline and
// regenerated per-PR by the CI benchmark job, so perf regressions in the
// simulator hot paths are visible in review. -check-against compares the
// fresh run to a recorded baseline and exits non-zero when EngineSerial
// throughput regresses more than 10%, when the suite answered from a warm
// simulation memo loses to the cold suite (suite_cached_vs_cold < 1), when
// an L2 sweep run as one scenario fails to beat the same sweep run point
// by point by 1.2x (l2sweep_grouped_vs_per_point, so grouping that
// silently stops shows up), or — on hosts with GOMAXPROCS >= 4 — when the
// parallel engine fails to beat serial by >= 1.05x or the suite fan-out
// falls below 1.0x (the CI guards).
// -workers-sweep additionally measures engine throughput at 1/2/4/max
// workers into a "scaling" section. -cpuprofile and -memprofile capture pprof profiles of the
// benchmark workload for offline analysis (CI uploads them as artifacts).
// Compare two checkouts with `go test -bench 'BenchmarkSim' -count 10`
// piped through benchstat for statistically grounded deltas.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"delta/internal/benchkit"
)

// entry is one benchmark's recorded measurements.
type entry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Iterations  int                `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// baseline is the BENCH_sim.json document.
type baseline struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SuiteSize  int    `json:"suite_layers"`

	// Benchmarks maps the BenchmarkSim* names (without the prefix) to
	// their measurements.
	Benchmarks map[string]entry `json:"benchmarks"`

	// Speedup holds serial-ns / parallel-ns per pair. On a single-core
	// host the parallel engine degrades gracefully to the serial path, so
	// ~1.0 is expected there; the >= 3x target applies at >= 4 cores.
	// l2sweep_grouped_vs_per_point is L2SweepPerPoint-ns /
	// L2SweepGrouped-ns: how much sharing each layer's L1 phase across an
	// L2-capacity sweep saves.
	// suite_cached_vs_cold is SuiteParallel-ns / SuiteCached-ns: the
	// cold suite over the same suite from a warm simulation memo. A memo
	// hit that costs more than the simulation it saves is a regression
	// (suite_cached_vs_cold < 1).
	Speedup map[string]float64 `json:"speedup"`

	// Scaling (with -workers-sweep) holds EngineRun measurements at
	// several worker counts, keyed engine_w<N>.
	Scaling map[string]entry `json:"scaling,omitempty"`

	// Throughput tracks the Scenario-API overhead: whole-network points/s
	// through Evaluator.Stream on the canonical multi-axis sweep.
	Throughput map[string]float64 `json:"throughput"`
}

// engineSerialMetric is the regression-guard quantity: single-thread
// simulated sectors per second, the engine's core hot-path throughput.
const engineSerialMetric = "Msectors/s"

// regressionTolerance is how far EngineSerial may fall below the recorded
// baseline before -check-against fails (shared-runner noise allowance).
const regressionTolerance = 0.10

// minGroupedSpeedup is the least l2sweep_grouped_vs_per_point that
// -check-against accepts.
const minGroupedSpeedup = 1.2

func measure(f func(b *testing.B)) entry {
	r := testing.Benchmark(f)
	return entry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Iterations:  r.N,
		Metrics:     r.Extra,
	}
}

func main() {
	// All work happens in run so its defers — notably StopCPUProfile,
	// which is what actually writes the CPU profile — execute before the
	// process exits, profile included on the failing (regressed) runs the
	// profile exists to diagnose.
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("delta-bench", flag.ExitOnError)
	out := fs.String("o", "BENCH_sim.json", "output path for the benchmark trajectory")
	checkAgainst := fs.String("check-against", "", "baseline BENCH_sim.json to compare against; exit non-zero on >10% EngineSerial regression or failed speedup gates")
	workersSweep := fs.Bool("workers-sweep", false, "measure engine throughput at 1/2/4/max workers into a scaling section")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark workload to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the benchmark workload to this file")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, as flag.Parse does

	// The baseline is read before anything runs, and never overwritten:
	// gating a fresh run against itself would pass any regression.
	var base *baseline
	if *checkAgainst != "" {
		if sameFile(*out, *checkAgainst) {
			fmt.Fprintf(os.Stderr, "delta-bench: -o %s is the -check-against baseline; write the fresh run elsewhere (-o BENCH_sim.fresh.json)\n", *out)
			return 2
		}
		b, err := readBaseline(*checkAgainst)
		if err != nil {
			return fail(err)
		}
		base = &b
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	doc := baseline{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SuiteSize:  len(benchkit.SuiteLayers()),
		Benchmarks: map[string]entry{},
		Speedup:    map[string]float64{},
		Throughput: map[string]float64{},
	}

	run := func(name string, f func(b *testing.B)) entry {
		fmt.Fprintf(os.Stderr, "delta-bench: running %s...\n", name)
		e := measure(f)
		doc.Benchmarks[name] = e
		return e
	}
	engSerial := run("EngineSerial", func(b *testing.B) { benchkit.EngineRun(b, 1) })
	engPar := run("EngineParallel", func(b *testing.B) { benchkit.EngineRun(b, 0) })
	suiteSerial := run("SuiteSerial", benchkit.SuiteSerial)
	suitePar := run("SuiteParallel", benchkit.SuiteParallel)
	suiteCached := run("SuiteCached", benchkit.SuiteCached)
	perPoint := run("L2SweepPerPoint", benchkit.L2SweepPerPoint)
	grouped := run("L2SweepGrouped", benchkit.L2SweepGrouped)

	doc.Speedup["engine_parallel_vs_serial"] = engSerial.NsPerOp / engPar.NsPerOp
	doc.Speedup["suite_parallel_vs_serial"] = suiteSerial.NsPerOp / suitePar.NsPerOp
	doc.Speedup["l2sweep_grouped_vs_per_point"] = perPoint.NsPerOp / grouped.NsPerOp
	doc.Speedup["suite_cached_vs_cold"] = suitePar.NsPerOp / suiteCached.NsPerOp

	if *workersSweep {
		doc.Scaling = map[string]entry{}
		seen := map[int]bool{}
		for _, w := range []int{1, 2, 4, doc.GOMAXPROCS} {
			if seen[w] {
				continue
			}
			seen[w] = true
			doc.Scaling[fmt.Sprintf("engine_w%d", w)] =
				run(fmt.Sprintf("EngineW%d", w), func(b *testing.B) { benchkit.EngineRun(b, w) })
		}
	}

	scen := run("ScenarioStream", benchkit.ScenarioStream)
	doc.Throughput["scenario_points_per_sec"] = scen.Metrics["points/s"]

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
		f.Close()
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("delta-bench: wrote %s (engine %.2fx, suite %.2fx, l2 sweep %.2fx, warm/cold %.2fx at GOMAXPROCS=%d)\n",
		*out, doc.Speedup["engine_parallel_vs_serial"],
		doc.Speedup["suite_parallel_vs_serial"],
		doc.Speedup["l2sweep_grouped_vs_per_point"], doc.Speedup["suite_cached_vs_cold"], doc.GOMAXPROCS)

	failed := false
	gate := func(bad bool, format string, args ...any) {
		if !bad {
			return
		}
		fmt.Fprintf(os.Stderr, "delta-bench: WARNING: "+format+"\n", args...)
		if *checkAgainst != "" {
			failed = true
		}
	}
	// Warm must beat cold: a memo hit costing more than the simulation it
	// replaces means the memo lookup path has regressed.
	gate(doc.Speedup["suite_cached_vs_cold"] < 1,
		"SuiteCached (%.0f ns/op) is slower than SuiteParallel (%.0f ns/op): memo hits cost more than simulating",
		suiteCached.NsPerOp, suitePar.NsPerOp)
	// A grouped L2 sweep runs each layer's L1 phase once instead of once
	// per point, which measured about 1.9x at GOMAXPROCS 1 and 2; below
	// minGroupedSpeedup the points have stopped sharing their passes.
	gate(doc.Speedup["l2sweep_grouped_vs_per_point"] < minGroupedSpeedup,
		"l2sweep_grouped_vs_per_point %.2fx < %.1fx: the grouped L2 sweep no longer shares its L1 phase across points",
		doc.Speedup["l2sweep_grouped_vs_per_point"], minGroupedSpeedup)
	// Parallel-execution gates only bind where the cores exist to parallelize
	// (the engine degrades gracefully to ~1.0x on small hosts).
	if doc.GOMAXPROCS >= 4 {
		gate(doc.Speedup["engine_parallel_vs_serial"] < 1.05,
			"engine_parallel_vs_serial %.2fx < 1.05x at GOMAXPROCS=%d: the parallel engine is not paying for itself",
			doc.Speedup["engine_parallel_vs_serial"], doc.GOMAXPROCS)
		gate(doc.Speedup["suite_parallel_vs_serial"] < 1.0,
			"suite_parallel_vs_serial %.2fx < 1.0x at GOMAXPROCS=%d: the pipeline fan-out is slower than the serial driver",
			doc.Speedup["suite_parallel_vs_serial"], doc.GOMAXPROCS)
	} else if doc.GOMAXPROCS >= 2 && doc.Speedup["suite_parallel_vs_serial"] < 1.0 {
		fmt.Fprintf(os.Stderr,
			"delta-bench: WARNING: suite_parallel_vs_serial %.2fx < 1.0x on a multi-core host (GOMAXPROCS=%d)\n",
			doc.Speedup["suite_parallel_vs_serial"], doc.GOMAXPROCS)
	}
	if base != nil && !checkRegression(*base, *checkAgainst, engSerial) {
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// readBaseline reads the -check-against document.
func readBaseline(path string) (baseline, error) {
	var base baseline
	buf, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("check-against: %w", err)
	}
	if err := json.Unmarshal(buf, &base); err != nil {
		return base, fmt.Errorf("check-against %s: %w", path, err)
	}
	return base, nil
}

// sameFile reports whether a and b name one existing file.
func sameFile(a, b string) bool {
	ia, errA := os.Stat(a)
	ib, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(ia, ib)
}

// checkRegression compares the fresh EngineSerial throughput to the
// baseline read from path and reports (loudly) whether it is acceptable.
func checkRegression(base baseline, path string, engSerial entry) bool {
	ref, ok := base.Benchmarks["EngineSerial"]
	if !ok || ref.Metrics[engineSerialMetric] == 0 {
		fmt.Fprintf(os.Stderr, "delta-bench: check-against %s: no EngineSerial %s metric recorded; skipping check\n",
			path, engineSerialMetric)
		return true
	}
	baseline := ref.Metrics[engineSerialMetric]
	fresh := engSerial.Metrics[engineSerialMetric]
	ratio := fresh / baseline
	fmt.Fprintf(os.Stderr, "delta-bench: EngineSerial %.2f %s vs baseline %.2f (%.2fx)\n",
		fresh, engineSerialMetric, baseline, ratio)
	if ratio < 1-regressionTolerance {
		fmt.Fprintf(os.Stderr,
			"delta-bench: FAIL: EngineSerial regressed >%d%% vs %s (%.2f -> %.2f %s)\n",
			int(regressionTolerance*100), path, baseline, fresh, engineSerialMetric)
		return false
	}
	return true
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "delta-bench:", err)
	return 1
}
