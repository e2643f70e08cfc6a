// Command perfbench is the repository benchmark: it starts the system
// under test from this checkout, runs one seeded workload against it for a
// fixed time, checks every answer against the delta facade, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// the last line of its output. See README.md for the catalogue.
//
//	perfbench --workload explore-jobs --seed 1 --seconds 15 --trace 0
//
// run.sh builds delta-server and this command, then runs it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child-sweep" {
		os.Exit(childSweep())
	}
	var (
		name    = flag.String("workload", "", "explore-jobs | sim-l2sweep | fleet-sim")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "length of the timed phase (required)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		server  = flag.String("server", ".bench_build/bin/delta-server", "delta-server binary")
		outDir  = flag.String("out", ".bench_build", "directory for process logs and span dumps")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok && *name != "sim-l2sweep" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rc := runConfig{
		workload: *name, seed: *seed, trace: *trace == 1, server: *server, self: self,
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     filepath.Join(*outDir, "runs", fmt.Sprintf("%s-seed%d-trace%d-%d", *name, *seed, *trace, os.Getpid())),
	}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	// Every exit path kills the processes this run started: an interrupt
	// here, and killAll below on return.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	ctx := context.Background()
	var out *outcome
	if rc.workload == "sim-l2sweep" {
		out, err = runSweep(ctx, rc)
	} else {
		out, err = runServer(ctx, rc, workloads[rc.workload])
	}
	stray := killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v (logs in %s)\n", rc.workload, err, rc.dir)
		os.Exit(1)
	}
	if stray {
		out.check(fmt.Errorf("a process outlived its kill"))
	}
	os.Exit(report(rc, out))
}

// report prints the human-readable summary, a detail line, and the result
// line, and returns the exit code.
func report(rc runConfig, out *outcome) int {
	metrics := map[string]map[string]any{}
	put := func(name string, v float64, unit string) {
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	var samples map[string]any
	if rc.trace {
		for _, l := range layerNames {
			put(l.name, out.layers[l.name], l.unit)
		}
	} else {
		put("setup_s", median(out.setups), "s")
		put("points_per_s", ratio(float64(out.points), out.wall), "points/s")
		put("op_p50_ms", quantile(out.opMs, 0.5), "ms")
		put("op_p90_ms", quantile(out.opMs, 0.9), "ms")
		put("peak_rss_mb", out.rssMB, "MB")
		samples = map[string]any{
			"setup_s": len(out.setups), "points": out.points,
			"op_ms": map[string]any{"n": len(out.opMs), "beyond_p90": tailSamples(len(out.opMs), 0.9)},
		}
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, metrics[k]["value"], metrics[k]["unit"])
	}
	correct := out.failed == 0 && out.attempted > 0
	detail := map[string]any{
		"workload": rc.workload, "seed": rc.seed, "seconds": rc.seconds.Seconds(), "trace": rc.trace,
		"host": host(), "samples": samples, "setups_s": out.setups, "errors": out.errs, "info": out.info,
	}
	line, _ := json.Marshal(map[string]any{"detail": detail})
	fmt.Println(string(line))
	res, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	fmt.Println(string(res))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; logs in %s\n", out.failed, out.attempted, rc.dir)
		return 1
	}
	// A passing run keeps only its span dump.
	logs, _ := filepath.Glob(filepath.Join(rc.dir, "*.log"))
	for _, f := range logs {
		os.Remove(f)
	}
	if !rc.trace {
		os.Remove(rc.dir)
	}
	return 0
}

// host records what a result was measured on.
func host() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "cpu_model": model,
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}
}
