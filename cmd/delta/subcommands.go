package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"delta"
	"delta/internal/experiments"
	"delta/internal/report"
)

// exploreCmd searches a GPU design space with the DeLTA model: it
// enumerates resource-scaling grids around a baseline device, prices each
// candidate with a silicon cost model, and reports the Pareto frontier of
// (hardware cost, predicted speedup) for a CNN workload — the design-space
// exploration the paper's conclusion frames as a convex optimization.
// Candidates fan out across all cores through the pipeline; Ctrl-C cancels
// a sweep cleanly.
func exploreCmd(fs *flag.FlagSet) action {
	gpuName := fs.String("gpu", "TITAN Xp", "baseline device")
	netName := fs.String("net", "resnet152", "workload: alexnet, vgg16, googlenet, resnet50, resnet152 (full instances)")
	batch := fs.Int("b", 256, "mini-batch size")
	target := fs.Float64("target", 0, "report the cheapest design hitting this speedup (0 = skip)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")

	return func(ctx context.Context, stdout, _ io.Writer) error {
		base, err := delta.DeviceByName(*gpuName)
		if err != nil {
			return err
		}
		name := *netName
		if name == "resnet152" {
			// The scaling study runs every conv instance of the real network.
			name = "resnet152full"
		}
		net, err := delta.NetworkByName(name, *batch)
		if err != nil {
			return err
		}

		p := delta.NewPipeline(delta.WithPipelineWorkers(*workers))
		cands, err := p.Explore(ctx, delta.ExploreWorkload{Net: net},
			base, delta.DefaultExploreAxes().Enumerate(), delta.DefaultCostModel())
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("Pareto frontier: %s on scaled %s (%d candidates)", net.Name, base.Name, len(cands)),
			"cost", "speedup", "eff", "SMs", "MAC/SM", "mem BW", "SM-local")
		for _, c := range delta.ParetoFront(cands) {
			t.AddRow(c.Cost, c.Speedup, c.Efficiency(), scaleCell(c.Scale.NumSM),
				scaleCell(c.Scale.MACPerSM), scaleCell(c.Scale.DRAMBW), scaleCell(c.Scale.RegPerSM))
		}
		if err := t.Render(stdout); err != nil {
			return err
		}

		if *target > 0 {
			if best, ok := delta.CheapestAtLeast(cands, *target); ok {
				fmt.Fprintf(stdout, "\nCheapest design reaching %.1fx: %s\n", *target, best)
				fmt.Fprintf(stdout, "  scales: %+v\n", best.Scale)
			} else {
				fmt.Fprintf(stdout, "\nNo enumerated design reaches %.1fx.\n", *target)
			}
		}
		return nil
	}
}

// scaleCell prints a scale factor, where 0 means unscaled.
func scaleCell(x float64) string {
	if x == 0 {
		x = 1
	}
	return fmt.Sprintf("%.1fx", x)
}

// simCmd runs the trace-driven memory-hierarchy simulator on one
// convolution layer and compares its "measured" traffic against the DeLTA
// analytical model — a single-layer slice of the Fig. 11 validation.
func simCmd(fs *flag.FlagSet) action {
	gpuName := fs.String("gpu", "TITAN Xp", "device: 'TITAN Xp', 'P100', or 'V100'")
	layer := convFlags(fs, delta.Conv{B: 4, Ci: 192, Hi: 28, Co: 96, Hf: 3, Stride: 1, Pad: 1})
	skipPad := fs.Bool("skippad", false, "predicate off zero-padding loads")
	timing := fs.Bool("timing", false, "also run the event-driven timing simulator")
	workers := fs.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS, 1 = serial reference engine)")
	rowMaj := fs.Bool("rowmajor", false, "row-major CTA scheduling ablation (paper assumes column-wise)")
	maxWav := fs.Int("maxwaves", 0, "truncate after N CTA waves (0 = simulate everything; counters are not scaled)")
	verify := fs.Bool("verify", false, "also run the serial reference engine and check the parallel result is bit-identical")

	return func(_ context.Context, stdout, _ io.Writer) error {
		dev, err := delta.DeviceByName(*gpuName)
		if err != nil {
			return err
		}
		l := layer()
		cfg := delta.SimConfig{Device: dev, SkipPadding: *skipPad,
			RowMajorScheduling: *rowMaj, MaxWaves: *maxWav, Workers: *workers}

		est, err := delta.EstimateTraffic(l, dev, delta.TrafficOptions{})
		if err != nil {
			return err
		}
		sim, err := delta.Simulate(l, cfg)
		if err != nil {
			return err
		}
		if *verify {
			eff := *workers
			if eff < 1 {
				eff = runtime.GOMAXPROCS(0)
			}
			if eff <= 1 {
				fmt.Fprintln(stdout, "verify: skipped — the engine resolved to the serial reference path"+
					" (use -workers >= 2 to exercise the parallel engine)")
			} else {
				ref := cfg
				ref.Workers = 1
				serial, err := delta.Simulate(l, ref)
				if err != nil {
					return err
				}
				if serial != sim {
					return fmt.Errorf("parallel engine diverged from serial reference:\n%+v\n%+v", sim, serial)
				}
				fmt.Fprintln(stdout, "verify: parallel engine bit-identical to serial reference")
			}
		}

		t := report.NewTable(
			fmt.Sprintf("Simulator vs DeLTA model: %s on %s", l, dev.Name),
			"level", "model", "simulated", "model/sim")
		t.AddRow("L1", report.Bytes(est.L1Bytes), report.Bytes(sim.L1Bytes), est.L1Bytes/sim.L1Bytes)
		t.AddRow("L2", report.Bytes(est.L2Bytes), report.Bytes(sim.L2Bytes), est.L2Bytes/sim.L2Bytes)
		t.AddRow("DRAM", report.Bytes(est.DRAMBytes), report.Bytes(sim.DRAMBytes), est.DRAMBytes/sim.DRAMBytes)
		t.AddRow("L1 miss rate", report.Pct(est.MissRateL1()), report.Pct(sim.MissRateL1()), "")
		t.AddRow("L2 miss rate", report.Pct(est.MissRateL2()), report.Pct(sim.MissRateL2()), "")
		if err := t.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nCTAs: %d (%s tile, %d main loops each)\n",
			sim.TotalCTAs, sim.Grid.Tile, sim.Grid.MainLoops())

		if *timing {
			res, err := delta.EstimatePerformance(est, dev)
			if err != nil {
				return err
			}
			ts, err := delta.SimulateTiming(est, dev)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nExecution time: model %.3f ms (%s), timing sim %.3f ms, ratio %.3f\n",
				res.Seconds*1e3, res.Bottleneck, ts.Seconds*1e3, res.Cycles/ts.Cycles)
		}
		return nil
	}
}

// experimentsCmd regenerates the paper's evaluation artifacts: every table
// and figure of Section VII and the appendices. -list prints the
// experiment index.
func experimentsCmd(fs *flag.FlagSet) action {
	list := fs.Bool("list", false, "list available experiments")
	id := fs.String("run", "all", "experiment id (tab1, fig4, ...) or 'all'")
	batch := fs.Int("batch", 256, "analytical-model mini-batch")
	simBatch := fs.Int("simbatch", 4, "trace-simulation mini-batch")
	timBatch := fs.Int("timingbatch", 32, "timing-simulation mini-batch")
	quick := fs.Bool("quick", false, "trim sweeps for a fast smoke run")
	csvDir := fs.String("csvdir", "", "also write each table as CSV into this directory")

	return func(ctx context.Context, stdout, _ io.Writer) error {
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
		}
		if *list {
			for _, d := range experiments.Drivers() {
				fmt.Fprintf(stdout, "%-6s %s\n", d.ID, d.Title)
			}
			return nil
		}

		cfg := experiments.Config{
			Batch: *batch, SimBatch: *simBatch, TimingBatch: *timBatch, Quick: *quick,
		}
		drivers := experiments.Drivers()
		if *id != "all" {
			d, err := experiments.ByID(*id)
			if err != nil {
				return err
			}
			drivers = []experiments.Driver{d}
		}

		for _, d := range drivers {
			start := time.Now()
			tables, err := d.Run(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", d.ID, err)
			}
			fmt.Fprintf(stdout, "### %s — %s (%.1fs)\n\n", d.ID, d.Title, time.Since(start).Seconds())
			for i, t := range tables {
				if err := t.Render(stdout); err != nil {
					return err
				}
				fmt.Fprintln(stdout)
				if *csvDir != "" {
					var csv strings.Builder
					_ = t.RenderCSV(&csv) // a strings.Builder takes every write
					path := filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", d.ID, i))
					if err := os.WriteFile(path, []byte(csv.String()), 0o666); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
}
