// Command deltasim runs the trace-driven memory-hierarchy simulator on a
// convolution layer and compares its "measured" traffic against the DeLTA
// analytical model — a single-layer slice of the Fig. 11 validation.
//
// Example:
//
//	deltasim -gpu "TITAN Xp" -b 4 -ci 192 -hw 28 -co 96 -f 3 -s 1 -p 1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"delta"
	"delta/internal/report"
)

func main() {
	var (
		gpuName = flag.String("gpu", "TITAN Xp", "device: 'TITAN Xp', 'P100', or 'V100'")
		batch   = flag.Int("b", 4, "mini-batch size (simulation cost is linear in B)")
		ci      = flag.Int("ci", 192, "input channels")
		hw      = flag.Int("hw", 28, "input feature height/width")
		co      = flag.Int("co", 96, "output channels")
		f       = flag.Int("f", 3, "filter height/width")
		stride  = flag.Int("s", 1, "stride")
		pad     = flag.Int("p", 1, "zero padding")
		skipPad = flag.Bool("skippad", false, "predicate off zero-padding loads")
		timing  = flag.Bool("timing", false, "also run the event-driven timing simulator")
		workers = flag.Int("workers", 0, "engine worker goroutines (0 = GOMAXPROCS, 1 = serial reference engine)")
		rowMaj  = flag.Bool("rowmajor", false, "row-major CTA scheduling ablation (paper assumes column-wise)")
		maxWav  = flag.Int("maxwaves", 0, "truncate after N CTA waves (0 = simulate everything; counters are not scaled)")
		verify  = flag.Bool("verify", false, "also run the serial reference engine and check the parallel result is bit-identical")
	)
	flag.Parse()

	dev, err := delta.DeviceByName(*gpuName)
	if err != nil {
		fatal(err)
	}
	l := delta.Conv{Name: "layer", B: *batch, Ci: *ci, Hi: *hw, Wi: *hw,
		Co: *co, Hf: *f, Wf: *f, Stride: *stride, Pad: *pad}
	cfg := delta.SimConfig{Device: dev, SkipPadding: *skipPad,
		RowMajorScheduling: *rowMaj, MaxWaves: *maxWav, Workers: *workers}

	est, err := delta.EstimateTraffic(l, dev, delta.TrafficOptions{})
	if err != nil {
		fatal(err)
	}
	sim, err := delta.Simulate(l, cfg)
	if err != nil {
		fatal(err)
	}
	if *verify {
		eff := *workers
		if eff < 1 {
			eff = runtime.GOMAXPROCS(0)
		}
		if eff <= 1 {
			fmt.Println("verify: skipped — the engine resolved to the serial reference path" +
				" (use -workers >= 2 to exercise the parallel engine)")
		} else {
			ref := cfg
			ref.Workers = 1
			serial, err := delta.Simulate(l, ref)
			if err != nil {
				fatal(err)
			}
			if serial != sim {
				fatal(fmt.Errorf("parallel engine diverged from serial reference:\n%+v\n%+v", sim, serial))
			}
			fmt.Println("verify: parallel engine bit-identical to serial reference")
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
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("\nCTAs: %d (%s tile, %d main loops each)\n",
		sim.TotalCTAs, sim.Grid.Tile, sim.Grid.MainLoops())

	if *timing {
		res, err := delta.EstimatePerformance(est, dev)
		if err != nil {
			fatal(err)
		}
		ts, err := delta.SimulateTiming(est, dev)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nExecution time: model %.3f ms (%s), timing sim %.3f ms, ratio %.3f\n",
			res.Seconds*1e3, res.Bottleneck, ts.Seconds*1e3, res.Cycles/ts.Cycles)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deltasim:", err)
	os.Exit(1)
}
