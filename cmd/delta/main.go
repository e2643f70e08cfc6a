// Command delta is the DeLTA command line over the facade in package delta.
// With no subcommand it predicts the memory traffic, execution time and
// bottleneck of a convolution layer, a whole CNN or a declarative sweep.
// Its subcommands explore a GPU design space, run the trace-driven
// simulator on one layer, and regenerate the paper's tables and figures.
//
// Examples:
//
//	delta -gpu "TITAN Xp" -b 256 -ci 256 -hw 13 -co 384 -f 3 -s 1 -p 1
//	delta -gpu V100 -net resnet152
//	delta -net vgg16 -model prior -missrate 1.0
//	delta -scenario sweep.json
//	delta explore -net resnet152 -target 4.0
//	delta sim -gpu "TITAN Xp" -b 4 -ci 192 -hw 28 -co 96 -f 3 -s 1 -p 1
//	delta experiments -run fig11
//
// A failed command prints "<command>: <error>" and exits 1; a usage error
// exits 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"delta"
	"delta/internal/report"
	"delta/internal/spec"
)

// An action runs a parsed command, writing its report to stdout.
type action func(ctx context.Context, stdout, stderr io.Writer) error

// subcommands register their flags on a flag set and return the action
// that runs once the flags are parsed. Without one, delta runs predictCmd.
var subcommands = map[string]func(fs *flag.FlagSet) action{
	"explore":     exploreCmd,
	"sim":         simCmd,
	"experiments": experimentsCmd,
}

const subcommandNames = "explore, sim, experiments"

// usageError is a command line a command cannot run; it exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 0 on success
// or -h, 1 when the command fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	name, act, err := parse(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := act(ctx, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// parse splits off the subcommand and parses its flags, returning the
// command's name and action. Like the flag package, it reports a usage
// error on stderr before returning it.
func parse(args []string, stderr io.Writer) (string, action, error) {
	name, cmd := "delta", predictCmd
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, ok := subcommands[args[0]]
		if !ok {
			return name, nil, usagef(stderr, name, "unknown subcommand %q; subcommands: %s", args[0], subcommandNames)
		}
		name, cmd, args = "delta "+args[0], sub, args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	act := cmd(fs)
	if err := fs.Parse(args); err != nil {
		return name, nil, err
	}
	if fs.NArg() == 0 {
		return name, act, nil
	}
	if word := fs.Arg(0); name == "delta" && subcommands[word] != nil {
		return name, nil, usagef(stderr, name, "the subcommand comes first: delta %s [flags]", word)
	}
	return name, nil, usagef(stderr, name, "unexpected argument %q; subcommands: %s", fs.Arg(0), subcommandNames)
}

// usagef reports a usage error on stderr the way run reports a failed
// command, and returns it.
func usagef(stderr io.Writer, name, format string, a ...any) error {
	err := usageError(fmt.Sprintf(format, a...))
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return err
}

// convFlags registers the single-layer geometry flags with def's fields as
// their defaults, and returns a function that builds the parsed layer.
func convFlags(fs *flag.FlagSet, def delta.Conv) func() delta.Conv {
	l := def
	fs.IntVar(&l.B, "b", def.B, "mini-batch size")
	fs.IntVar(&l.Ci, "ci", def.Ci, "input channels")
	fs.IntVar(&l.Hi, "hw", def.Hi, "input feature height/width")
	fs.IntVar(&l.Co, "co", def.Co, "output channels")
	fs.IntVar(&l.Hf, "f", def.Hf, "filter height/width")
	fs.IntVar(&l.Stride, "s", def.Stride, "stride")
	fs.IntVar(&l.Pad, "p", def.Pad, "zero padding")
	return func() delta.Conv {
		l.Name, l.Wi, l.Wf = "layer", l.Hi, l.Hf
		return l
	}
}

// writeTable writes t to w as an aligned table, or as CSV when csv is set.
func writeTable(w io.Writer, t *report.Table, csv bool) error {
	if csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

// predictCmd predicts per-layer traffic, time and bottleneck for one layer,
// a registered network or a -layers file, through the shared concurrent
// pipeline. A -scenario file is a declarative multi-axis sweep (see
// internal/spec): workloads × devices × batches × models × passes stream
// through the pipeline, one result row per point as each completes.
func predictCmd(fs *flag.FlagSet) action {
	gpuName := fs.String("gpu", "TITAN Xp", "device: 'TITAN Xp', 'P100', or 'V100'")
	netName := fs.String("net", "", "predict a whole network: alexnet, vgg16, googlenet, resnet50, resnet152, resnet152full")
	layersIn := fs.String("layers", "", "JSON layer-list file to model instead of -net (see internal/spec)")
	devIn := fs.String("device", "", "JSON device file overriding -gpu (see internal/spec)")
	scenIn := fs.String("scenario", "", "JSON scenario file: stream a declarative multi-axis sweep (see internal/spec)")
	layer := convFlags(fs, delta.Conv{B: 256, Ci: 256, Hi: 13, Co: 384, Hf: 3, Stride: 1, Pad: 1})
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	train := fs.Bool("train", false, "model the full training step (fprop + dgrad + wgrad)")
	model := fs.String("model", "delta", "model variant: delta, prior, roofline")
	missRate := fs.Float64("missrate", 1.0, "fixed miss rate for -model prior")

	return func(ctx context.Context, stdout, stderr io.Writer) error {
		if *layersIn != "" && *netName != "" {
			return usageError("specify either -layers or -net, not both")
		}
		if *scenIn != "" {
			return runScenario(ctx, *scenIn, *csv, stdout, stderr)
		}
		dev, err := delta.DeviceByName(*gpuName)
		if err == nil && *devIn != "" {
			dev, err = readFile(*devIn, spec.ReadDevice)
		}
		if err != nil {
			return err
		}

		l := layer()
		batch := strconv.Itoa(l.B)
		var net delta.Network
		switch {
		case *layersIn != "":
			batch = "-" // a layer list carries its own mini-batch
			net, err = readFile(*layersIn, func(r io.Reader) (delta.Network, error) {
				return spec.ReadNetwork(*layersIn, r)
			})
		case *netName != "":
			net, err = delta.NetworkByName(*netName, l.B)
		default:
			net = delta.Network{Name: "custom", Layers: []delta.Conv{l}, Counts: []int{1}}
		}
		if err != nil {
			return err
		}

		if *train {
			if *model != "delta" {
				return fmt.Errorf("-train models the delta training step; it cannot combine with -model %s", *model)
			}
			return renderTraining(ctx, stdout, net, dev, batch, *csv)
		}
		nr, err := delta.DefaultPipeline().Network(ctx, delta.NetworkEvalRequest{
			Net: net, Device: dev,
			Model: delta.EvalModel(*model), MissRate: *missRate,
		})
		if err != nil {
			return err
		}
		t := report.NewTable(
			fmt.Sprintf("%s predictions, %s on %s (B=%s)", nr.Model, net.Name, dev.Name, batch),
			"layer", "L1", "L2", "DRAM", "ms", "bottleneck", "MAC util")
		var totalMs float64
		for _, r := range nr.Results {
			totalMs += r.Seconds * 1e3
			if r.Model == delta.ModelRoofline {
				t.AddRow(r.Layer.Name, "-", "-", "-", r.Seconds*1e3, r.Roofline.Bound.String(), "-")
				continue
			}
			t.AddRow(r.Layer.Name,
				report.Bytes(r.Traffic.L1Bytes), report.Bytes(r.Traffic.L2Bytes), report.Bytes(r.Traffic.DRAMBytes),
				r.Seconds*1e3, r.Perf.Bottleneck.String(), report.Pct(r.Perf.Utilization))
		}
		t.AddRow("== total", "", "", "", totalMs, "", "")
		return writeTable(stdout, t, *csv)
	}
}

// readFile opens path and decodes it with read.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}

// runScenario streams a declarative sweep file, printing one row per
// point as results arrive (progress on stderr, the table on stdout).
func runScenario(ctx context.Context, path string, csv bool, stdout, stderr io.Writer) error {
	sc, err := readFile(path, spec.ReadScenario)
	if err != nil {
		return err
	}
	ch, err := delta.Stream(ctx, sc, delta.WithStreamErrorPolicy(delta.StreamCollectPartial))
	if err != nil {
		return err
	}
	name := sc.Name
	if name == "" {
		name = path
	}
	t := report.NewTable(
		fmt.Sprintf("scenario %s (%d points)", name, sc.Size()),
		"workload", "device", "batch", "model", "pass", "ms", "status")
	failed := 0
	for upd := range ch {
		p := upd.Point
		fmt.Fprintf(stderr, "delta: [%d/%d] %s\n", upd.Done, upd.Total, p)
		model, pass := p.Model, p.Pass
		if p.Sim != nil {
			model, pass = "sim", "-"
		}
		batch := strconv.Itoa(p.Batch)
		if p.Batch == 0 {
			batch = "-" // explicit layer lists carry their own mini-batch
		}
		switch {
		case upd.Err != nil:
			failed++
			t.AddRow(p.Workload, p.Device.Name, batch, model, pass, "-", upd.Err.Error())
		case p.Sim != nil:
			var dram float64
			for _, r := range upd.Sim {
				dram += r.DRAMBytes
			}
			t.AddRow(p.Workload, p.Device.Name, batch, model, pass,
				report.Bytes(dram)+" DRAM", "ok")
		default:
			t.AddRow(p.Workload, p.Device.Name, batch, model, pass,
				upd.Network.Seconds*1e3, "ok")
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := writeTable(stdout, t, csv); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenario points failed", failed, sc.Size())
	}
	return nil
}

// renderTraining prints the training-step breakdown: forward, data-gradient
// and weight-gradient times per layer with their bottlenecks.
func renderTraining(ctx context.Context, w io.Writer, net delta.Network, dev delta.GPU, batch string, csv bool) error {
	steps, total, err := delta.DefaultPipeline().Training(ctx, net, dev, delta.TrafficOptions{})
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("DeLTA training-step predictions, %s on %s (B=%s)", net.Name, dev.Name, batch),
		"layer", "fprop ms", "dgrad ms", "wgrad ms", "step ms", "bwd/fwd", "fprop bottleneck")
	for _, s := range steps {
		dg := "-"
		if !s.SkipDgrad {
			dg = fmt.Sprintf("%.4g", s.Dgrad.Seconds*1e3)
		}
		t.AddRow(s.Layer.Name,
			s.Fprop.Seconds*1e3, dg, s.Wgrad.Seconds*1e3,
			s.Seconds()*1e3, s.BackwardOverForward(), s.Fprop.Bottleneck.String())
	}
	t.AddRow("== total (weighted)", "", "", "", total*1e3, "", "")
	return writeTable(w, t, csv)
}
