// Command delta-experiments regenerates the paper's evaluation artifacts:
// every table and figure of Section VII and the appendices. -list prints
// the experiment index.
//
// Examples:
//
//	delta-experiments -list
//	delta-experiments -run fig11
//	delta-experiments -run all -simbatch 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"delta/internal/experiments"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		run      = flag.String("run", "all", "experiment id (tab1, fig4, ...) or 'all'")
		batch    = flag.Int("batch", 256, "analytical-model mini-batch")
		simBatch = flag.Int("simbatch", 4, "trace-simulation mini-batch")
		timBatch = flag.Int("timingbatch", 32, "timing-simulation mini-batch")
		quick    = flag.Bool("quick", false, "trim sweeps for a fast smoke run")
		csvDir   = flag.String("csvdir", "", "also write each table as CSV into this directory")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "delta-experiments:", err)
			os.Exit(1)
		}
	}

	if *list {
		for _, d := range experiments.Drivers() {
			fmt.Printf("%-6s %s\n", d.ID, d.Title)
		}
		return
	}

	cfg := experiments.Config{
		Batch: *batch, SimBatch: *simBatch, TimingBatch: *timBatch, Quick: *quick,
	}

	var drivers []experiments.Driver
	if *run == "all" {
		drivers = experiments.Drivers()
	} else {
		d, err := experiments.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "delta-experiments:", err)
			os.Exit(1)
		}
		drivers = []experiments.Driver{d}
	}

	for _, d := range drivers {
		start := time.Now()
		tables, err := d.Run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "delta-experiments: %s: %v\n", d.ID, err)
			os.Exit(1)
		}
		fmt.Printf("### %s — %s (%.1fs)\n\n", d.ID, d.Title, time.Since(start).Seconds())
		for i, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "delta-experiments:", err)
				os.Exit(1)
			}
			fmt.Println()
			if *csvDir != "" {
				name := fmt.Sprintf("%s_%d.csv", d.ID, i)
				f, err := os.Create(filepath.Join(*csvDir, name))
				if err == nil {
					err = t.RenderCSV(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "delta-experiments:", err)
					os.Exit(1)
				}
			}
		}
	}
}
