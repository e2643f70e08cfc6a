// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII and the appendices). Each driver returns one or
// more report tables printing the same rows/series the paper plots; the
// "measured" side of every comparison comes from the trace-driven simulator
// (README, Performance).
package experiments

import (
	"context"
	"fmt"
	"sort"

	"delta/internal/report"
)

// Config scopes an experiment run.
type Config struct {
	// Batch is the mini-batch for analytical-model evaluations
	// (the paper uses 256).
	Batch int

	// SimBatch is the mini-batch for trace-driven simulations. Traffic per
	// im2col geometry is batch-linear, so a reduced batch preserves the
	// model-vs-measured ratios while keeping traces tractable.
	SimBatch int

	// TimingBatch is the mini-batch for event-driven timing simulations.
	TimingBatch int

	// Quick trims sweeps to a handful of points (used by unit tests).
	Quick bool
}

// DefaultConfig returns the configuration `delta experiments` runs with
// when no flag overrides it.
func DefaultConfig() Config {
	return Config{Batch: 256, SimBatch: 4, TimingBatch: 32}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Batch == 0 {
		c.Batch = d.Batch
	}
	if c.SimBatch == 0 {
		c.SimBatch = d.SimBatch
	}
	if c.TimingBatch == 0 {
		c.TimingBatch = d.TimingBatch
	}
	return c
}

// Driver regenerates one paper artifact. Run honors ctx cancellation:
// sweeps and simulations stop early when the caller is interrupted.
type Driver struct {
	ID    string // "fig11", "tab1", ...
	Title string
	Run   func(context.Context, Config) ([]*report.Table, error)
}

var registry []Driver

func register(id, title string, run func(context.Context, Config) ([]*report.Table, error)) {
	registry = append(registry, Driver{ID: id, Title: title, Run: run})
}

// Drivers returns all registered experiment drivers in paper order.
func Drivers() []Driver {
	out := append([]Driver(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

func order(id string) int {
	for i, want := range []string{
		"tab1", "fig4", "fig6", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"train", "explore",
	} {
		if id == want {
			return i
		}
	}
	return 1 << 20
}

// ByID returns the named driver.
func ByID(id string) (Driver, error) {
	for _, d := range registry {
		if d.ID == id {
			return d, nil
		}
	}
	return Driver{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
