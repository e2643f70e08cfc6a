// Package scenario defines the declarative sweep request that every batch
// consumer of the model shares: a Scenario names a cross-product of
// workloads × devices × batch sizes × model variants × passes × traffic
// options (plus optional trace-driven simulator configurations), and
// Expand flattens it into the ordered list of evaluation points the
// pipeline streams through.
//
// A Scenario is data, not code: it can be built in Go, decoded from JSON
// (internal/spec), posted to the delta-server /v2 jobs API, or handed to
// `delta -scenario file.json`. Expansion is deterministic — the point
// order, the per-point indices, and the total count are fixed by the
// scenario alone — so streamed results can be correlated with progress
// counts and re-runs memo-hit the pipeline cache.
package scenario

import (
	"fmt"
	"math"

	"delta/internal/cnn"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/sim/engine"
	"delta/internal/traffic"
)

// Model and pass axis values. They mirror the pipeline selectors (the
// pipeline converts them); scenario keeps its own strings so the package
// stays importable from the pipeline without a cycle.
const (
	ModelDelta    = "delta"
	ModelPrior    = "prior"
	ModelRoofline = "roofline"

	PassInference = "inference"
	PassTraining  = "training"
)

// Workload names one network of the sweep: either a registered network
// (resolved by name at every batch-axis value) or an explicit layer list
// (used verbatim; the batch axis does not apply because each layer carries
// its own mini-batch).
type Workload struct {
	// Name is a registered network name (cnn.ByName) when Net is empty.
	Name string

	// Net is an explicit layer list with counts.
	Net cnn.Network
}

// explicit reports whether the workload carries its own layers.
func (w Workload) explicit() bool { return len(w.Net.Layers) > 0 }

// label returns the display name of the workload.
func (w Workload) label() string {
	if w.explicit() {
		if w.Net.Name != "" {
			return w.Net.Name
		}
		return "custom"
	}
	return w.Name
}

// Scenario is a declarative evaluation sweep. Zero-value axes take the
// documented defaults, so the minimal scenario is one workload plus one
// device.
type Scenario struct {
	// Name labels the scenario in results and job listings.
	Name string

	// Workloads is the network axis (at least one entry).
	Workloads []Workload

	// Devices is the device axis (at least one entry). Entries are fully
	// resolved gpu.Device values; registry names and GPUScale grids are
	// resolved by the codec layer (internal/spec) before expansion.
	Devices []gpu.Device

	// Batches is the mini-batch axis for named workloads; empty means
	// one point at cnn.DefaultBatch (encoded as 0).
	Batches []int

	// Models is the analytical-model axis (ModelDelta, ModelPrior,
	// ModelRoofline). Empty means ModelDelta only — unless SimConfigs is
	// set, in which case an empty Models axis means "simulation only"
	// (list models explicitly to sweep both).
	Models []string

	// Passes is the pass axis (PassInference, PassTraining); empty means
	// PassInference only. Training combines only with ModelDelta;
	// cross-product combinations with other models are skipped, not
	// rejected, so dense grids stay declarative.
	Passes []string

	// MissRate parameterizes ModelPrior points (0 means 1.0).
	MissRate float64

	// Options is the traffic-option axis; empty means one zero-value
	// entry (the paper's configuration).
	Options []traffic.Options

	// SimConfigs optionally extends the sweep with trace-driven simulator
	// points: every workload × batch × device also runs each config
	// through the memory-hierarchy simulator. The config's Device field
	// is overridden by the device axis.
	SimConfigs []engine.Config
}

// Point is one expanded evaluation: a whole-network request on one device
// under one model configuration, or (when Sim is non-nil) one trace-driven
// simulation of the network's layers.
type Point struct {
	// Index is the point's position in the scenario's expansion order.
	Index int

	// Workload / Device / Batch / Model / Pass name the point's axis
	// coordinates. Workload is the display label; Net carries the
	// resolved layers.
	Workload string
	Net      cnn.Network
	Device   gpu.Device
	Batch    int
	Model    string
	Pass     string

	MissRate float64
	Options  traffic.Options

	// Sim marks a trace-driven simulation point (Model and Pass are empty
	// for these).
	Sim *engine.Config
}

// String renders the point's axis coordinates for logs and progress lines.
func (p Point) String() string {
	if p.Sim != nil {
		return fmt.Sprintf("sim %s b%d on %s", p.Workload, p.Batch, p.Device.Name)
	}
	return fmt.Sprintf("%s/%s %s b%d on %s", p.Model, p.Pass, p.Workload, p.Batch, p.Device.Name)
}

func orStrings(xs []string, def string) []string {
	if len(xs) == 0 {
		return []string{def}
	}
	return xs
}

func orInts(xs []int, def int) []int {
	if len(xs) == 0 {
		return []int{def}
	}
	return xs
}

func orOptions(xs []traffic.Options) []traffic.Options {
	if len(xs) == 0 {
		return []traffic.Options{{}}
	}
	return xs
}

// skipped reports whether a (model, pass) combination is dropped from the
// cross-product: training requires the delta model.
func skipped(model, pass string) bool {
	return pass == PassTraining && model != ModelDelta
}

// Validate rejects malformed scenarios before expansion: empty axes,
// unknown model/pass names, unresolvable workloads, invalid devices and
// layers, and simulator configs whose cache geometry a device cannot hold
// (engine.Config.Caches, checked for every device x sim config). Validation
// resolves named workloads, so a valid scenario is guaranteed to expand.
func (s Scenario) Validate() error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("scenario %q: no workloads", s.Name)
	}
	if len(s.Devices) == 0 {
		return fmt.Errorf("scenario %q: no devices", s.Name)
	}
	for _, m := range s.Models {
		switch m {
		case ModelDelta, ModelPrior, ModelRoofline:
		default:
			return fmt.Errorf("scenario %q: unknown model %q", s.Name, m)
		}
	}
	for _, p := range s.Passes {
		switch p {
		case PassInference, PassTraining:
		default:
			return fmt.Errorf("scenario %q: unknown pass %q", s.Name, p)
		}
	}
	if s.MissRate < 0 || s.MissRate > 1 {
		return fmt.Errorf("scenario %q: miss rate %v outside [0, 1]", s.Name, s.MissRate)
	}
	for _, b := range orInts(s.Batches, 0) {
		if b < 0 {
			return fmt.Errorf("scenario %q: negative batch %d", s.Name, b)
		}
	}
	for i, d := range s.Devices {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("scenario %q: device %d: %w", s.Name, i, err)
		}
		for j, sc := range s.SimConfigs {
			sc.Device = d
			if _, _, err := sc.Caches(); err != nil {
				return fmt.Errorf("scenario %q: device %d sim config %d: %w", s.Name, i, j, err)
			}
		}
	}
	for i, w := range s.Workloads {
		if w.explicit() {
			// Layer-by-layer (not Net.Validate) so nil counts stay legal:
			// the pipeline treats a nil counts vector as all ones.
			if w.Net.Counts != nil && len(w.Net.Counts) != len(w.Net.Layers) {
				return fmt.Errorf("scenario %q: workload %d: %d counts for %d layers",
					s.Name, i, len(w.Net.Counts), len(w.Net.Layers))
			}
			for j, l := range w.Net.Layers {
				if err := l.Validate(); err != nil {
					return fmt.Errorf("scenario %q: workload %d layer %d: %w", s.Name, i, j, err)
				}
			}
			continue
		}
		if w.Name == "" {
			return fmt.Errorf("scenario %q: workload %d: empty (need a name or layers)", s.Name, i)
		}
		// Registry membership doesn't depend on the batch (negative
		// batches are rejected above), so one resolution suffices.
		if _, err := cnn.ByName(w.Name, 0); err != nil {
			return fmt.Errorf("scenario %q: workload %d: %w", s.Name, i, err)
		}
	}
	if s.countModelCombos() == 0 && len(s.SimConfigs) == 0 {
		return fmt.Errorf("scenario %q: every model×pass combination is invalid (training requires the delta model)", s.Name)
	}
	return nil
}

// analyticModels returns the effective model axis: the listed models, or
// ModelDelta when unset — unless the scenario is sim-only.
func (s Scenario) analyticModels() []string {
	if len(s.Models) == 0 {
		if len(s.SimConfigs) > 0 {
			return nil
		}
		return []string{ModelDelta}
	}
	return s.Models
}

// countModelCombos returns the surviving (model, pass, options) combos.
func (s Scenario) countModelCombos() int {
	n := 0
	for _, m := range s.analyticModels() {
		for _, p := range orStrings(s.Passes, PassInference) {
			if !skipped(m, p) {
				n += len(orOptions(s.Options))
			}
		}
	}
	return n
}

// Size returns the number of points the scenario expands to, without
// resolving workloads. Streamed progress counts are reported against it.
// A cross-product too large for int saturates at math.MaxInt (use
// SizeChecked to detect that case — such a scenario cannot be expanded or
// evaluated anyway, but splitting code must not see a wrapped-negative
// total).
func (s Scenario) Size() int {
	n, _ := s.SizeChecked()
	return n
}

// SizeChecked is Size with overflow detection: it returns math.MaxInt and
// a non-nil error when the axis cross-product does not fit in an int.
func (s Scenario) SizeChecked() (int, error) {
	perWDB := addCap(s.countModelCombos(), len(s.SimConfigs))
	batches := len(orInts(s.Batches, 0))
	explicit := 0
	for _, w := range s.Workloads {
		if w.explicit() {
			explicit++
		}
	}
	named := len(s.Workloads) - explicit
	n := mulCap(mulCap(addCap(mulCap(named, batches), explicit), len(s.Devices)), perWDB)
	if n == math.MaxInt {
		return math.MaxInt, fmt.Errorf("scenario %q: point count overflows int", s.Name)
	}
	return n, nil
}

// mulCap multiplies two non-negative counts, saturating at math.MaxInt on
// overflow (the sentinel SizeChecked reports as an error).
func mulCap(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// addCap adds two non-negative counts, saturating at math.MaxInt.
func addCap(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// Range is a contiguous half-open span [Offset, Offset+Count) of a
// scenario's expansion-order point indices: the unit of work a distributed
// sweep assigns to one worker (evaluate the scenario with a stream offset
// of Range.Offset and a limit of Range.Count).
type Range struct {
	Offset int
	Count  int
}

// End returns the exclusive upper bound of the range.
func (r Range) End() int { return r.Offset + r.Count }

// SplitSpan partitions the half-open index span [start, start+count) into
// at most n contiguous, non-empty ranges of near-equal size (the first
// count%n ranges are one point longer). Fewer than n points yield one
// single-point range each — never an empty range. n < 1 is treated as 1;
// an empty span yields no ranges.
func SplitSpan(start, count, n int) []Range {
	if count <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > count {
		n = count
	}
	out := make([]Range, 0, n)
	base, extra := count/n, count%n
	off := start
	for i := 0; i < n; i++ {
		c := base
		if i < extra {
			c++
		}
		out = append(out, Range{Offset: off, Count: c})
		off += c
	}
	return out
}

// Expand flattens the scenario into its ordered point list. The order is
// deterministic and documented: workloads (outer) → batches → devices →
// models → passes → options, then the workload's simulator configs — so a
// point's Index alone identifies its axis coordinates.
func (s Scenario) Expand() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	models := s.analyticModels()
	passes := orStrings(s.Passes, PassInference)
	options := orOptions(s.Options)
	batches := orInts(s.Batches, 0)

	var out []Point
	for _, w := range s.Workloads {
		wBatches := batches
		if w.explicit() {
			// Explicit layer lists carry their own mini-batch.
			wBatches = []int{0}
		}
		for _, b := range wBatches {
			net := w.Net
			if !w.explicit() {
				var err error
				net, err = cnn.ByName(w.Name, b)
				if err != nil {
					return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
				}
			}
			for _, d := range s.Devices {
				for _, m := range models {
					for _, p := range passes {
						if skipped(m, p) {
							continue
						}
						mr := 0.0
						if m == ModelPrior {
							mr = s.MissRate
							if mr == 0 {
								mr = 1.0
							}
						}
						for _, opt := range options {
							out = append(out, Point{
								Index: len(out), Workload: w.label(), Net: net,
								Device: d, Batch: b, Model: m, Pass: p,
								MissRate: mr, Options: opt,
							})
						}
					}
				}
				for _, sc := range s.SimConfigs {
					cfg := sc
					cfg.Device = d
					out = append(out, Point{
						Index: len(out), Workload: w.label(), Net: net,
						Device: d, Batch: b, Sim: &cfg,
					})
				}
			}
		}
	}
	return out, nil
}

// Single wraps one whole-network evaluation as a one-point scenario: the
// adapter shape the /v1 endpoints and the facade batch helpers use.
func Single(net cnn.Network, d gpu.Device, opt traffic.Options, model, pass string, missRate float64) Scenario {
	return Scenario{
		Name:      net.Name,
		Workloads: []Workload{{Net: net}},
		Devices:   []gpu.Device{d},
		Models:    []string{orString(model, ModelDelta)},
		Passes:    []string{orString(pass, PassInference)},
		MissRate:  missRate,
		Options:   []traffic.Options{opt},
	}
}

// SingleSim wraps one trace-driven simulation sweep (a layer list under one
// engine config) as a one-point scenario.
func SingleSim(ls []layers.Conv, cfg engine.Config) Scenario {
	return Scenario{
		Name:       "sim",
		Workloads:  []Workload{{Net: cnn.Network{Name: "sim", Layers: ls}}},
		Devices:    []gpu.Device{cfg.Device},
		Models:     nil,
		Passes:     nil,
		SimConfigs: []engine.Config{cfg},
	}
}

func orString(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
