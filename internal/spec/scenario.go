// Scenario codec: the JSON shape of a declarative evaluation sweep
// (internal/scenario). The same document drives `delta -scenario file.json`
// and the delta-server /v2 jobs API.
//
// Format (every axis optional except workloads; devices defaults to the
// TITAN Xp baseline):
//
//	{
//	  "name": "scaling-sweep",
//	  "workloads": [
//	    {"network": "alexnet"},
//	    {"name": "custom", "layers": [{"ci": 96, "hi": 27, "co": 256, "hf": 5, "pad": 2, "b": 32}]}
//	  ],
//	  "devices": [
//	    {"name": "TITAN Xp"},
//	    {"name": "V100"},
//	    {"base": "TITAN Xp", "scale": {"num_sm": 2, "dram_bw": 1.5}}
//	  ],
//	  "batches": [32, 256],
//	  "models": ["delta", "prior"],
//	  "passes": ["inference"],
//	  "miss_rate": 1.0,
//	  "options": [{"paper_mli_filter": true}],
//	  "sim_configs": [{"l1_ways": 4, "max_waves": 2}]
//	}
package spec

import (
	"encoding/json"
	"fmt"
	"io"

	"delta/internal/cnn"
	"delta/internal/gpu"
	"delta/internal/scenario"
	"delta/internal/sim/engine"
	"delta/internal/traffic"
)

// ScenarioSpec is the JSON shape of a declarative sweep.
type ScenarioSpec struct {
	Name      string           `json:"name,omitempty"`
	Workloads []WorkloadSpec   `json:"workloads"`
	Devices   []DeviceAxisSpec `json:"devices,omitempty"`
	Batches   []int            `json:"batches,omitempty"`
	Models    []string         `json:"models,omitempty"`
	Passes    []string         `json:"passes,omitempty"`
	MissRate  float64          `json:"miss_rate,omitempty"`
	Options   []OptionsSpec    `json:"options,omitempty"`
	SimCfgs   []SimConfigSpec  `json:"sim_configs,omitempty"`
}

// WorkloadSpec names one workload-axis entry: a registered network or an
// explicit layer list.
type WorkloadSpec struct {
	// Network is a registered network name (resolved per batch-axis value).
	Network string `json:"network,omitempty"`

	// Name labels an explicit layer list.
	Name string `json:"name,omitempty"`

	// Layers is an explicit layer list (LayerSpec entries).
	Layers []LayerSpec `json:"layers,omitempty"`
}

// DeviceAxisSpec names one device-axis entry: a registered device by name,
// a partial device description (DeviceSpec fields inheriting from a base),
// and/or a resource scaling applied on top.
type DeviceAxisSpec struct {
	// Name is a registered device name; Base + the DeviceSpec overrides
	// build a custom device instead. Both empty means the TITAN Xp
	// baseline.
	Name string `json:"name,omitempty"`

	// Spec is a partial device description (the spec device codec).
	Spec *DeviceSpec `json:"spec,omitempty"`

	// Base is shorthand for {"spec": {"base": ...}} when only a scale is
	// applied.
	Base string `json:"base,omitempty"`

	// Scale applies independent resource scalings to the resolved device.
	Scale *ScaleSpec `json:"scale,omitempty"`
}

// ScaleSpec mirrors gpu.Scale for JSON (0 = unscaled).
type ScaleSpec struct {
	NumSM      float64 `json:"num_sm,omitempty"`
	MACPerSM   float64 `json:"mac_per_sm,omitempty"`
	RegPerSM   float64 `json:"reg_per_sm,omitempty"`
	SMEMPerSM  float64 `json:"smem_per_sm,omitempty"`
	SMEMBW     float64 `json:"smem_bw,omitempty"`
	L1BW       float64 `json:"l1_bw,omitempty"`
	L2BW       float64 `json:"l2_bw,omitempty"`
	DRAMBW     float64 `json:"dram_bw,omitempty"`
	CTATileDim int     `json:"cta_tile_dim,omitempty"`
}

func (s ScaleSpec) toModel() gpu.Scale {
	return gpu.Scale{
		NumSM: s.NumSM, MACPerSM: s.MACPerSM,
		RegPerSM: s.RegPerSM, SMEMPerSM: s.SMEMPerSM, SMEMBW: s.SMEMBW,
		L1BW: s.L1BW, L2BW: s.L2BW, DRAMBW: s.DRAMBW,
		CTATileDim: s.CTATileDim,
	}
}

// OptionsSpec mirrors traffic.Options for JSON.
type OptionsSpec struct {
	PaperMLIFilter    bool `json:"paper_mli_filter,omitempty"`
	CapacityAwareDRAM bool `json:"capacity_aware_dram,omitempty"`
	TileOverride      int  `json:"tile_override,omitempty"`
}

func (o OptionsSpec) toModel() traffic.Options {
	return traffic.Options{
		PaperMLIFilter:    o.PaperMLIFilter,
		CapacityAwareDRAM: o.CapacityAwareDRAM,
		TileOverride:      o.TileOverride,
	}
}

// SimConfigSpec mirrors the engine.Config knobs for JSON; the device comes
// from the scenario's device axis.
type SimConfigSpec struct {
	L1Ways             int  `json:"l1_ways,omitempty"`
	L2Ways             int  `json:"l2_ways,omitempty"`
	SkipPadding        bool `json:"skip_padding,omitempty"`
	RowMajorScheduling bool `json:"row_major_scheduling,omitempty"`
	MaxWaves           int  `json:"max_waves,omitempty"`
	Workers            int  `json:"workers,omitempty"`
}

func (s SimConfigSpec) toModel() engine.Config {
	return engine.Config{
		L1Ways: s.L1Ways, L2Ways: s.L2Ways,
		SkipPadding: s.SkipPadding, RowMajorScheduling: s.RowMajorScheduling,
		MaxWaves: s.MaxWaves, Workers: s.Workers,
	}
}

// resolveDevice turns one device-axis entry into a concrete device.
func (d DeviceAxisSpec) resolveDevice() (gpu.Device, error) {
	if d.Name != "" && (d.Spec != nil || d.Base != "") {
		return gpu.Device{}, fmt.Errorf("spec: device entry: name %q combines with spec/base; use one", d.Name)
	}
	if d.Spec != nil && d.Base != "" {
		return gpu.Device{}, fmt.Errorf("spec: device entry: base %q combines with spec (put the base inside spec.base)", d.Base)
	}
	var (
		dev gpu.Device
		err error
	)
	switch {
	case d.Spec != nil:
		dev, err = d.Spec.resolve()
	case d.Name != "":
		dev, err = gpu.ByName(d.Name)
	case d.Base != "":
		dev, err = gpu.ByName(d.Base)
	default:
		dev = gpu.TitanXp()
	}
	if err != nil {
		return gpu.Device{}, err
	}
	if d.Scale != nil {
		sc := d.Scale.toModel()
		if sc.CTATileDim != 0 {
			return gpu.Device{}, fmt.Errorf("spec: device entry %q: cta_tile_dim belongs in options.tile_override", dev.Name)
		}
		base := dev.Name
		dev = sc.Apply(dev)
		dev.Name = base + scaleLabel(sc)
	}
	return dev, nil
}

// scaleLabel renders the non-unit factors of a scale as a compact suffix,
// so two different scalings of one base device stay distinguishable.
func scaleLabel(s gpu.Scale) string {
	label := "@"
	add := func(k string, v float64) {
		if v != 0 && v != 1 {
			label += fmt.Sprintf("%s%gx", k, v)
		}
	}
	add("sm", s.NumSM)
	add("mac", s.MACPerSM)
	add("reg", s.RegPerSM)
	add("smem", s.SMEMPerSM)
	add("smembw", s.SMEMBW)
	add("l1bw", s.L1BW)
	add("l2bw", s.L2BW)
	add("drambw", s.DRAMBW)
	if label == "@" {
		label += "1x"
	}
	return label
}

// ToScenario resolves the spec into a validated scenario.
func (s ScenarioSpec) ToScenario() (scenario.Scenario, error) {
	out := scenario.Scenario{
		Name:     s.Name,
		Batches:  s.Batches,
		Models:   s.Models,
		Passes:   s.Passes,
		MissRate: s.MissRate,
	}
	for i, w := range s.Workloads {
		switch {
		case w.Network != "" && len(w.Layers) > 0:
			return scenario.Scenario{}, fmt.Errorf("spec: workload %d: both network and layers", i)
		case w.Network != "":
			out.Workloads = append(out.Workloads, scenario.Workload{Name: w.Network})
		case len(w.Layers) > 0:
			name := w.Name
			if name == "" {
				name = fmt.Sprintf("workload%d", i)
			}
			net, err := layerSpecsToNetwork(name, w.Layers)
			if err != nil {
				return scenario.Scenario{}, fmt.Errorf("spec: workload %d: %w", i, err)
			}
			out.Workloads = append(out.Workloads, scenario.Workload{Net: net})
		default:
			return scenario.Scenario{}, fmt.Errorf("spec: workload %d: empty (need network or layers)", i)
		}
	}
	devs := s.Devices
	if len(devs) == 0 {
		devs = []DeviceAxisSpec{{}}
	}
	for i, d := range devs {
		dev, err := d.resolveDevice()
		if err != nil {
			return scenario.Scenario{}, fmt.Errorf("spec: device %d: %w", i, err)
		}
		out.Devices = append(out.Devices, dev)
	}
	for _, o := range s.Options {
		out.Options = append(out.Options, o.toModel())
	}
	for _, c := range s.SimCfgs {
		out.SimConfigs = append(out.SimConfigs, c.toModel())
	}
	// Validation here keeps codec errors synchronous (a 400 at submit,
	// a parse-time failure in the CLI) and is cheap: membership checks
	// resolve each named workload once, not once per batch-axis value.
	if err := out.Validate(); err != nil {
		return scenario.Scenario{}, err
	}
	return out, nil
}

// ReadScenario parses a scenario JSON document and resolves it into a
// validated scenario.
func ReadScenario(r io.Reader) (scenario.Scenario, error) {
	var s ScenarioSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return scenario.Scenario{}, fmt.Errorf("spec: parsing scenario: %w", err)
	}
	return s.ToScenario()
}

// layerSpecsToNetwork converts decoded layer specs into a validated
// network, mirroring ReadNetwork's defaulting.
func layerSpecsToNetwork(name string, specs []LayerSpec) (cnn.Network, error) {
	if len(specs) == 0 {
		return cnn.Network{}, fmt.Errorf("spec: no layers in %q", name)
	}
	net := cnn.Network{Name: name}
	for i, s := range specs {
		l := s.toConv()
		if l.Name == "" {
			l.Name = fmt.Sprintf("layer%d", i)
		}
		if err := l.Validate(); err != nil {
			return cnn.Network{}, fmt.Errorf("spec: layer %d: %w", i, err)
		}
		c := s.Count
		if c == 0 {
			c = 1
		}
		if c < 0 {
			return cnn.Network{}, fmt.Errorf("spec: layer %d: negative count %d", i, c)
		}
		net.Layers = append(net.Layers, l)
		net.Counts = append(net.Counts, c)
	}
	return net, nil
}

// resolve converts a decoded DeviceSpec into a device (the body of
// ReadDevice, reusable from the scenario codec).
func (s DeviceSpec) resolve() (gpu.Device, error) {
	base := s.Base
	if base == "" {
		base = "TITAN Xp"
	}
	d, err := gpu.ByName(base)
	if err != nil {
		return gpu.Device{}, fmt.Errorf("spec: base device: %w", err)
	}
	if s.Name != "" {
		d.Name = s.Name
	}
	setI := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setF := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setI(&d.NumSM, s.NumSM)
	setF(&d.ClockGHz, s.ClockGHz)
	setF(&d.MACGFLOPS, s.MACGFLOPS)
	setF(&d.RegKBPerSM, s.RegKBPerSM)
	setF(&d.SMEMKBPerSM, s.SMEMKBPerSM)
	setF(&d.L2SizeMB, s.L2SizeMB)
	setF(&d.L1SizeKBPerSM, s.L1SizeKBPerSM)
	setF(&d.L1BWGBsPerSM, s.L1BWGBsPerSM)
	setF(&d.L2BWGBs, s.L2BWGBs)
	setF(&d.DRAMBWGBs, s.DRAMBWGBs)
	setF(&d.LatDRAMClk, s.LatDRAMClk)
	setI(&d.L1ReqBytes, s.L1ReqBytes)
	if err := d.Validate(); err != nil {
		return gpu.Device{}, fmt.Errorf("spec: %w", err)
	}
	return d, nil
}
