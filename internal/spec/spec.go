// Package spec loads layer lists and device descriptions from JSON so the
// CLIs can model arbitrary CNNs and hypothetical GPUs without recompiling.
//
// Layer file format (a JSON array; zero fields take the listed defaults):
//
//	[
//	  {"name": "conv1", "b": 256, "ci": 3, "hi": 224, "wi": 224,
//	   "co": 64, "hf": 7, "wf": 7, "stride": 2, "pad": 3, "count": 1}
//	]
//
// Device file format (any omitted field inherits from the named base
// device, default "TITAN Xp"):
//
//	{"base": "TITAN Xp", "name": "hypothetical",
//	 "num_sm": 60, "dram_bw_gbs": 900}
package spec

import (
	"encoding/json"
	"fmt"
	"io"

	"delta/internal/cnn"
	"delta/internal/gpu"
	"delta/internal/layers"
)

// LayerSpec is the JSON shape of one convolution layer.
type LayerSpec struct {
	Name   string `json:"name"`
	B      int    `json:"b"`
	Ci     int    `json:"ci"`
	Hi     int    `json:"hi"`
	Wi     int    `json:"wi"`
	Co     int    `json:"co"`
	Hf     int    `json:"hf"`
	Wf     int    `json:"wf"`
	Stride int    `json:"stride"`
	Pad    int    `json:"pad"`
	Count  int    `json:"count"`
}

// toConv applies defaults and converts to the model type.
func (s LayerSpec) toConv() layers.Conv {
	if s.B == 0 {
		s.B = cnn.DefaultBatch
	}
	if s.Wi == 0 {
		s.Wi = s.Hi
	}
	if s.Wf == 0 {
		s.Wf = s.Hf
	}
	if s.Stride == 0 {
		s.Stride = 1
	}
	return layers.Conv{Name: s.Name, B: s.B, Ci: s.Ci, Hi: s.Hi, Wi: s.Wi,
		Co: s.Co, Hf: s.Hf, Wf: s.Wf, Stride: s.Stride, Pad: s.Pad}
}

// ReadNetwork parses a JSON layer list into a network. Every layer is
// validated; counts default to 1.
func ReadNetwork(name string, r io.Reader) (cnn.Network, error) {
	var specs []LayerSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return cnn.Network{}, fmt.Errorf("spec: parsing layers: %w", err)
	}
	return layerSpecsToNetwork(name, specs)
}

// DeviceSpec is the JSON shape of a (possibly partial) device description.
// Pointers distinguish "absent" from zero.
type DeviceSpec struct {
	Base string `json:"base"`
	Name string `json:"name"`

	NumSM         *int     `json:"num_sm"`
	ClockGHz      *float64 `json:"clock_ghz"`
	MACGFLOPS     *float64 `json:"mac_gflops"`
	RegKBPerSM    *float64 `json:"reg_kb_per_sm"`
	SMEMKBPerSM   *float64 `json:"smem_kb_per_sm"`
	L2SizeMB      *float64 `json:"l2_size_mb"`
	L1SizeKBPerSM *float64 `json:"l1_size_kb_per_sm"`
	L1BWGBsPerSM  *float64 `json:"l1_bw_gbs_per_sm"`
	L2BWGBs       *float64 `json:"l2_bw_gbs"`
	DRAMBWGBs     *float64 `json:"dram_bw_gbs"`
	LatDRAMClk    *float64 `json:"lat_dram_clk"`
	L1ReqBytes    *int     `json:"l1_req_bytes"`
}

// ReadDevice parses a JSON device description, inheriting unset fields from
// its base device.
func ReadDevice(r io.Reader) (gpu.Device, error) {
	var s DeviceSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return gpu.Device{}, fmt.Errorf("spec: parsing device: %w", err)
	}
	return s.resolve()
}
