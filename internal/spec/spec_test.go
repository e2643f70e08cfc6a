package spec

import (
	"bytes"
	"strings"
	"testing"

	"delta/internal/cnn"
)

const goodLayers = `[
  {"name": "conv1", "ci": 3, "hi": 224, "co": 64, "hf": 7, "stride": 2, "pad": 3},
  {"name": "block", "b": 32, "ci": 64, "hi": 56, "wi": 56, "co": 64, "hf": 3, "wf": 3, "pad": 1, "count": 4}
]`

func TestReadNetwork(t *testing.T) {
	net, err := ReadNetwork("custom", strings.NewReader(goodLayers))
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Layers) != 2 {
		t.Fatalf("layers = %d", len(net.Layers))
	}
	// Defaults: B = 256, Wi = Hi, Wf = Hf, stride = 1, count = 1.
	l0 := net.Layers[0]
	if l0.B != cnn.DefaultBatch || l0.Wi != 224 || l0.Wf != 7 {
		t.Errorf("defaults not applied: %+v", l0)
	}
	if net.Counts[0] != 1 || net.Counts[1] != 4 {
		t.Errorf("counts = %v", net.Counts)
	}
	if net.Layers[1].B != 32 || net.Layers[1].Stride != 1 {
		t.Errorf("explicit fields lost: %+v", net.Layers[1])
	}
	if net.TotalInstances() != 5 {
		t.Errorf("instances = %d", net.TotalInstances())
	}
}

func TestReadNetworkRejects(t *testing.T) {
	cases := map[string]string{
		"empty list":    `[]`,
		"invalid layer": `[{"name": "x", "ci": 0, "hi": 8, "co": 4, "hf": 1}]`,
		"unknown field": `[{"name": "x", "bogus": 1}]`,
		"bad json":      `{`,
		"neg count":     `[{"name": "x", "ci": 1, "hi": 8, "co": 1, "hf": 1, "count": -2}]`,
	}
	for what, in := range cases {
		if _, err := ReadNetwork("t", strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestReadNetworkNamesDefault(t *testing.T) {
	net, err := ReadNetwork("t", strings.NewReader(`[{"ci": 4, "hi": 8, "co": 8, "hf": 3, "pad": 1}]`))
	if err != nil {
		t.Fatal(err)
	}
	if net.Layers[0].Name != "layer0" {
		t.Errorf("default name = %q", net.Layers[0].Name)
	}
}

func TestReadDevice(t *testing.T) {
	in := `{"base": "P100", "name": "P100-plus", "num_sm": 64, "dram_bw_gbs": 700}`
	d, err := ReadDevice(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "P100-plus" || d.NumSM != 64 || d.DRAMBWGBs != 700 {
		t.Errorf("overrides lost: %+v", d)
	}
	// Unset fields inherit from P100.
	if d.L2BWGBs != 1382 || d.SMEMKBPerSM != 64 {
		t.Errorf("inheritance broken: %+v", d)
	}
}

func TestReadDeviceDefaultsToTitanXp(t *testing.T) {
	d, err := ReadDevice(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "TITAN Xp" || d.NumSM != 30 {
		t.Errorf("default base wrong: %+v", d)
	}
}

func TestReadDeviceRejects(t *testing.T) {
	cases := map[string]string{
		"unknown base":     `{"base": "K80"}`,
		"unknown field":    `{"bogus": 1}`,
		"invalid value":    `{"num_sm": -1}`,
		"negative latency": `{"base": "V100", "lat_dram_clk": -1e9}`,
		"sub-sector req":   `{"base": "TITAN Xp", "l1_req_bytes": 16}`,
		"bad json":         `{`,
	}
	for what, in := range cases {
		if _, err := ReadDevice(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

// FuzzReadDevice: ReadDevice never panics on arbitrary bytes, and an
// accepted device passes Validate.
func FuzzReadDevice(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		d, err := ReadDevice(bytes.NewReader(doc))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted device fails Validate: %v", err)
		}
	})
}

// FuzzReadNetwork: ReadNetwork never panics on arbitrary bytes, and an
// accepted network has at least one layer, every layer passes Validate,
// and its counts are index-aligned with the layers and at least 1.
func FuzzReadNetwork(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		net, err := ReadNetwork("fuzz", bytes.NewReader(doc))
		if err != nil {
			return
		}
		if len(net.Layers) == 0 {
			t.Fatal("accepted network has no layers")
		}
		if len(net.Counts) != len(net.Layers) {
			t.Fatalf("%d counts for %d layers", len(net.Counts), len(net.Layers))
		}
		for i, l := range net.Layers {
			if err := l.Validate(); err != nil {
				t.Fatalf("accepted layer %d fails Validate: %v", i, err)
			}
			if net.Counts[i] < 1 {
				t.Fatalf("accepted layer %d has count %d", i, net.Counts[i])
			}
		}
	})
}
