package spec

import (
	"bytes"
	"strings"
	"testing"

	"delta/internal/gpu"
)

// TestReadScenario decodes a dense multi-axis document and checks the
// resolved axes.
func TestReadScenario(t *testing.T) {
	doc := `{
	  "name": "sweep",
	  "workloads": [
	    {"network": "alexnet"},
	    {"name": "mini", "layers": [{"ci": 8, "hi": 12, "co": 8, "hf": 3, "pad": 1, "b": 4}]}
	  ],
	  "devices": [
	    {"name": "titanxp"},
	    {"name": "V100"},
	    {"base": "TITAN Xp", "scale": {"mac_per_sm": 2, "dram_bw": 1.5}}
	  ],
	  "batches": [16, 32],
	  "models": ["delta", "prior"],
	  "miss_rate": 0.5,
	  "options": [{"paper_mli_filter": true}]
	}`
	sc, err := ReadScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "sweep" || len(sc.Workloads) != 2 || len(sc.Devices) != 3 {
		t.Fatalf("scenario = %+v", sc)
	}
	if sc.Devices[0].Name != "TITAN Xp" || sc.Devices[1].Name != "V100" {
		t.Errorf("device names = %q, %q", sc.Devices[0].Name, sc.Devices[1].Name)
	}
	scaled := sc.Devices[2]
	if !strings.Contains(scaled.Name, "mac2x") || !strings.Contains(scaled.Name, "drambw1.5x") {
		t.Errorf("scaled device name = %q", scaled.Name)
	}
	if want := gpuTitanXpMAC() * 2; scaled.MACGFLOPS != want {
		t.Errorf("scaled MACGFLOPS = %v, want %v", scaled.MACGFLOPS, want)
	}
	if !sc.Options[0].PaperMLIFilter {
		t.Error("options not decoded")
	}
	pts, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// alexnet×2 batches + explicit mini, × 3 devices × 2 models.
	if want := (2 + 1) * 3 * 2; len(pts) != want {
		t.Errorf("expanded %d points, want %d", len(pts), want)
	}
}

func gpuTitanXpMAC() float64 {
	d, _ := gpu.ByName("TITAN Xp")
	return d.MACGFLOPS
}

// TestReadScenarioSim decodes a sim-config axis.
func TestReadScenarioSim(t *testing.T) {
	doc := `{
	  "workloads": [{"network": "alexnet"}],
	  "batches": [2],
	  "sim_configs": [{"max_waves": 1, "row_major_scheduling": true, "workers": 2}]
	}`
	sc, err := ReadScenario(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.SimConfigs) != 1 || !sc.SimConfigs[0].RowMajorScheduling || sc.SimConfigs[0].MaxWaves != 1 {
		t.Fatalf("sim configs = %+v", sc.SimConfigs)
	}
	if sc.SimConfigs[0].Workers != 2 {
		t.Errorf("workers = %d, want 2", sc.SimConfigs[0].Workers)
	}
	if len(sc.Devices) != 1 || sc.Devices[0].Name != "TITAN Xp" {
		t.Errorf("default device axis = %+v", sc.Devices)
	}
	pts, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Sim == nil {
		t.Errorf("sim-only scenario expanded to %+v", pts)
	}
}

// TestReadScenarioErrors covers the codec rejection paths.
func TestReadScenarioErrors(t *testing.T) {
	cases := []struct{ name, doc, want string }{
		{"syntax", `{`, "parsing scenario"},
		{"unknown field", `{"workloads": [], "bogus": 1}`, "bogus"},
		{"no workloads", `{"workloads": []}`, "no workloads"},
		{"empty workload", `{"workloads": [{}]}`, "empty"},
		{"both", `{"workloads": [{"network": "alexnet", "layers": [{"ci": 1}]}]}`, "both"},
		{"bad device", `{"workloads": [{"network": "alexnet"}], "devices": [{"name": "TPU"}]}`, "TPU"},
		{"name plus base", `{"workloads": [{"network": "alexnet"}], "devices": [{"name": "V100", "base": "P100"}]}`, "use one"},
		{"base plus spec", `{"workloads": [{"network": "alexnet"}], "devices": [{"base": "V100", "spec": {"num_sm": 40}}]}`, "spec.base"},
		{"bad model", `{"workloads": [{"network": "alexnet"}], "models": ["magic"]}`, "unknown model"},
		{"cta in scale", `{"workloads": [{"network": "alexnet"}], "devices": [{"scale": {"cta_tile_dim": 64}}]}`, "tile_override"},
		{"replay partitions", `{"workloads": [{"network": "alexnet"}], "sim_configs": [{"replay_partitions": 2}]}`, "replay_partitions"},
		{"L2 ways", `{"workloads": [{"network": "alexnet"}], "sim_configs": [{"l2_ways": 100000}]}`, "L2"},
		{"tiny L2", `{"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", "l2_size_mb": 0.001}}], "sim_configs": [{}]}`, "L2"},
		{"negative L1 ways", `{"workloads": [{"network": "alexnet"}], "sim_configs": [{"l1_ways": -1}]}`, "L1"},
		// Devices whose caches would ask the simulator for unbounded memory.
		{"huge L2", `{"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", "l2_size_mb": 1048576}}], "sim_configs": [{}]}`, "cache lines"},
		{"huge SM count", `{"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", "num_sm": 100000000}}], "sim_configs": [{}]}`, "cache lines"},
		{"huge L1", `{"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", "l1_size_kb_per_sm": 1e9}}], "sim_configs": [{}]}`, "cache lines"},
	}
	for _, tc := range cases {
		_, err := ReadScenario(strings.NewReader(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

// FuzzReadScenario: ReadScenario never panics on arbitrary bytes, and an
// accepted document is runnable — one of at most 4096 points expands
// without error to exactly Size() points, and every simulation point's
// cache geometry builds.
func FuzzReadScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		sc, err := ReadScenario(bytes.NewReader(doc))
		if err != nil {
			return
		}
		size := sc.Size()
		if size > 4096 {
			return
		}
		pts, err := sc.Expand()
		if err != nil {
			t.Fatalf("accepted scenario does not expand: %v", err)
		}
		if len(pts) != size {
			t.Fatalf("expanded %d points, Size() = %d", len(pts), size)
		}
		for _, p := range pts {
			if p.Sim == nil {
				continue
			}
			if _, _, err := p.Sim.Caches(); err != nil {
				t.Fatalf("accepted sim point %d cannot build its caches: %v", p.Index, err)
			}
		}
	})
}
