package cnn

import (
	"strings"
	"testing"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/traffic"
)

func TestAllNetworksValidate(t *testing.T) {
	nets := append(PaperSuite(DefaultBatch), ResNet152Full(DefaultBatch))
	for _, n := range nets {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
		if len(n.Layers) == 0 {
			t.Errorf("%s: no layers", n.Name)
		}
	}
}

func TestLayerCountsMatchPaperFigures(t *testing.T) {
	// The Fig. 11/13 x-axis: 5 AlexNet + 8 VGG + 23 GoogLeNet + 24 ResNet.
	counts := map[string]int{
		"AlexNet": 5, "VGG16": 8, "GoogLeNet": 23, "ResNet152": 24,
	}
	for _, n := range PaperSuite(DefaultBatch) {
		if got := len(n.Layers); got != counts[n.Name] {
			t.Errorf("%s: %d unique layers, want %d", n.Name, got, counts[n.Name])
		}
	}
}

func TestAlexNetGeometryChains(t *testing.T) {
	n := AlexNet(DefaultBatch)
	// conv1: 227 -> 55 (11x11 stride 4), pooled to 27 for conv2.
	if ho := n.Layers[0].Ho(); ho != 55 {
		t.Errorf("conv1 Ho = %d, want 55", ho)
	}
	// conv3-5 run at 13x13.
	for _, l := range n.Layers[2:] {
		if l.Hi != 13 {
			t.Errorf("%s: Hi = %d, want 13", l.Name, l.Hi)
		}
	}
}

func TestVGG16SpatialHalving(t *testing.T) {
	n := VGG16(DefaultBatch)
	sizes := map[string]int{"conv1": 224, "conv3": 112, "conv5": 56, "conv8": 28, "conv11": 14}
	for _, l := range n.Layers {
		if want, ok := sizes[l.Name]; ok && l.Hi != want {
			t.Errorf("%s: Hi = %d, want %d", l.Name, l.Hi, want)
		}
		// All VGG convs preserve spatial dims (3x3, s1, p1).
		if l.Ho() != l.Hi {
			t.Errorf("%s: not shape-preserving", l.Name)
		}
	}
}

func TestGoogLeNetModuleWiring(t *testing.T) {
	n := GoogLeNet(DefaultBatch)
	byName := make(map[string]layers.Conv)
	for _, l := range n.Layers {
		byName[l.Name] = l
	}
	// The 3x3 conv consumes the 3x3red output channels.
	for _, mod := range []string{"3a", "4b", "4e", "5a"} {
		red, ok := byName[mod+"_3x3red"]
		if !ok {
			t.Fatalf("missing %s_3x3red", mod)
		}
		main := byName[mod+"_3x3"]
		if main.Ci != red.Co {
			t.Errorf("%s: 3x3 Ci %d != 3x3red Co %d", mod, main.Ci, red.Co)
		}
		red5 := byName[mod+"_5x5red"]
		main5 := byName[mod+"_5x5"]
		if main5.Ci != red5.Co {
			t.Errorf("%s: 5x5 Ci %d != 5x5red Co %d", mod, main5.Ci, red5.Co)
		}
	}
	// 5a runs on 7x7 features.
	if byName["5a_1x1"].Hi != 7 {
		t.Errorf("5a feature size = %d, want 7", byName["5a_1x1"].Hi)
	}
}

func TestResNetBottleneckWiring(t *testing.T) {
	n := ResNet152(DefaultBatch)
	byName := make(map[string]layers.Conv)
	for _, l := range n.Layers {
		byName[l.Name] = l
	}
	// a -> b -> c channel chaining inside a bottleneck.
	if byName["conv3_1_b"].Ci != byName["conv3_1_a"].Co {
		t.Error("conv3_1: b does not consume a's output")
	}
	if byName["conv3_1_c"].Ci != byName["conv3_1_b"].Co {
		t.Error("conv3_1: c does not consume b's output")
	}
	// Stage entries downsample: conv4_1_a is stride 2 and halves 28 -> 14.
	l := byName["conv4_1_a"]
	if l.Stride != 2 || l.Ho() != 14 {
		t.Errorf("conv4_1_a: stride %d Ho %d, want 2/14", l.Stride, l.Ho())
	}
	// Expansion factor 4 on every c conv.
	for _, name := range []string{"conv2_1_c", "conv3_1_c", "conv4_1_c", "conv5_1_c"} {
		c := byName[name]
		if c.Co != 4*c.Ci {
			t.Errorf("%s: Co %d != 4*Ci %d", name, c.Co, c.Ci)
		}
	}
}

func TestResNet152FullInstanceCount(t *testing.T) {
	n := ResNet152Full(DefaultBatch)
	// 1 stem + 3*3 + 8*3 + 36*3 + 3*3 bottleneck convs + 4 projections = 155.
	if got := n.TotalInstances(); got != 155 {
		t.Errorf("total instances = %d, want 155", got)
	}
	// Stage 4 carries the bulk: 36 b and c convs.
	for _, l := range n.Layers {
		if l.Name == "conv4_x_b" {
			if idx := indexOf(n, l.Name); n.Counts[idx] != 36 {
				t.Errorf("conv4_x_b count = %d, want 36", n.Counts[idx])
			}
		}
	}
}

func indexOf(n Network, name string) int {
	for i, l := range n.Layers {
		if l.Name == name {
			return i
		}
	}
	return -1
}

func TestResNet50InstanceCount(t *testing.T) {
	n := ResNet50(DefaultBatch)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 stem + (3+4+6+3)*3 bottleneck convs + 4 projections = 53.
	if got := n.TotalInstances(); got != 53 {
		t.Errorf("total instances = %d, want 53", got)
	}
	// ResNet50's compute is a strict subset of ResNet152's.
	big := ResNet152Full(DefaultBatch)
	var macs50, macs152 float64
	for i, l := range n.Layers {
		macs50 += l.MACs() * float64(n.Counts[i])
	}
	for i, l := range big.Layers {
		macs152 += l.MACs() * float64(big.Counts[i])
	}
	if macs50 >= macs152 {
		t.Errorf("ResNet50 MACs %v not below ResNet152's %v", macs50, macs152)
	}
}

func TestAllUniqueLayersQualifiedNames(t *testing.T) {
	ls := AllUniqueLayers(64)
	if len(ls) != 5+8+23+24 {
		t.Fatalf("flattened count = %d", len(ls))
	}
	for _, l := range ls {
		if !strings.Contains(l.Name, "/") {
			t.Errorf("layer %q lacks network qualifier", l.Name)
		}
		if l.B != 64 {
			t.Errorf("layer %q batch = %d, want 64", l.Name, l.B)
		}
	}
}

func TestSensitivityBase(t *testing.T) {
	l := SensitivityBase(DefaultBatch)
	if l.Ci != 256 || l.Hi != 13 || l.Co != 128 || l.Hf != 3 || l.Stride != 1 {
		t.Errorf("sensitivity base drifted: %v", l)
	}
}

// TestWholeSuiteModels runs the full traffic model over every paper layer on
// every device: an integration smoke test that no configuration breaks the
// pipeline.
func TestWholeSuiteModels(t *testing.T) {
	ls := AllUniqueLayers(DefaultBatch)
	for _, d := range gpu.All() {
		for _, l := range ls {
			if _, err := traffic.Model(l, d, traffic.Options{}); err != nil {
				t.Errorf("%s: layer %s: %v", d.Name, l.Name, err)
			}
		}
	}
}
