// Package layers defines convolution-layer geometry: tensor dimensions,
// output feature-map sizes, the im2col GEMM dimensions, and the derived
// arithmetic and footprint quantities the DeLTA model consumes.
//
// All tensors use the BCHW ordering with 32-bit floating point elements,
// matching the paper's baseline (Section IV).
package layers

import (
	"errors"
	"fmt"
)

// ElemBytes is the size of one tensor element. The paper models FP32
// training, so every feature and weight element is four bytes.
const ElemBytes = 4

// Conv describes one convolution (or fully-connected) layer instance.
//
// A fully-connected layer is expressed as a 1x1 convolution over a 1x1
// feature map with Ci equal to the input neuron count and Co the output
// neuron count.
type Conv struct {
	Name string // label used in figures, e.g. "3a_5x5red"

	B  int // mini-batch size
	Ci int // input channels
	Hi int // input feature-map height (without padding)
	Wi int // input feature-map width (without padding)
	Co int // output channels
	Hf int // filter height
	Wf int // filter width

	Stride int // convolution stride (same in both dimensions)
	Pad    int // zero padding added on every border
}

// Validate reports whether the configuration is internally consistent and
// produces a non-empty output feature map.
func (c Conv) Validate() error {
	switch {
	case c.B <= 0:
		return fmt.Errorf("layers: %s: mini-batch %d must be positive", c.Name, c.B)
	case c.Ci <= 0 || c.Co <= 0:
		return fmt.Errorf("layers: %s: channel counts (%d,%d) must be positive", c.Name, c.Ci, c.Co)
	case c.Hi <= 0 || c.Wi <= 0:
		return fmt.Errorf("layers: %s: input dims %dx%d must be positive", c.Name, c.Hi, c.Wi)
	case c.Hf <= 0 || c.Wf <= 0:
		return fmt.Errorf("layers: %s: filter dims %dx%d must be positive", c.Name, c.Hf, c.Wf)
	case c.Stride <= 0:
		return fmt.Errorf("layers: %s: stride %d must be positive", c.Name, c.Stride)
	case c.Pad < 0:
		return fmt.Errorf("layers: %s: pad %d must be non-negative", c.Name, c.Pad)
	case c.Hf > c.Hi+2*c.Pad || c.Wf > c.Wi+2*c.Pad:
		return fmt.Errorf("layers: %s: filter %dx%d larger than padded input %dx%d",
			c.Name, c.Hf, c.Wf, c.Hi+2*c.Pad, c.Wi+2*c.Pad)
	}
	if c.Ho() <= 0 || c.Wo() <= 0 {
		return errors.New("layers: " + c.Name + ": empty output feature map")
	}
	return nil
}

// Ho returns the output feature-map height.
func (c Conv) Ho() int { return (c.Hi+2*c.Pad-c.Hf)/c.Stride + 1 }

// Wo returns the output feature-map width.
func (c Conv) Wo() int { return (c.Wi+2*c.Pad-c.Wf)/c.Stride + 1 }

// HiPad returns the padded input height.
func (c Conv) HiPad() int { return c.Hi + 2*c.Pad }

// WiPad returns the padded input width.
func (c Conv) WiPad() int { return c.Wi + 2*c.Pad }

// IsPointwise reports whether the layer is a 1x1 convolution (which includes
// fully-connected layers). Pointwise layers have no intra-tile data reuse in
// the im2col IFmap matrix (paper Section IV-B).
func (c Conv) IsPointwise() bool { return c.Hf == 1 && c.Wf == 1 }

// GEMM returns the im2col GEMM dimensions (M, N, K):
//
//	M = B * Ho * Wo   (OFmap matrix height)
//	N = Co            (OFmap matrix width)
//	K = Ci * Hf * Wf  (accumulation depth)
func (c Conv) GEMM() (m, n, k int) {
	return c.B * c.Ho() * c.Wo(), c.Co, c.Ci * c.Hf * c.Wf
}

// MACs returns the multiply-accumulate count for the layer: M*N*K.
func (c Conv) MACs() float64 {
	m, n, k := c.GEMM()
	return float64(m) * float64(n) * float64(k)
}

// FLOPs returns 2*MACs, the conventional floating-point operation count.
func (c Conv) FLOPs() float64 { return 2 * c.MACs() }

// IFmapBytes returns the un-padded input feature-map footprint in bytes.
func (c Conv) IFmapBytes() float64 {
	return float64(c.B) * float64(c.Ci) * float64(c.Hi) * float64(c.Wi) * ElemBytes
}

// IFmapPaddedBytes returns the zero-padded input footprint in bytes. The
// paper's DRAM model (Eq. 10) accounts for the padded extent because the
// im2col access stream walks padded coordinates.
func (c Conv) IFmapPaddedBytes() float64 {
	return float64(c.B) * float64(c.Ci) * float64(c.HiPad()) * float64(c.WiPad()) * ElemBytes
}

// FilterBytes returns the weight footprint in bytes: Ci*Hf*Wf*Co elements.
func (c Conv) FilterBytes() float64 {
	return float64(c.Ci) * float64(c.Hf) * float64(c.Wf) * float64(c.Co) * ElemBytes
}

// OFmapBytes returns the output feature-map footprint in bytes: M*N elements.
func (c Conv) OFmapBytes() float64 {
	m, n, _ := c.GEMM()
	return float64(m) * float64(n) * ElemBytes
}

// WithBatch returns a copy of the layer with the mini-batch replaced.
func (c Conv) WithBatch(b int) Conv {
	c.B = b
	return c
}

// String returns a compact human-readable description.
func (c Conv) String() string {
	return fmt.Sprintf("%s[B=%d %dx%dx%d -> %d, %dx%d s%d p%d]",
		c.Name, c.B, c.Ci, c.Hi, c.Wi, c.Co, c.Hf, c.Wf, c.Stride, c.Pad)
}

// FC constructs a fully-connected layer expressed as a 1x1 convolution.
func FC(name string, batch, in, out int) Conv {
	return Conv{Name: name, B: batch, Ci: in, Hi: 1, Wi: 1, Co: out,
		Hf: 1, Wf: 1, Stride: 1, Pad: 0}
}
