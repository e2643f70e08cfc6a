// Package backprop extends DeLTA from forward convolution to the full
// training step. The paper models the forward (fprop) GEMM of each conv
// layer; training also runs two more GEMMs per layer, and both reduce to
// convolution-shaped GEMMs that the existing traffic and performance models
// evaluate directly:
//
//   - dgrad (data gradient): dX = dY (*) rot180(W). For a stride-1 layer
//     this is exactly a convolution of the Ho x Wo output gradient with
//     Co -> Ci transposed filters and "full" padding (Hf-1-Pad). Strided
//     layers convolve the zero-upsampled gradient ((Ho-1)*Stride+1 wide) at
//     stride 1 — the standard transposed-convolution formulation.
//   - wgrad (weight gradient): dW = dY^T x im2col(X), a GEMM with
//     M = Co, N = Ci*Hf*Wf, K = B*Ho*Wo. Expressed as a pointwise layer
//     whose GEMM dimensions are exactly (M, N, K); the im2col duplication
//     of X makes this a conservative (upper-bound) traffic estimate, which
//     matches cuDNN's low-locality wgrad kernels.
//
// This is the "future work" direction the paper's introduction motivates
// (training throughput, not just single-kernel inference); the README's
// Library quickstart shows it as the training pass.
package backprop

import (
	"fmt"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/perf"
	"delta/internal/traffic"
)

// DgradLayer returns the convolution whose forward pass computes the data
// gradient of l. The returned layer's IFmap is the (possibly zero-upsampled)
// output gradient and its output is the input gradient.
func DgradLayer(l layers.Conv) (layers.Conv, error) {
	if err := l.Validate(); err != nil {
		return layers.Conv{}, err
	}
	pad := l.Hf - 1 - l.Pad
	if l.Wf-1-l.Pad != pad {
		// Square filters only (all modeled CNNs): Hf == Wf is enforced by
		// the Conv shapes used here.
		return layers.Conv{}, fmt.Errorf("backprop: non-square filter in %s", l.Name)
	}
	if pad < 0 {
		// Padding larger than filter-1 never appears in the modeled CNNs;
		// clamp to a valid convolution.
		pad = 0
	}
	up := func(o int) int { return (o-1)*l.Stride + 1 }
	d := layers.Conv{
		Name: l.Name + "/dgrad",
		B:    l.B,
		Ci:   l.Co,
		Hi:   up(l.Ho()),
		Wi:   up(l.Wo()),
		Co:   l.Ci,
		Hf:   l.Hf,
		Wf:   l.Wf,
		// Transposed convolution runs at stride 1 over the upsampled grid.
		Stride: 1,
		Pad:    pad,
	}
	if err := d.Validate(); err != nil {
		return layers.Conv{}, fmt.Errorf("backprop: dgrad of %s: %w", l.Name, err)
	}
	return d, nil
}

// WgradLayer returns a GEMM-shaped layer whose forward pass has exactly the
// weight-gradient GEMM dimensions: M = Co, N = Ci*Hf*Wf, K = B*Ho*Wo.
func WgradLayer(l layers.Conv) (layers.Conv, error) {
	if err := l.Validate(); err != nil {
		return layers.Conv{}, err
	}
	w := layers.Conv{
		Name:   l.Name + "/wgrad",
		B:      l.Co,
		Ci:     l.B * l.Ho() * l.Wo(),
		Hi:     1,
		Wi:     1,
		Co:     l.Ci * l.Hf * l.Wf,
		Hf:     1,
		Wf:     1,
		Stride: 1,
	}
	if err := w.Validate(); err != nil {
		return layers.Conv{}, fmt.Errorf("backprop: wgrad of %s: %w", l.Name, err)
	}
	return w, nil
}

// Step holds the three per-layer training GEMM predictions.
type Step struct {
	Layer layers.Conv

	Fprop perf.Result
	Dgrad perf.Result
	Wgrad perf.Result

	// WgradSplitK is the K-split factor the wgrad model chose. cuDNN's
	// wgrad kernels split the huge K = B*Ho*Wo dimension across CTAs when
	// the M x N grid alone cannot fill the GPU; the model evaluates the
	// candidate splits and keeps the fastest (Wgrad reflects it, including
	// the partial-sum reduction pass).
	WgradSplitK int

	// SkipDgrad marks the network's first conv layer, which needs no data
	// gradient (there is no upstream layer to feed).
	SkipDgrad bool
}

// Seconds returns the layer's total training-step GEMM time.
func (s Step) Seconds() float64 {
	t := s.Fprop.Seconds + s.Wgrad.Seconds
	if !s.SkipDgrad {
		t += s.Dgrad.Seconds
	}
	return t
}

// BackwardOverForward returns the backward/forward time ratio, the headline
// statistic of training-vs-inference cost (~2x for most CNNs).
func (s Step) BackwardOverForward() float64 {
	b := s.Wgrad.Seconds
	if !s.SkipDgrad {
		b += s.Dgrad.Seconds
	}
	return b / s.Fprop.Seconds
}

// ModelStep evaluates fprop, dgrad, and wgrad for one layer.
func ModelStep(l layers.Conv, d gpu.Device, opt traffic.Options, skipDgrad bool) (Step, error) {
	s := Step{Layer: l, SkipDgrad: skipDgrad}
	var err error
	if s.Fprop, err = perf.ModelLayer(l, d, opt); err != nil {
		return Step{}, err
	}
	if !skipDgrad {
		dg, err := DgradLayer(l)
		if err != nil {
			return Step{}, err
		}
		if s.Dgrad, err = perf.ModelLayer(dg, d, opt); err != nil {
			return Step{}, err
		}
	}
	if s.Wgrad, s.WgradSplitK, err = modelWgrad(l, d, opt); err != nil {
		return Step{}, err
	}
	return s, nil
}

// modelWgrad evaluates the weight-gradient GEMM over candidate split-K
// factors and returns the fastest. With split s, the K dimension is divided
// into s ranges computed by s concurrent CTA groups (each effectively owning
// 1/s of the SMs and memory bandwidth), followed by a DRAM-bound reduction
// of the s partial dW buffers.
func modelWgrad(l layers.Conv, d gpu.Device, opt traffic.Options) (perf.Result, int, error) {
	w, err := WgradLayer(l)
	if err != nil {
		return perf.Result{}, 0, err
	}
	var best perf.Result
	bestSplit := 0
	m, n, k := w.GEMM()
	for _, split := range []int{1, 2, 4, 8, 16, 32} {
		if split > 1 && k/split < 64 {
			break // too little accumulation left per group
		}
		group := w
		group.Ci = (k + split - 1) / split
		dev := d
		if split > 1 {
			inv := 1 / float64(split)
			dev = (gpu.Scale{NumSM: inv, L2BW: inv, DRAMBW: inv}).Apply(d)
		}
		r, err := perf.ModelLayer(group, dev, opt)
		if err != nil {
			return perf.Result{}, 0, err
		}
		if split > 1 {
			// Reduction pass: read s partial buffers, write the final dW.
			redBytes := float64(split+1) * float64(m) * float64(n) * layers.ElemBytes
			redCycles := redBytes/d.DRAMBytesPerClk() + d.LatDRAMClk
			r.Cycles += redCycles
			r.Seconds = d.CyclesToSeconds(r.Cycles)
		}
		if bestSplit == 0 || r.Seconds < best.Seconds {
			best, bestSplit = r, split
		}
	}
	return best, bestSplit, nil
}

// NetworkStep models the whole network's training step. Layers are taken in
// order; the first layer skips dgrad. Counts follow the network definition
// (nil = all ones).
func NetworkStep(ls []layers.Conv, counts []int, d gpu.Device, opt traffic.Options) ([]Step, float64, error) {
	if counts != nil && len(counts) != len(ls) {
		return nil, 0, fmt.Errorf("backprop: counts/layers mismatch")
	}
	steps := make([]Step, 0, len(ls))
	var total float64
	for i, l := range ls {
		st, err := ModelStep(l, d, opt, i == 0)
		if err != nil {
			return nil, 0, err
		}
		steps = append(steps, st)
		c := 1
		if counts != nil {
			c = counts[i]
		}
		total += st.Seconds() * float64(c)
	}
	return steps, total, nil
}
