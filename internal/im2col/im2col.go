// Package im2col implements the address algebra of the image-to-column
// convolution algorithm (Section II-C of the paper).
//
// The im2col transform recasts a convolution as a GEMM whose IFmap matrix is
// a *virtual* replication of the input tensor: element (m, k) of the M x K
// IFmap matrix aliases one element of the padded BCHW input tensor. Package
// im2col maps matrix coordinates to physical element addresses; both the
// analytical traffic model and the trace-driven simulator are built on this
// mapping, so a single tested implementation keeps them consistent.
package im2col

import (
	"delta/internal/layers"
)

// Matrix is the virtual im2col IFmap matrix of one convolution layer.
type Matrix struct {
	L layers.Conv

	// cached geometry
	ho, wo, hiP, wiP int
	m, n, k          int
}

// New builds the im2col matrix view for a layer. The layer must validate.
func New(l layers.Conv) Matrix {
	m, n, k := l.GEMM()
	return Matrix{
		L:   l,
		ho:  l.Ho(),
		wo:  l.Wo(),
		hiP: l.HiPad(),
		wiP: l.WiPad(),
		m:   m,
		n:   n,
		k:   k,
	}
}

// Dims returns the GEMM dimensions (M, N, K).
func (mt Matrix) Dims() (m, n, k int) { return mt.m, mt.n, mt.k }

// Coord is a decoded position in the padded BCHW input tensor.
type Coord struct {
	B, C int // sample and channel
	Y, X int // padded row and column
}

// Decode splits matrix coordinates (row, col) into tensor coordinates.
// Row indexes the output position (b, y, x); col indexes the filter tap
// (c, r, s). The returned coordinate is in the padded frame.
func (mt Matrix) Decode(row, col int) Coord {
	b := row / (mt.ho * mt.wo)
	rem := row % (mt.ho * mt.wo)
	oy := rem / mt.wo
	ox := rem % mt.wo

	c := col / (mt.L.Hf * mt.L.Wf)
	rem2 := col % (mt.L.Hf * mt.L.Wf)
	r := rem2 / mt.L.Wf
	s := rem2 % mt.L.Wf

	return Coord{B: b, C: c, Y: oy*mt.L.Stride + r, X: ox*mt.L.Stride + s}
}

// Address returns the element index of matrix position (row, col) within the
// padded BCHW tensor laid out contiguously (the address space the paper's
// Fig. 5a numbers enumerate). Multiply by layers.ElemBytes for a byte
// address.
func (mt Matrix) Address(row, col int) int64 {
	co := mt.Decode(row, col)
	return ((int64(co.B)*int64(mt.L.Ci)+int64(co.C))*int64(mt.hiP)+int64(co.Y))*int64(mt.wiP) + int64(co.X)
}

// IsPad reports whether matrix position (row, col) falls in the zero-padding
// halo rather than on a real input element.
func (mt Matrix) IsPad(row, col int) bool {
	co := mt.Decode(row, col)
	return co.Y < mt.L.Pad || co.Y >= mt.L.Pad+mt.L.Hi ||
		co.X < mt.L.Pad || co.X >= mt.L.Pad+mt.L.Wi
}

// PaddedElems returns the number of elements in the padded input tensor,
// i.e. the extent of the Address space.
func (mt Matrix) PaddedElems() int64 {
	return int64(mt.L.B) * int64(mt.L.Ci) * int64(mt.hiP) * int64(mt.wiP)
}

// ColumnAddresses fills dst with the addresses of rows [row0, row0+len(dst))
// of matrix column col. It is the access pattern of one warp loading a slice
// of an IFmap-matrix column (Fig. 5a) and is the simulator's hot path.
func (mt Matrix) ColumnAddresses(col, row0 int, dst []int64) {
	it := mt.ColumnIter(col, row0)
	for i := range dst {
		dst[i] = it.Addr()
		it.Advance()
	}
}

// ColumnIter walks one im2col-matrix column down the M (row) direction in
// O(1) per step: within a run of Wo consecutive rows the address advances by
// Stride, and the iterator carries the precomputed jumps across output-row
// and sample boundaries. It replaces a full Decode (four div/mods) per
// element in the trace generator's inner loops with two compares and an add.
//
// The iterator yields rows row0, row0+1, ... of the fixed column; advancing
// past the last matrix row is harmless (the out-of-range address is simply
// never read).
type ColumnIter struct {
	addr int64 // element address of the current row

	ox, oy int // output-pixel coordinate of the current row
	wo, ho int // output feature-map extents (run lengths)

	// Address deltas: one output pixel to the right; additional jump when
	// the output row wraps; additional jump when the sample wraps.
	stepX, stepRow, stepSample int64

	// Padding-halo test state: (y, x) is the padded input coordinate of the
	// current row, stepped alongside addr; the halo is everything outside
	// [padLo, padHiY) x [padLo, padHiX).
	x, y                  int
	r, s                  int // filter-tap offsets of this column
	stride                int
	padLo, padHiY, padHiX int
}

// ColumnIter positions an iterator at (row0, col). The one-off cost is a
// single Decode; every subsequent row costs O(1).
func (mt Matrix) ColumnIter(col, row0 int) ColumnIter {
	co := mt.Decode(row0, col)
	rem := col % (mt.L.Hf * mt.L.Wf)
	r, s := rem/mt.L.Wf, rem%mt.L.Wf

	stride := int64(mt.L.Stride)
	wiP := int64(mt.wiP)
	sample := int64(mt.L.Ci) * int64(mt.hiP) * wiP
	rem2 := row0 % (mt.ho * mt.wo)
	return ColumnIter{
		addr:       mt.Address(row0, col),
		ox:         rem2 % mt.wo,
		oy:         rem2 / mt.wo,
		wo:         mt.wo,
		ho:         mt.ho,
		stepX:      stride,
		stepRow:    stride*wiP - int64(mt.wo)*stride,
		stepSample: sample - int64(mt.ho)*stride*wiP,
		x:          co.X,
		y:          co.Y,
		r:          r,
		s:          s,
		stride:     mt.L.Stride,
		padLo:      mt.L.Pad,
		padHiY:     mt.L.Pad + mt.L.Hi,
		padHiX:     mt.L.Pad + mt.L.Wi,
	}
}

// Addr returns the element address of the current row (multiply by
// layers.ElemBytes for a byte address).
func (it *ColumnIter) Addr() int64 { return it.addr }

// IsPad reports whether the current row falls in the zero-padding halo.
func (it *ColumnIter) IsPad() bool {
	return it.y < it.padLo || it.y >= it.padHiY || it.x < it.padLo || it.x >= it.padHiX
}

// RunLen returns the number of rows (current row included) until the next
// output-row wrap: within a run, consecutive rows advance the address by a
// fixed Stride elements, so a caller can treat the whole run as one
// arithmetic segment instead of stepping element by element.
func (it *ColumnIter) RunLen() int { return it.wo - it.ox }

// AdvanceRun steps the iterator n rows at once. n must not exceed RunLen():
// the address advances linearly within a run, and the (single possible)
// output-row wrap — plus sample wrap — is applied exactly as n repeated
// Advance calls would.
func (it *ColumnIter) AdvanceRun(n int) {
	it.addr += int64(n) * it.stepX
	it.x += n * it.stride
	it.ox += n
	if it.ox == it.wo {
		it.ox = 0
		it.x = it.s
		it.addr += it.stepRow
		it.y += it.stride
		it.oy++
		if it.oy == it.ho {
			it.oy = 0
			it.y = it.r
			it.addr += it.stepSample
		}
	}
}

// Advance steps the iterator one matrix row down the column.
func (it *ColumnIter) Advance() {
	it.addr += it.stepX
	it.x += it.stride
	it.ox++
	if it.ox == it.wo {
		it.ox = 0
		it.x = it.s
		it.addr += it.stepRow
		it.y += it.stride
		it.oy++
		if it.oy == it.ho {
			it.oy = 0
			it.y = it.r
			it.addr += it.stepSample
		}
	}
}

// FilterMatrix is the K x N weight matrix of the im2col GEMM. Unlike the
// IFmap matrix it is materialized: addresses are contiguous down each column
// (the K direction), and columns are K elements apart (Fig. 5b/5c).
type FilterMatrix struct {
	K, N int
}

// NewFilter builds the filter matrix view for a layer.
func NewFilter(l layers.Conv) FilterMatrix {
	_, n, k := l.GEMM()
	return FilterMatrix{K: k, N: n}
}

// Address returns the element index of filter matrix position (k, n) in the
// weight tensor. Filter addresses live in their own address space, disjoint
// from IFmap addresses; callers offset them when mixing streams.
func (f FilterMatrix) Address(k, n int) int64 {
	return int64(n)*int64(f.K) + int64(k)
}

// RequestRatio returns the paper's Eq. 2: the ratio of elements spanned to
// elements used when a warp walks one IFmap-matrix column, caused by the
// Wf-1 skipped elements at each output-row boundary and by the stride.
//
//	(Wi + 2*Pad) * Stride / (Wi + 2*Pad - Wf + 1)
//
// For a 1x1 stride-1 layer this is exactly 1 (perfectly dense columns).
func RequestRatio(l layers.Conv) float64 {
	den := float64(l.Wi + 2*l.Pad - l.Wf + 1)
	return float64(l.Wi+2*l.Pad) * float64(l.Stride) / den
}
