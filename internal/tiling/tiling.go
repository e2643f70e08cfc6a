// Package tiling models how cuDNN blocks the im2col GEMM onto a GPU:
// CTA tile selection (the Fig. 6 lookup), warp sub-tiling, CTA grid counts,
// and the register/shared-memory occupancy that determines how many CTAs an
// SM interleaves (Section V, "Multi-CTA Interleaving").
package tiling

import (
	"fmt"

	"delta/internal/gpu"
	"delta/internal/layers"
)

// WarpSize is the number of threads per warp on every modeled device.
const WarpSize = 32

// Tile describes one CTA tile configuration of the blocked GEMM.
type Tile struct {
	BlkM, BlkN, BlkK int // CTA blocking factors
	WarpM, WarpN     int // warp tile blocking factors (blkWM x blkWN)

	// RegsPerThread is the profiled register allocation of the matching
	// cuDNN/CUTLASS kernel; with Threads it sets the register occupancy
	// limit. The paper uses hardware-profiled values (Section V); these are
	// the CUTLASS-typical allocations for each tile shape.
	RegsPerThread int
}

// Threads returns the CTA thread count: one warp per warp tile.
func (t Tile) Threads() int { return t.Warps() * WarpSize }

// Warps returns the number of warps per CTA.
func (t Tile) Warps() int { return (t.BlkM / t.WarpM) * (t.BlkN / t.WarpN) }

// SMEMBytes returns the double-buffered shared-memory allocation per CTA:
// both input tiles, two buffers (Section II-C, input double buffering).
func (t Tile) SMEMBytes() float64 {
	return float64(t.BlkM+t.BlkN) * float64(t.BlkK) * layers.ElemBytes * 2
}

// RegBytes returns the register allocation per CTA in bytes.
func (t Tile) RegBytes() float64 {
	return float64(t.Threads()) * float64(t.RegsPerThread) * 4
}

func (t Tile) String() string {
	return fmt.Sprintf("(%dx%d)x%d", t.BlkM, t.BlkN, t.BlkK)
}

// The three CTA tilings the paper profiles from cuDNN (Section IV-B), plus
// the enlarged 256x256 tile used by design options 7-9 of the scaling study.
var (
	tile128x128 = Tile{BlkM: 128, BlkN: 128, BlkK: 8, WarpM: 64, WarpN: 32, RegsPerThread: 120}
	tile128x64  = Tile{BlkM: 128, BlkN: 64, BlkK: 4, WarpM: 64, WarpN: 32, RegsPerThread: 120}
	tile128x32  = Tile{BlkM: 128, BlkN: 32, BlkK: 4, WarpM: 64, WarpN: 16, RegsPerThread: 96}
	tile256x256 = Tile{BlkM: 256, BlkN: 256, BlkK: 8, WarpM: 128, WarpN: 64, RegsPerThread: 240}
)

// Select implements the Fig. 6 lookup: cuDNN picks the CTA tile width from
// the GEMM width (the output channel count Co). BlkM is fixed at 128 and
// narrow tiles use blkK = 4 instead of 8 (Appendix A).
func Select(co int) Tile {
	switch {
	case co <= 32:
		return tile128x32
	case co <= 64:
		return tile128x64
	default:
		return tile128x128
	}
}

// SelectWithDim is Select with an optional CTA tile height/width override
// used by the scaling study's design options 7-9 (dim = 256). dim = 0 or 128
// yields the stock lookup.
func SelectWithDim(co, dim int) Tile {
	if dim == 256 {
		return tile256x256
	}
	return Select(co)
}

// Grid describes the CTA decomposition of one layer's GEMM.
type Grid struct {
	Tile Tile

	M, N, K int // GEMM dimensions

	Rows int // ceil(M / blkM): CTA tiles per column
	Cols int // ceil(N / blkN): CTA tiles per row
}

// NewGrid blocks the layer's GEMM with the stock tile lookup.
func NewGrid(l layers.Conv) Grid { return NewGridWithTile(l, Select(l.Co)) }

// NewGridWithTile blocks the layer's GEMM with an explicit tile.
func NewGridWithTile(l layers.Conv, t Tile) Grid {
	m, n, k := l.GEMM()
	return Grid{
		Tile: t,
		M:    m, N: n, K: k,
		Rows: ceilDiv(m, t.BlkM),
		Cols: ceilDiv(n, t.BlkN),
	}
}

// NumCTA returns the total CTA count of the kernel launch.
func (g Grid) NumCTA() int { return g.Rows * g.Cols }

// MainLoops returns the number of main-loop iterations per CTA:
// ceil(K / blkK).
func (g Grid) MainLoops() int { return ceilDiv(g.K, g.Tile.BlkK) }

// ActiveCTAs returns the number of CTAs an SM of device d can keep resident
// simultaneously, limited by registers, shared memory, and the hardware CTA
// limit — and never more than the kernel has CTAs per SM.
func (g Grid) ActiveCTAs(d gpu.Device) int {
	regLimit := int(d.RegBytesPerSM() / g.Tile.RegBytes())
	smemLimit := int(d.SMEMBytesPerSM() / g.Tile.SMEMBytes())
	n := regLimit
	if smemLimit < n {
		n = smemLimit
	}
	if d.MaxCTAPerSM < n {
		n = d.MaxCTAPerSM
	}
	if n < 1 {
		n = 1 // the kernel always runs, at one CTA per SM minimum
	}
	if perSM := ceilDiv(g.NumCTA(), d.NumSM); perSM < n {
		n = perSM
	}
	return n
}

// CTAsOnBusiestSM returns ceil(NumCTA / NumSM): with round-robin CTA
// scheduling, the SM that receives the most CTAs determines the layer's
// execution time (Section V, last paragraph).
func (g Grid) CTAsOnBusiestSM(d gpu.Device) int {
	return ceilDiv(g.NumCTA(), d.NumSM)
}

// EdgeEfficiencyM returns the fraction of the M extent of the CTA grid that
// is useful work (edge CTAs are partially predicated off).
func (g Grid) EdgeEfficiencyM() float64 {
	return float64(g.M) / float64(g.Rows*g.Tile.BlkM)
}

// EdgeEfficiencyN is EdgeEfficiencyM for the N extent.
func (g Grid) EdgeEfficiencyN() float64 {
	return float64(g.N) / float64(g.Cols*g.Tile.BlkN)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ProfileTileWidth reproduces the Fig. 6 staircase: the profiled CTA tile
// width as a function of the output channel count.
func ProfileTileWidth(coMax int) []int {
	out := make([]int, coMax)
	for co := 1; co <= coMax; co++ {
		out[co-1] = Select(co).BlkN
	}
	return out
}
