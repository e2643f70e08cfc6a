// Package traffic implements DeLTA's memory-traffic model (Section IV):
// per-level estimates of the bytes moved at L1, L2, and DRAM by one
// convolution layer executed as an im2col GEMM.
//
// The model reasons about three granularities of reuse:
//
//   - L1 (Eq. 2-4): warp-level coalescing inefficiency. Each warp's 32 loads
//     of an IFmap-matrix column are not contiguous (Wf-1 elements skipped at
//     every output-row boundary, stride gaps), so a warp issues more L1
//     requests than the data it uses ("memory load inefficiency", MLI).
//   - L2 (Eq. 5-9): intra-CTA-tile spatial locality. L1 captures the reuse
//     inside one CTA's blkM x blkK IFmap tile, so the tile's *unique* data —
//     estimated from its vertical and horizontal address distances — is what
//     reaches L2 each main loop.
//   - DRAM (Eq. 10): inter-CTA reuse under column-wise CTA scheduling.
//     Filter data has short reuse distance and is loaded from DRAM once;
//     IFmap data is re-streamed once per column of CTA tiles.
package traffic

import (
	"math"

	"delta/internal/gpu"
	"delta/internal/im2col"
	"delta/internal/layers"
	"delta/internal/tiling"
)

// Options tunes model variants. The zero value reproduces the paper except
// where noted.
type Options struct {
	// PaperMLIFilter uses the paper's published Pascal filter-MLI constants
	// (2.0 for blkK=8, 2.75 for blkK=4). Those constants were calibrated to
	// nvprof's 32 B-sector transaction counting, while Eq. 3 — and this
	// repository's simulator — count L1 requests at the request
	// granularity. The default (false) computes the filter MLI at request
	// granularity so model and "measurement" share one traffic definition;
	// set true to reproduce the paper's absolute Pascal numbers.
	PaperMLIFilter bool

	// CapacityAwareDRAM collapses the per-CTA-column IFmap re-stream when
	// the IFmap footprint fits in L2. The paper deliberately omits this
	// (it over-estimates DRAM traffic for L2-resident layers, Section VII-A);
	// enabling it is the ablation BenchmarkAblationCapacityAwareDRAM measures.
	CapacityAwareDRAM bool

	// TileOverride forces a CTA tile height/width (256 for scaling-study
	// options 7-9). Zero uses the stock Fig. 6 lookup.
	TileOverride int
}

// Estimate is the traffic prediction for one layer on one device.
type Estimate struct {
	Layer  layers.Conv
	Device string
	Grid   tiling.Grid

	// Load-traffic totals in bytes at each hierarchy level.
	L1Bytes   float64
	L2Bytes   float64
	DRAMBytes float64

	// Per-input-matrix breakdowns (loads).
	L1IFmapBytes, L1FilterBytes     float64
	L2IFmapBytes, L2FilterBytes     float64
	DRAMIFmapBytes, DRAMFilterBytes float64

	// StoreBytes is the epilogue OFmap write traffic (DRAM-bound; reported
	// separately because the paper's traffic validation counts loads).
	StoreBytes float64

	// Memory-load inefficiencies (Eq. 3 and the filter analysis).
	MLIIFmap  float64
	MLIFilter float64

	// Per-main-loop volumes consumed by the performance model (Eq. 11).
	PerLoopL1Bytes   float64
	PerLoopL2Bytes   float64
	PerLoopDRAMBytes float64

	// UniqueIFmapPerLoop is the estimated unique IFmap elements per CTA main
	// loop (A_DIST_V + A_DIST_H, Section IV-B), before byte scaling.
	UniqueIFmapPerLoop float64
}

// MissRateL1 returns the modeled L1 miss rate (L2 bytes / L1 bytes).
func (e Estimate) MissRateL1() float64 {
	if e.L1Bytes == 0 {
		return 0
	}
	return e.L2Bytes / e.L1Bytes
}

// MissRateL2 returns the modeled L2 miss rate (DRAM bytes / L2 bytes).
func (e Estimate) MissRateL2() float64 {
	if e.L2Bytes == 0 {
		return 0
	}
	return e.DRAMBytes / e.L2Bytes
}

// Model evaluates the DeLTA traffic model for one layer on one device.
func Model(l layers.Conv, d gpu.Device, opt Options) (Estimate, error) {
	if err := l.Validate(); err != nil {
		return Estimate{}, err
	}
	if err := d.Validate(); err != nil {
		return Estimate{}, err
	}
	tile := tiling.SelectWithDim(l.Co, opt.TileOverride)
	g := tiling.NewGridWithTile(l, tile)

	e := Estimate{Layer: l, Device: d.Name, Grid: g}

	e.MLIIFmap = MLIIFmap(l, d)
	e.MLIFilter = MLIFilterForK(tile.BlkK, g.K, d, opt.PaperMLIFilter)

	m, n, k := float64(g.M), float64(g.N), float64(g.K)
	const eb = layers.ElemBytes

	// --- L1 (Eq. 4, with the per-CTA tile-reload multiplicity) ---
	e.L1IFmapBytes = float64(g.Cols) * m * k * eb * e.MLIIFmap
	e.L1FilterBytes = float64(g.Rows) * n * k * eb * e.MLIFilter
	e.L1Bytes = e.L1IFmapBytes + e.L1FilterBytes

	// --- L2 (Eq. 5-9) ---
	uniqueIF := uniqueIFmapPerLoop(l, tile)
	e.UniqueIFmapPerLoop = uniqueIF
	loops := float64(g.MainLoops())
	numCTA := float64(g.NumCTA())
	uniqueFilter := float64(tile.BlkN * tile.BlkK)

	e.L2IFmapBytes = uniqueIF * eb * loops * numCTA
	e.L2FilterBytes = uniqueFilter * eb * loops * numCTA
	// The hierarchy cannot see more L2 traffic than L1 requests.
	if e.L2IFmapBytes > e.L1IFmapBytes {
		e.L2IFmapBytes = e.L1IFmapBytes
	}
	if e.L2FilterBytes > e.L1FilterBytes {
		e.L2FilterBytes = e.L1FilterBytes
	}
	e.L2Bytes = e.L2IFmapBytes + e.L2FilterBytes

	// --- DRAM (Eq. 10) ---
	ifmapElems := float64(l.B) * float64(l.Ci) * float64(l.HiPad()) * float64(l.WiPad())
	if l.IsPointwise() && l.Stride > 1 {
		// Unused (skipped-over) elements of a strided 1x1 conv never load.
		ifmapElems = float64(l.B) * float64(l.Ci) * float64(l.Ho()) * float64(l.Wo())
	}
	cols := float64(g.Cols)
	if opt.CapacityAwareDRAM && ifmapElems*eb <= d.L2SizeBytes() {
		cols = 1 // IFmap stays resident across CTA-tile columns
	}
	e.DRAMIFmapBytes = ifmapElems * eb * cols
	e.DRAMFilterBytes = l.FilterBytes()
	// Physical ordering: DRAM loads cannot exceed L2 loads.
	if e.DRAMIFmapBytes > e.L2IFmapBytes {
		e.DRAMIFmapBytes = e.L2IFmapBytes
	}
	if e.DRAMFilterBytes > e.L2FilterBytes {
		e.DRAMFilterBytes = e.L2FilterBytes
	}
	e.DRAMBytes = e.DRAMIFmapBytes + e.DRAMFilterBytes

	e.StoreBytes = l.OFmapBytes()

	// --- Per-main-loop volumes (feed Eq. 11) ---
	e.PerLoopL1Bytes = (float64(tile.BlkM)*e.MLIIFmap + float64(tile.BlkN)*e.MLIFilter) *
		float64(tile.BlkK) * eb
	e.PerLoopL2Bytes = (uniqueIF + uniqueFilter) * eb
	e.PerLoopDRAMBytes = e.DRAMBytes / (numCTA * loops)

	return e, nil
}

// MLIIFmap computes Eq. 3: the average L1 requests a warp makes loading an
// IFmap-matrix column slice, relative to the perfectly-coalesced minimum.
// The ceiling term captures both the column skip pattern (Eq. 2) and
// transaction address misalignment.
func MLIIFmap(l layers.Conv, d gpu.Device) float64 {
	ratio := im2col.RequestRatio(l)
	warpBytes := float64(tiling.WarpSize * layers.ElemBytes) // 128 B
	idealReqs := warpBytes / float64(d.L1ReqBytes)
	if idealReqs < 1 {
		idealReqs = 1
	}
	return math.Ceil(ratio*idealReqs) / idealReqs
}

// MLIFilterForK computes the filter-matrix load inefficiency. A warp
// loads 32/blkK column segments of blkK contiguous elements each (Fig.
// 5b/5c); columns live K elements apart, so each segment needs its own L1
// requests, and segment misalignment touches extra request blocks. Filter
// columns start at multiples of K*4 bytes, so their request-block
// alignments are the residues of n*K modulo the block size; k <= 0
// averages over all 4-byte alignments instead.
//
// With paper=false the inefficiency is computed at the device's L1 request
// granularity, consistent with Eq. 3's request counting and with the
// simulator. Averaged over all alignments, Volta (32 B requests) gives
// 1.875 (blkK=8) and 2.75 (blkK=4); Pascal (128 B requests) 4.875 and
// 8.75.
//
// With paper=true the published Pascal constants — 2.0 (blkK=8) and 2.75
// (blkK=4), calibrated to 32 B-sector transaction counting — are returned
// on 128 B-request devices.
func MLIFilterForK(blkK, k int, d gpu.Device, paper bool) float64 {
	if paper && d.L1ReqBytes == 128 {
		if blkK == 8 {
			return 2.0
		}
		if blkK == 4 {
			return 2.75
		}
	}
	segSlots := blkK              // 4 B slots per column segment
	granSlots := d.L1ReqBytes / 4 // 4 B slots per request block
	numSegs := tiling.WarpSize / blkK
	if numSegs < 1 {
		numSegs = 1
	}
	// Average request blocks touched by one segment over the alignments
	// filter columns actually take (offsets n*K mod block, which cycle with
	// period dividing the block size), or over all alignments when K is
	// unknown.
	total, count := 0, 0
	for n := 0; n < granSlots; n++ {
		s := n
		if k > 0 {
			s = (n * k) % granSlots
		}
		blocks := (s+segSlots-1)/granSlots + 1
		total += blocks
		count++
	}
	avgBlocks := float64(total) / float64(count)
	fetched := float64(numSegs) * avgBlocks * float64(d.L1ReqBytes)
	used := float64(tiling.WarpSize * layers.ElemBytes)
	return fetched / used
}

// uniqueIFmapPerLoop estimates the unique IFmap elements one CTA requests
// from L2 per main loop (Section IV-B).
func uniqueIFmapPerLoop(l layers.Conv, tile tiling.Tile) float64 {
	blkM := float64(tile.BlkM)
	blkK := float64(tile.BlkK)
	tileElems := blkM * blkK

	if l.IsPointwise() {
		// 1x1 conv and FC: every element of the tile is unique (Section
		// IV-B, "1x1 convolution and FC layers").
		return tileElems
	}

	// Eq. 5: vertical address distance of one column slice.
	distV := blkM * im2col.RequestRatio(l)

	// Eq. 6: number of distinct channels the blkK columns span. The literal
	// ratio under-counts when blkK < Hf*Wf, so floor it at one full span.
	filterPlane := float64(l.Hf * l.Wf)
	chanSpan := blkK / filterPlane
	if chanSpan < 1 {
		chanSpan = 1
	}
	aDistV := distV * chanSpan

	// Eq. 7: horizontal address distance across the blkK columns, averaging
	// the intra-Wf (distance 1) and inter-Wf (distance Wi+2Pad-Wf+1) column
	// gaps over the alignment of blkK to the filter width.
	wf := float64(l.Wf)
	wiEff := float64(l.Wi - l.Wf + 1)
	strd := float64(l.Stride)
	distH := ((blkK-1)/wf)*(wiEff+strd*(wf-blkK+1)) +
		((wf-blkK+1)/wf)*(strd*(blkK-1))
	// Eq. 7 can go negative when blkK far exceeds Wf; the span is never
	// smaller than the column count itself.
	if min := blkK - 1; distH < min {
		distH = min
	}

	// Eq. 8: multiple mini-batch samples inside one tile each contribute
	// their own horizontal span. Samples per tile = blkM / (Ho*Wo).
	samples := 1 + blkM/float64(l.Ho()*l.Wo())
	aDistH := distH * samples

	unique := aDistV + aDistH
	// Unique elements cannot exceed the (duplicated) accesses in the tile.
	if unique > tileElems {
		unique = tileElems
	}
	return unique
}
