// Package perf implements DeLTA's performance model (Section V): it turns
// the per-main-loop traffic volumes of the traffic model into a conv-layer
// execution-time estimate and names the bottleneck resource.
//
// The software-pipelined GEMM main loop runs three streams concurrently
// (Fig. 9): the global load stream (GLS) fetching the next input tiles, the
// shared-memory access stream (SAS) moving tiles between SMEM and registers,
// and the compute stream (CS) performing MACs. With multiple CTAs
// interleaved per SM, four bottleneck regimes arise (Fig. 10); the model
// evaluates all candidate execution times (Eq. 16-18) and the largest one is
// the per-SM execution time, its origin the bottleneck.
package perf

import (
	"fmt"
	"math"

	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/traffic"
)

// Bottleneck identifies the resource limiting a layer's execution
// (the legend of Fig. 13/14).
type Bottleneck int

const (
	MACBW   Bottleneck = iota // compute throughput (Eq. 13 path)
	SMEMBW                    // shared-memory datapath (Eq. 12 path)
	L1BW                      // L1 bandwidth (Eq. 18 path)
	L2BW                      // L2 bandwidth (Eq. 18 path)
	DRAMBW                    // DRAM bandwidth (Eq. 18 path)
	DRAMLAT                   // global-load latency exposure (Eq. 17 path)
)

var bottleneckNames = [...]string{"MAC_BW", "SMEM_BW", "L1_BW", "L2_BW", "DRAM_BW", "DRAM_LAT"}

func (b Bottleneck) String() string {
	if b < 0 || int(b) >= len(bottleneckNames) {
		return fmt.Sprintf("Bottleneck(%d)", int(b))
	}
	return bottleneckNames[b]
}

// Bottlenecks lists all bottleneck kinds in display order.
func Bottlenecks() []Bottleneck {
	return []Bottleneck{MACBW, SMEMBW, L1BW, L2BW, DRAMBW, DRAMLAT}
}

// Result is the execution-time prediction for one layer on one device.
type Result struct {
	Layer  layers.Conv
	Device string

	Cycles  float64 // per-SM execution cycles of the busiest SM
	Seconds float64

	Bottleneck Bottleneck

	// Per-main-loop stream times in cycles (Eq. 11-13).
	TCS  float64 // compute stream
	TSAS float64 // shared-memory access stream
	TGLS float64 // global load stream (latency + transfer, max over levels)

	// Per-main-loop bandwidth-only transfer times per level (Eq. 18 inputs).
	TL1BW, TL2BW, TDRAMBW float64

	TPrologue float64 // Eq. 14
	TEpilogue float64 // Eq. 15 (DRAM path)

	// Candidate per-SM times (Eq. 16, 17, 18); Cycles is their max.
	TMACPath float64
	TLATPath float64
	TBWPath  float64

	ActiveCTAs  int
	CTAsPerSM   int // on the busiest SM
	MainLoops   int
	Utilization float64 // achieved MAC throughput / peak
}

// Model predicts execution time from a traffic estimate. The estimate must
// have been produced for the same device.
func Model(e traffic.Estimate, d gpu.Device) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if e.Device != d.Name {
		return Result{}, fmt.Errorf("perf: estimate for %q evaluated on %q", e.Device, d.Name)
	}
	g := e.Grid
	tile := g.Tile
	const eb = layers.ElemBytes

	r := Result{Layer: e.Layer, Device: d.Name}
	r.MainLoops = g.MainLoops()
	r.ActiveCTAs = g.ActiveCTAs(d)
	r.CTAsPerSM = g.CTAsOnBusiestSM(d)

	// --- Eq. 13: compute stream. blkM*blkN*blkK MACs per loop per CTA.
	macPerClk := d.MACPerClkPerSM()
	r.TCS = float64(tile.BlkM) * float64(tile.BlkN) * float64(tile.BlkK) / macPerClk

	// --- Eq. 12: shared-memory access stream. Stores of both input tiles
	// plus every warp's loads share the SMEM datapath.
	smemStoreBytes := float64(tile.BlkM+tile.BlkN) * float64(tile.BlkK) * eb
	smemLoadBytes := float64(tile.WarpM+tile.WarpN) * float64(tile.BlkK) * eb * float64(tile.Warps())
	r.TSAS = smemStoreBytes/d.SMEMStoreBPerClk + smemLoadBytes/d.SMEMLoadBPerClk

	// --- Eq. 11: global load stream. Load latency plus transfer time at
	// each level; the slowest level paces the stream. L2/DRAM bandwidth is
	// shared by all SMs.
	r.TL1BW = e.PerLoopL1Bytes / d.L1BytesPerClkPerSM()
	r.TL2BW = e.PerLoopL2Bytes / d.L2BytesPerClkPerSM()
	r.TDRAMBW = e.PerLoopDRAMBytes / d.DRAMBytesPerClkPerSM()
	r.TGLS = math.Max(d.LatL1Clk+r.TL1BW,
		math.Max(d.LatL2Clk+r.TL2BW, d.LatDRAMClk+r.TDRAMBW))

	// --- Eq. 14: prologue. Only the first CTA's prologue is exposed; it
	// loads both input tiles from DRAM, stores them to SMEM, and primes the
	// first warp loads.
	prologueBytes := float64(tile.BlkM+tile.BlkN) * float64(tile.BlkK) * eb
	r.TPrologue = (d.LatDRAMClk + prologueBytes/d.DRAMBytesPerClkPerSM()) +
		(d.LatSMEMClk + prologueBytes/d.SMEMStoreBPerClk) +
		smemLoadBytes/d.SMEMLoadBPerClk

	// --- Eq. 15: epilogue. Every CTA writes its blkM x blkN accumulators
	// to DRAM.
	epiBytes := float64(tile.BlkM) * float64(tile.BlkN) * eb
	r.TEpilogue = epiBytes / d.DRAMBytesPerClk()

	loops := float64(r.MainLoops)
	perSM := float64(r.CTAsPerSM)

	// --- Eq. 16: compute/SMEM-paced execution (Fig. 10 cases 1 and 3).
	inner := math.Max(r.TCS, r.TSAS)
	r.TMACPath = r.TPrologue + (inner*loops+r.TEpilogue)*perSM

	// --- Eq. 17: latency-exposed execution (Fig. 10 case 2). The SM lacks
	// CTAs to hide tGLS, so each interleave group of ActiveCTAs advances
	// one loop per tGLS; the computation itself hides inside the load
	// window except for a 1/blkK pipeline tail (the paper's tCS/blkK term).
	tail := inner / float64(tile.BlkK)
	r.TLATPath = r.TPrologue + ((r.TGLS+tail)*loops+r.TEpilogue)*perSM/float64(r.ActiveCTAs)

	// --- Eq. 18: bandwidth-saturated execution (Fig. 10 case 4). Transfer
	// time at the saturated level paces every loop of every CTA.
	bwLoop := math.Max(r.TL1BW, math.Max(r.TL2BW, r.TDRAMBW))
	epiBW := r.epilogueAtBottleneck(d, epiBytes)
	r.TBWPath = r.TPrologue + (bwLoop*loops+epiBW)*perSM

	// The largest candidate is the execution time; its origin the bottleneck.
	r.Cycles = math.Max(r.TMACPath, math.Max(r.TLATPath, r.TBWPath))
	switch r.Cycles {
	case r.TBWPath:
		switch bwLoop {
		case r.TL1BW:
			r.Bottleneck = L1BW
		case r.TL2BW:
			r.Bottleneck = L2BW
		default:
			r.Bottleneck = DRAMBW
		}
	case r.TLATPath:
		r.Bottleneck = DRAMLAT
	default:
		if r.TCS >= r.TSAS {
			r.Bottleneck = MACBW
		} else {
			r.Bottleneck = SMEMBW
		}
	}
	r.Seconds = d.CyclesToSeconds(r.Cycles)
	// A device that passes Validate can still overflow the model: a
	// vanishing MAC rate makes the compute path infinite.
	if math.IsInf(r.Seconds, 0) || math.IsNaN(r.Seconds) {
		return Result{}, fmt.Errorf("perf: layer %q on %q: predicted time %v is not finite", e.Layer.Name, d.Name, r.Seconds)
	}
	r.Utilization = e.Layer.MACs() / (r.Cycles * macPerClk * float64(d.NumSM))
	if r.Utilization > 1 {
		r.Utilization = 1
	}
	return r, nil
}

// epilogueAtBottleneck returns Eq. 15's bottleneck variant: the epilogue
// write time charged against the saturated memory level. Like the per-loop
// terms it is per-CTA work charged against the SM's fair share of the
// level's bandwidth (the whole path is later multiplied by CTAs per SM);
// mixing whole-chip bandwidth in here made the Eq. 18 path drop
// discontinuously when rising traffic moved the bottleneck from L1 to L2.
func (r Result) epilogueAtBottleneck(d gpu.Device, epiBytes float64) float64 {
	switch {
	case r.TL1BW >= r.TL2BW && r.TL1BW >= r.TDRAMBW:
		return epiBytes / d.L1BytesPerClkPerSM()
	case r.TL2BW >= r.TDRAMBW:
		return epiBytes / d.L2BytesPerClkPerSM()
	default:
		return epiBytes / d.DRAMBytesPerClkPerSM()
	}
}

// ModelLayer is a convenience wrapper: traffic model then performance model.
func ModelLayer(l layers.Conv, d gpu.Device, opt traffic.Options) (Result, error) {
	e, err := traffic.Model(l, d, opt)
	if err != nil {
		return Result{}, err
	}
	return Model(e, d)
}

// ModelAll evaluates a layer list, failing fast on the first error.
func ModelAll(ls []layers.Conv, d gpu.Device, opt traffic.Options) ([]Result, error) {
	out := make([]Result, 0, len(ls))
	for _, l := range ls {
		r, err := ModelLayer(l, d, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// NetworkTime sums layer execution times weighted by per-layer replication
// counts (counts may be nil for all-ones). Used by the scaling study, where
// a network's forward time is the sum over all conv-layer instances.
func NetworkTime(rs []Result, counts []int) float64 {
	var total float64
	for i, r := range rs {
		c := 1
		if counts != nil {
			c = counts[i]
		}
		total += r.Seconds * float64(c)
	}
	return total
}

// BottleneckHistogram counts layers per bottleneck, weighted by counts
// (nil for all-ones). It reproduces Fig. 16c's distributions.
func BottleneckHistogram(rs []Result, counts []int) map[Bottleneck]int {
	h := make(map[Bottleneck]int)
	for i, r := range rs {
		c := 1
		if counts != nil {
			c = counts[i]
		}
		h[r.Bottleneck] += c
	}
	return h
}
