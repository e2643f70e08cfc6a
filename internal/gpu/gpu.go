// Package gpu defines the parameterized GPU device model used by DeLTA.
//
// Each Device carries the Table I specifications of the paper plus the
// micro-benchmarked latencies of Fig. 18 and the shared-memory datapath
// widths that the paper profiles but does not tabulate. All bandwidths are
// convertible to bytes per core clock, which is the unit the performance
// model computes in.
package gpu

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"delta/internal/layers"
	"delta/internal/naming"
)

// Device is a parameterized GPU. The zero value is not usable; construct
// devices with the factory functions or by scaling an existing device.
type Device struct {
	Name string

	NumSM    int     // streaming multiprocessors
	ClockGHz float64 // core clock

	MACGFLOPS float64 // FP32 throughput (2 FLOPs per MAC), whole chip

	RegKBPerSM    float64 // register file per SM
	SMEMKBPerSM   float64 // shared memory per SM
	L2SizeMB      float64 // shared L2 capacity
	L1SizeKBPerSM float64 // L1 data cache per SM (approximate; used by the simulator)

	L1BWGBsPerSM float64 // L1 load bandwidth, per SM
	L2BWGBs      float64 // L2 bandwidth, whole chip
	DRAMBWGBs    float64 // effective DRAM bandwidth (Fig. 18 knee), whole chip

	// SMEM datapath widths in bytes per clock per SM. The paper profiles
	// these rather than quoting vendor numbers; 32 banks x 4B = 128 B/clk
	// is the architectural width for both generations.
	SMEMLoadBPerClk  float64
	SMEMStoreBPerClk float64

	// Pipeline (unloaded) latencies in core clocks, per Fig. 18 and the
	// microbenchmark literature the paper cites.
	LatL1Clk   float64
	LatL2Clk   float64
	LatDRAMClk float64
	LatSMEMClk float64

	// L1ReqBytes is the L1 request coalescing granularity: 128 B on Pascal,
	// 32 B on Volta (Section VII-A).
	L1ReqBytes int

	// SectorBytes is the minimum memory transaction granularity (one sector
	// of a 128 B line). 32 B on all modeled devices.
	SectorBytes int

	// LineBytes is the cache line size at L1 and L2.
	LineBytes int

	// MaxCTAPerSM is the hardware scheduler limit on concurrently resident
	// CTAs per SM.
	MaxCTAPerSM int
}

// Validate reports whether every field needed by the models is populated:
// every float field finite, and every count, rate, size and latency the
// models divide by or sum positive. NaN fails every comparison, so the
// float checks ask "is it positive" rather than "is it <= 0".
func (d Device) Validate() error {
	switch {
	case d.NumSM <= 0:
		return fmt.Errorf("gpu: %s: NumSM %d", d.Name, d.NumSM)
	case !positive(d.ClockGHz):
		return fmt.Errorf("gpu: %s: clock %v", d.Name, d.ClockGHz)
	case !positive(d.MACGFLOPS):
		return fmt.Errorf("gpu: %s: MAC throughput %v", d.Name, d.MACGFLOPS)
	case !positive(d.L1BWGBsPerSM) || !positive(d.L2BWGBs) || !positive(d.DRAMBWGBs):
		return fmt.Errorf("gpu: %s: memory bandwidths (L1 %v, L2 %v, DRAM %v GB/s) must be positive and finite",
			d.Name, d.L1BWGBsPerSM, d.L2BWGBs, d.DRAMBWGBs)
	case !positive(d.SMEMLoadBPerClk) || !positive(d.SMEMStoreBPerClk):
		return fmt.Errorf("gpu: %s: SMEM bandwidths (load %v, store %v B/clk) must be positive and finite",
			d.Name, d.SMEMLoadBPerClk, d.SMEMStoreBPerClk)
	case !positive(d.LatL1Clk) || !positive(d.LatL2Clk) || !positive(d.LatDRAMClk) || !positive(d.LatSMEMClk):
		return fmt.Errorf("gpu: %s: latencies (L1 %v, L2 %v, DRAM %v, SMEM %v clk) must be positive and finite",
			d.Name, d.LatL1Clk, d.LatL2Clk, d.LatDRAMClk, d.LatSMEMClk)
	case d.L1ReqBytes <= 0 || d.SectorBytes <= 0 || d.LineBytes <= 0:
		return fmt.Errorf("gpu: %s: transaction granularities unset", d.Name)
	case d.LineBytes&(d.LineBytes-1) != 0 || d.SectorBytes&(d.SectorBytes-1) != 0 || d.L1ReqBytes&(d.L1ReqBytes-1) != 0:
		// The simulator's cache and coalescer decompose addresses with
		// shifts and masks; no real GPU uses non-power-of-two transaction
		// granularities, so reject them here rather than panic downstream.
		return fmt.Errorf("gpu: %s: transaction granularities (line %dB, sector %dB, req %dB) must be powers of two",
			d.Name, d.LineBytes, d.SectorBytes, d.L1ReqBytes)
	case d.LineBytes%d.SectorBytes != 0:
		return fmt.Errorf("gpu: %s: line %dB not a multiple of sector %dB", d.Name, d.LineBytes, d.SectorBytes)
	case d.L1ReqBytes < d.SectorBytes || d.SectorBytes < layers.ElemBytes:
		// The coalescer counts requests in whole sectors, and the
		// simulator's tile streams emit each run of contiguous elements as
		// one sector range, which touches every sector only when a sector
		// holds at least one element.
		return fmt.Errorf("gpu: %s: request %dB must span at least one sector of %dB, and a sector at least one %dB element",
			d.Name, d.L1ReqBytes, d.SectorBytes, layers.ElemBytes)
	case !positive(d.RegKBPerSM) || !positive(d.SMEMKBPerSM) || !positive(d.L2SizeMB):
		return fmt.Errorf("gpu: %s: storage sizes (reg %v KB, SMEM %v KB, L2 %v MB) must be positive and finite",
			d.Name, d.RegKBPerSM, d.SMEMKBPerSM, d.L2SizeMB)
	case math.IsNaN(d.L1SizeKBPerSM) || math.IsInf(d.L1SizeKBPerSM, 0):
		return fmt.Errorf("gpu: %s: L1 size %v", d.Name, d.L1SizeKBPerSM)
	case d.MaxCTAPerSM <= 0:
		return fmt.Errorf("gpu: %s: MaxCTAPerSM unset", d.Name)
	}
	return nil
}

// positive reports whether x is finite and > 0 (false for NaN).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// MACPerClkPerSM returns FP32 MAC operations per clock per SM.
func (d Device) MACPerClkPerSM() float64 {
	return d.MACGFLOPS / 2 / float64(d.NumSM) / d.ClockGHz
}

// gbPerSecToBytesPerClk converts a GB/s figure to bytes per core clock.
func (d Device) gbPerSecToBytesPerClk(gbs float64) float64 {
	return gbs / d.ClockGHz // GB/s / (Gclk/s) = bytes/clk
}

// L1BytesPerClkPerSM returns per-SM L1 load bandwidth in bytes/clk.
func (d Device) L1BytesPerClkPerSM() float64 { return d.gbPerSecToBytesPerClk(d.L1BWGBsPerSM) }

// L2BytesPerClk returns whole-chip L2 bandwidth in bytes/clk.
func (d Device) L2BytesPerClk() float64 { return d.gbPerSecToBytesPerClk(d.L2BWGBs) }

// DRAMBytesPerClk returns whole-chip DRAM bandwidth in bytes/clk.
func (d Device) DRAMBytesPerClk() float64 { return d.gbPerSecToBytesPerClk(d.DRAMBWGBs) }

// L2BytesPerClkPerSM returns the per-SM fair share of L2 bandwidth.
func (d Device) L2BytesPerClkPerSM() float64 { return d.L2BytesPerClk() / float64(d.NumSM) }

// DRAMBytesPerClkPerSM returns the per-SM fair share of DRAM bandwidth.
func (d Device) DRAMBytesPerClkPerSM() float64 { return d.DRAMBytesPerClk() / float64(d.NumSM) }

// CyclesToSeconds converts core clocks to seconds.
func (d Device) CyclesToSeconds(cycles float64) float64 {
	return cycles / (d.ClockGHz * 1e9)
}

// L2SizeBytes returns the L2 capacity in bytes.
func (d Device) L2SizeBytes() float64 { return d.L2SizeMB * (1 << 20) }

// RegBytesPerSM returns the register file size in bytes.
func (d Device) RegBytesPerSM() float64 { return d.RegKBPerSM * (1 << 10) }

// SMEMBytesPerSM returns the shared-memory size in bytes.
func (d Device) SMEMBytesPerSM() float64 { return d.SMEMKBPerSM * (1 << 10) }

// TitanXp returns the Pascal TITAN Xp configuration of Table I.
func TitanXp() Device {
	return Device{
		Name:             "TITAN Xp",
		NumSM:            30,
		ClockGHz:         1.58,
		MACGFLOPS:        12134,
		RegKBPerSM:       256,
		SMEMKBPerSM:      96,
		L1SizeKBPerSM:    48,
		L2SizeMB:         3,
		L1BWGBsPerSM:     92,
		L2BWGBs:          1051,
		DRAMBWGBs:        430, // effective (Fig. 18a); theoretical 450
		SMEMLoadBPerClk:  128,
		SMEMStoreBPerClk: 128,
		LatL1Clk:         32,
		LatL2Clk:         220,
		LatDRAMClk:       500, // Fig. 18a
		LatSMEMClk:       24,
		L1ReqBytes:       128,
		SectorBytes:      32,
		LineBytes:        128,
		MaxCTAPerSM:      32,
	}
}

// P100 returns the Pascal Tesla P100 configuration of Table I.
func P100() Device {
	return Device{
		Name:             "P100",
		NumSM:            56,
		ClockGHz:         1.2,
		MACGFLOPS:        8602,
		RegKBPerSM:       256,
		SMEMKBPerSM:      64,
		L1SizeKBPerSM:    24,
		L2SizeMB:         4,
		L1BWGBsPerSM:     38.1,
		L2BWGBs:          1382,
		DRAMBWGBs:        550, // effective (Fig. 18b)
		SMEMLoadBPerClk:  128,
		SMEMStoreBPerClk: 128,
		LatL1Clk:         32,
		LatL2Clk:         234,
		LatDRAMClk:       580, // Fig. 18b
		LatSMEMClk:       24,
		L1ReqBytes:       128,
		SectorBytes:      32,
		LineBytes:        128,
		MaxCTAPerSM:      32,
	}
}

// V100 returns the Volta Tesla V100 configuration of Table I. The paper
// found 32 B L1 request granularity matched Volta measurements best.
func V100() Device {
	return Device{
		Name:             "V100",
		NumSM:            84,
		ClockGHz:         1.38,
		MACGFLOPS:        14837,
		RegKBPerSM:       256,
		SMEMKBPerSM:      94, // unified L1/SMEM, up to 94 KB as SMEM
		L1SizeKBPerSM:    32,
		L2SizeMB:         6,
		L1BWGBsPerSM:     94.1,
		L2BWGBs:          2167,
		DRAMBWGBs:        850, // effective (Fig. 18c)
		SMEMLoadBPerClk:  128,
		SMEMStoreBPerClk: 128,
		LatL1Clk:         28,
		LatL2Clk:         193,
		LatDRAMClk:       500, // Fig. 18c
		LatSMEMClk:       19,
		L1ReqBytes:       32,
		SectorBytes:      32,
		LineBytes:        128,
		MaxCTAPerSM:      32,
	}
}

// All returns the three devices the paper evaluates, in Table I order.
func All() []Device { return []Device{TitanXp(), P100(), V100()} }

// registered holds devices added at runtime with Register, keyed by
// normalized name. Built-in Table I devices always win a lookup.
var (
	regMu      sync.RWMutex
	registered = map[string]Device{}
)

// Register adds a device to the by-name registry (e.g. a hypothetical GPU
// loaded from a spec file that later lookups should resolve). The device
// must validate and must not shadow a built-in Table I name.
func Register(d Device) error {
	if err := d.Validate(); err != nil {
		return err
	}
	key := naming.Normalize(d.Name)
	for _, b := range All() {
		if naming.Normalize(b.Name) == key {
			return fmt.Errorf("gpu: cannot shadow built-in device %q", b.Name)
		}
	}
	regMu.Lock()
	registered[key] = d
	regMu.Unlock()
	return nil
}

// Names returns the resolvable device names: Table I order first, then
// registered devices sorted by name.
func Names() []string {
	var out []string
	for _, d := range All() {
		out = append(out, d.Name)
	}
	regMu.RLock()
	extra := make([]string, 0, len(registered))
	for _, d := range registered {
		extra = append(extra, d.Name)
	}
	regMu.RUnlock()
	sort.Strings(extra)
	return append(out, extra...)
}

// ByName returns the named device — a Table I device (exact or normalized
// name) or one previously added with Register — or an error.
func ByName(name string) (Device, error) {
	key := naming.Normalize(name)
	for _, d := range All() {
		if d.Name == name || naming.Normalize(d.Name) == key {
			return d, nil
		}
	}
	regMu.RLock()
	d, ok := registered[key]
	regMu.RUnlock()
	if ok {
		return d, nil
	}
	return Device{}, fmt.Errorf("gpu: unknown device %q", name)
}

// Scale describes multiplicative scaling of independent GPU resources, as in
// the design-option table of Fig. 16a. The zero value of a field means "x1".
type Scale struct {
	NumSM      float64 // number of SMs (also scales aggregate L1/SMEM/REG)
	MACPerSM   float64 // per-SM MAC throughput
	RegPerSM   float64 // per-SM register file size
	SMEMPerSM  float64 // per-SM shared-memory size
	SMEMBW     float64 // per-SM shared-memory bandwidth
	L1BW       float64 // per-SM L1 bandwidth
	L2BW       float64 // whole-chip L2 bandwidth
	DRAMBW     float64 // whole-chip DRAM bandwidth
	CTATileDim int     // CTA tile height/width override (0 keeps the default 128)
}

func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// Apply returns a copy of d with the scaling factors applied. The whole-chip
// MAC throughput scales with both NumSM and MACPerSM. Fractional SM scaling
// rounds to the nearest integer (at least 1).
func (s Scale) Apply(d Device) Device {
	out := d
	smScale := orOne(s.NumSM)
	out.NumSM = int(math.Max(1, math.Round(float64(d.NumSM)*smScale)))
	out.MACGFLOPS = d.MACGFLOPS * smScale * orOne(s.MACPerSM)
	out.RegKBPerSM = d.RegKBPerSM * orOne(s.RegPerSM)
	out.SMEMKBPerSM = d.SMEMKBPerSM * orOne(s.SMEMPerSM)
	out.SMEMLoadBPerClk = d.SMEMLoadBPerClk * orOne(s.SMEMBW)
	out.SMEMStoreBPerClk = d.SMEMStoreBPerClk * orOne(s.SMEMBW)
	out.L1BWGBsPerSM = d.L1BWGBsPerSM * orOne(s.L1BW)
	out.L2BWGBs = d.L2BWGBs * orOne(s.L2BW)
	out.DRAMBWGBs = d.DRAMBWGBs * orOne(s.DRAMBW)
	return out
}

// DesignOption is one column of the Fig. 16a design-option table.
type DesignOption struct {
	ID    int
	Label string
	Scale Scale
}

// DesignOptions returns the nine GPU design options of Fig. 16a, to be
// applied to the TITAN Xp baseline.
func DesignOptions() []DesignOption {
	return []DesignOption{
		{1, "2x SM, 1.5x L2/DRAM BW", Scale{NumSM: 2, L2BW: 1.5, DRAMBW: 1.5}},
		{2, "4x SM, 2x L2/DRAM BW", Scale{NumSM: 4, L2BW: 2, DRAMBW: 2}},
		{3, "2x MAC", Scale{MACPerSM: 2}},
		{4, "4x MAC", Scale{MACPerSM: 4}},
		{5, "4x MAC, 2x REG/SMEM, 1.5x L1/L2/DRAM BW",
			Scale{MACPerSM: 4, RegPerSM: 2, SMEMPerSM: 2, SMEMBW: 2, L1BW: 1.5, L2BW: 1.5, DRAMBW: 1.5}},
		{6, "6x MAC, 2x REG/SMEM/L1, 1.5x L2, 2x DRAM",
			Scale{MACPerSM: 6, RegPerSM: 2, SMEMPerSM: 2, SMEMBW: 2, L1BW: 2, L2BW: 1.5, DRAMBW: 2}},
		{7, "8x MAC, 3x REG/SMEM, 2x L1/L2/DRAM, 256 tile",
			Scale{MACPerSM: 8, RegPerSM: 3, SMEMPerSM: 3, SMEMBW: 3, L1BW: 2, L2BW: 2, DRAMBW: 2, CTATileDim: 256}},
		{8, "2x SM, 4x MAC, 2x REG/SMEM/L1/L2/DRAM, 256 tile",
			Scale{NumSM: 2, MACPerSM: 4, RegPerSM: 2, SMEMPerSM: 2, SMEMBW: 2, L1BW: 2, L2BW: 2, DRAMBW: 2, CTATileDim: 256}},
		{9, "8x MAC, 3x REG/SMEM, 2x L1/L2, 3x DRAM, 256 tile",
			Scale{MACPerSM: 8, RegPerSM: 3, SMEMPerSM: 3, SMEMBW: 3, L1BW: 2, L2BW: 2, DRAMBW: 3, CTATileDim: 256}},
	}
}
