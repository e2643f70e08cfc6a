package gpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllDevicesValidate(t *testing.T) {
	for _, d := range All() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

// TestValidateRejectsNonFinite: every float field must be finite, and the
// rates, sizes and latencies positive. NaN slips past a "<= 0" check, so
// each field is tried with NaN, +Inf and a non-positive value.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := map[string]func(*Device) *float64{
		"ClockGHz":         func(d *Device) *float64 { return &d.ClockGHz },
		"MACGFLOPS":        func(d *Device) *float64 { return &d.MACGFLOPS },
		"RegKBPerSM":       func(d *Device) *float64 { return &d.RegKBPerSM },
		"SMEMKBPerSM":      func(d *Device) *float64 { return &d.SMEMKBPerSM },
		"L2SizeMB":         func(d *Device) *float64 { return &d.L2SizeMB },
		"L1BWGBsPerSM":     func(d *Device) *float64 { return &d.L1BWGBsPerSM },
		"L2BWGBs":          func(d *Device) *float64 { return &d.L2BWGBs },
		"DRAMBWGBs":        func(d *Device) *float64 { return &d.DRAMBWGBs },
		"SMEMLoadBPerClk":  func(d *Device) *float64 { return &d.SMEMLoadBPerClk },
		"SMEMStoreBPerClk": func(d *Device) *float64 { return &d.SMEMStoreBPerClk },
		"LatL1Clk":         func(d *Device) *float64 { return &d.LatL1Clk },
		"LatL2Clk":         func(d *Device) *float64 { return &d.LatL2Clk },
		"LatDRAMClk":       func(d *Device) *float64 { return &d.LatDRAMClk },
		"LatSMEMClk":       func(d *Device) *float64 { return &d.LatSMEMClk },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e9} {
			d := V100()
			*field(&d) = v
			if err := d.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
	// L1SizeKBPerSM only sizes the simulator's L1, which checks its own
	// geometry, so Validate asks only that it be finite.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := V100()
		d.L1SizeKBPerSM = v
		if err := d.Validate(); err == nil {
			t.Errorf("L1SizeKBPerSM = %v accepted", v)
		}
	}
	// Scaling a finite device can overflow to +Inf.
	d := V100()
	d.MACGFLOPS = 1e308
	if err := (Scale{MACPerSM: 4}).Apply(d).Validate(); err == nil {
		t.Error("MAC throughput scaled to +Inf accepted")
	}
}

// TestValidateRejectsSubSectorGranularity: an L1 request narrower than a
// sector left the coalescer dividing by a zero request/sector ratio, and a
// sector narrower than one element breaks the simulator's sector ranges.
// Both are rejected; a request of exactly one sector (Volta) is not.
func TestValidateRejectsSubSectorGranularity(t *testing.T) {
	for _, g := range []struct{ req, sec, line int }{{16, 32, 128}, {1, 2, 128}, {32, 2, 128}, {4, 1, 64}} {
		d := TitanXp()
		d.L1ReqBytes, d.SectorBytes, d.LineBytes = g.req, g.sec, g.line
		if err := d.Validate(); err == nil {
			t.Errorf("request %dB, sector %dB accepted", g.req, g.sec)
		}
	}
	for _, g := range []struct{ req, sec, line int }{{32, 32, 128}, {128, 32, 128}, {16, 4, 64}} {
		d := TitanXp()
		d.L1ReqBytes, d.SectorBytes, d.LineBytes = g.req, g.sec, g.line
		if err := d.Validate(); err != nil {
			t.Errorf("request %dB, sector %dB rejected: %v", g.req, g.sec, err)
		}
	}
}

// TestValidateAllocs: the analytic path validates the device for every
// layer, so a valid device must cost no allocation.
func TestValidateAllocs(t *testing.T) {
	d := V100()
	if n := testing.AllocsPerRun(100, func() {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times per call, want 0", n)
	}
}

func TestTableISpecs(t *testing.T) {
	// Spot-check Table I values survive the constructors.
	xp := TitanXp()
	if xp.NumSM != 30 || xp.MACGFLOPS != 12134 || xp.L2SizeMB != 3 {
		t.Errorf("TITAN Xp spec drift: %+v", xp)
	}
	p := P100()
	if p.NumSM != 56 || p.L2BWGBs != 1382 || p.SMEMKBPerSM != 64 {
		t.Errorf("P100 spec drift: %+v", p)
	}
	v := V100()
	if v.NumSM != 84 || v.L1ReqBytes != 32 || v.L2SizeMB != 6 {
		t.Errorf("V100 spec drift: %+v", v)
	}
}

func TestMACPerClkPerSM(t *testing.T) {
	// TITAN Xp: 12134 GFLOPS / 2 / 30 SM / 1.58 GHz = 128 MAC/clk/SM.
	got := TitanXp().MACPerClkPerSM()
	if math.Abs(got-128) > 0.5 {
		t.Errorf("TITAN Xp MAC/clk/SM = %v, want ~128", got)
	}
}

func TestBandwidthConversions(t *testing.T) {
	d := TitanXp()
	// 430 GB/s at 1.58 GHz = 272.15 B/clk.
	if got := d.DRAMBytesPerClk(); math.Abs(got-430/1.58) > 1e-9 {
		t.Errorf("DRAMBytesPerClk = %v", got)
	}
	if got := d.L2BytesPerClkPerSM() * float64(d.NumSM); math.Abs(got-d.L2BytesPerClk()) > 1e-9 {
		t.Errorf("per-SM L2 share does not sum to total: %v", got)
	}
}

func TestCyclesSecondsRoundTrip(t *testing.T) {
	d := V100()
	s := d.CyclesToSeconds(1.38e9)
	if math.Abs(s-1.0) > 1e-12 {
		t.Errorf("1.38e9 cycles = %v s, want 1", s)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("P100"); err != nil {
		t.Errorf("ByName(P100): %v", err)
	}
	if _, err := ByName("K80"); err == nil {
		t.Error("ByName(K80) should fail")
	}
}

func TestScaleIdentity(t *testing.T) {
	d := TitanXp()
	got := (Scale{}).Apply(d)
	if got != d {
		t.Errorf("zero Scale changed device:\n got %+v\nwant %+v", got, d)
	}
}

func TestScaleApply(t *testing.T) {
	d := TitanXp()
	s := Scale{NumSM: 2, MACPerSM: 3, L2BW: 1.5, DRAMBW: 2, RegPerSM: 2, SMEMPerSM: 2, SMEMBW: 2, L1BW: 1.5}
	got := s.Apply(d)
	if got.NumSM != 60 {
		t.Errorf("NumSM = %d, want 60", got.NumSM)
	}
	if want := d.MACGFLOPS * 6; got.MACGFLOPS != want {
		t.Errorf("MACGFLOPS = %v, want %v", got.MACGFLOPS, want)
	}
	if got.L2BWGBs != d.L2BWGBs*1.5 || got.DRAMBWGBs != d.DRAMBWGBs*2 {
		t.Errorf("BW scaling wrong: %+v", got)
	}
	if got.RegKBPerSM != 512 || got.SMEMKBPerSM != 192 {
		t.Errorf("storage scaling wrong: %+v", got)
	}
	if got.SMEMLoadBPerClk != 256 || got.L1BWGBsPerSM != 138 {
		t.Errorf("SM-local BW scaling wrong: %+v", got)
	}
	// Per-SM MAC rate tripled: NumSM doubling alone must not change it.
	if r := got.MACPerClkPerSM() / d.MACPerClkPerSM(); math.Abs(r-3) > 1e-9 {
		t.Errorf("per-SM MAC ratio = %v, want 3", r)
	}
}

func TestDesignOptionsTable(t *testing.T) {
	opts := DesignOptions()
	if len(opts) != 9 {
		t.Fatalf("want 9 design options, got %d", len(opts))
	}
	for i, o := range opts {
		if o.ID != i+1 {
			t.Errorf("option %d has ID %d", i, o.ID)
		}
		d := o.Scale.Apply(TitanXp())
		if err := d.Validate(); err != nil {
			t.Errorf("option %d scales to invalid device: %v", o.ID, err)
		}
	}
	// Option 2: 4x SM with 2x memory BW (the "conventional" scaling).
	d2 := opts[1].Scale.Apply(TitanXp())
	if d2.NumSM != 120 || d2.DRAMBWGBs != 860 {
		t.Errorf("option 2 mis-scaled: %+v", d2)
	}
	// Options 7-9 enlarge the CTA tile.
	for _, id := range []int{7, 8, 9} {
		if opts[id-1].Scale.CTATileDim != 256 {
			t.Errorf("option %d should set 256 CTA tile", id)
		}
	}
}

func TestQuickScaleMonotone(t *testing.T) {
	// Scaling any single resource up never reduces any derived bandwidth.
	f := func(which uint8, mag uint8) bool {
		factor := 1 + float64(mag%8)/2 // 1 .. 4.5
		var s Scale
		switch which % 6 {
		case 0:
			s.NumSM = factor
		case 1:
			s.MACPerSM = factor
		case 2:
			s.L1BW = factor
		case 3:
			s.L2BW = factor
		case 4:
			s.DRAMBW = factor
		case 5:
			s.SMEMBW = factor
		}
		base := TitanXp()
		d := s.Apply(base)
		return d.MACGFLOPS >= base.MACGFLOPS &&
			d.L2BytesPerClk() >= base.L2BytesPerClk() &&
			d.DRAMBytesPerClk() >= base.DRAMBytesPerClk() &&
			d.SMEMLoadBPerClk >= base.SMEMLoadBPerClk &&
			d.NumSM >= base.NumSM
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
