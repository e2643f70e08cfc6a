package cache

import (
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return New(Config{SizeBytes: 4096, LineBytes: 128, SectorBytes: 32, Ways: 4})
}

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 4096, LineBytes: 128, SectorBytes: 32, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 128, SectorBytes: 32, Ways: 4},
		{SizeBytes: 4096, LineBytes: 100, SectorBytes: 32, Ways: 4},
		{SizeBytes: 4000, LineBytes: 128, SectorBytes: 32, Ways: 4},
		{SizeBytes: 1 << 20, LineBytes: 1 << 13, SectorBytes: 1, Ways: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := smallCache()
	if c.AccessSector(0) {
		t.Error("cold access hit")
	}
	if !c.AccessSector(0) {
		t.Error("repeat access missed")
	}
	if !c.AccessSector(31) {
		t.Error("same-sector byte missed")
	}
	st := c.Stats()
	if st.SectorAccesses != 3 || st.SectorHits != 2 || st.SectorMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSectoredFill(t *testing.T) {
	c := smallCache()
	c.AccessSector(0) // installs line 0, sector 0
	// Sector 1 of the same line: line hit but sector miss (sector fill).
	if c.AccessSector(32) {
		t.Error("untouched sector of a present line hit")
	}
	if c.Stats().LineEvictions != 0 {
		t.Error("sector fill evicted a line")
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 8 sets x 4 ways
	// Five lines mapping to set 0: line addresses 0, 8, 16, 24, 32.
	for i := int64(0); i < 5; i++ {
		c.AccessSector(i * 8 * 128)
	}
	if c.Stats().LineEvictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().LineEvictions)
	}
	// Line 0 was LRU: it must now miss (and that refill evicts line 8, the
	// new LRU); the most recently installed line must still hit.
	if c.AccessSector(0) {
		t.Error("evicted line hit")
	}
	if !c.AccessSector(32 * 128) {
		t.Error("resident line missed")
	}

	// A hit makes its line most recent: touch A, B, C and D, hit A, then
	// install E. B is now the least recent line and is evicted; A stays.
	c = smallCache()
	line := func(k int64) int64 { return k * 8 * 128 } // k-th line of set 0
	a, b, e := line(0), line(1), line(4)
	for _, x := range []int64{a, b, line(2), line(3)} {
		c.AccessSector(x)
	}
	if !c.AccessSector(a) {
		t.Fatal("resident line A missed")
	}
	c.AccessSector(e)
	if got := c.Stats().LineEvictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if !c.AccessSector(a) {
		t.Error("A, hit before E was installed, was evicted")
	}
	if c.AccessSector(b) {
		t.Error("B, the least recent line when E was installed, still hit")
	}
}

func TestAccessBytesSpansSectors(t *testing.T) {
	c := smallCache()
	// 64 bytes starting at 16 span sectors 0, 1 and 2 of line 0.
	if m := c.AccessLineSectors(0, 0b111); m != 0b111 {
		t.Errorf("miss mask = %#b, want 0b111", m)
	}
	if st := c.Stats(); st.SectorAccesses != 3 || st.SectorMisses != 3 || st.SectorHits != 0 {
		t.Errorf("stats after first pass = %+v", st)
	}
	if m := c.AccessLineSectors(0, 0b111); m != 0 {
		t.Errorf("second pass miss mask = %#b, want 0", m)
	}
	if st := c.Stats(); st.SectorAccesses != 6 || st.SectorMisses != 3 || st.SectorHits != 3 {
		t.Errorf("stats after second pass = %+v", st)
	}
}

func TestReset(t *testing.T) {
	c := smallCache()
	c.AccessSector(0)
	c.Reset()
	if st := c.Stats(); st.SectorAccesses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	if c.AccessSector(0) {
		t.Error("hit after reset")
	}
}

func TestMissRateAndByteCounters(t *testing.T) {
	c := smallCache()
	c.AccessLineSectors(0, 0b1)
	c.AccessLineSectors(0, 0b1)
	st := c.Stats()
	if st.MissRate() != 0.5 {
		t.Errorf("miss rate = %v", st.MissRate())
	}
	// Bytes fetched and referenced are sector counts times SectorBytes.
	sb := uint64(c.Config().SectorBytes)
	if st.SectorMisses*sb != 32 || st.SectorAccesses*sb != 64 {
		t.Errorf("bytes: miss %d access %d", st.SectorMisses*sb, st.SectorAccesses*sb)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty miss rate != 0")
	}
}

// TestWorkingSetFitsOnlyCompulsoryMisses: streaming twice over a working set
// that fits entirely must show only compulsory misses.
func TestWorkingSetFitsOnlyCompulsoryMisses(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 16, LineBytes: 128, SectorBytes: 32, Ways: 8})
	n := int64(1 << 14) // 16 KB working set in a 64 KB cache
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < n; a += 32 {
			c.AccessSector(a)
		}
	}
	st := c.Stats()
	if want := uint64(n / 32); st.SectorMisses != want {
		t.Errorf("misses = %d, want %d (compulsory only)", st.SectorMisses, want)
	}
}

// TestThrashingWorkingSet: a working set far larger than the cache streamed
// repeatedly misses on (nearly) every access.
func TestThrashingWorkingSet(t *testing.T) {
	c := smallCache() // 4 KB
	n := int64(1 << 16)
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < n; a += 32 {
			c.AccessSector(a)
		}
	}
	st := c.Stats()
	if st.MissRate() < 0.99 {
		t.Errorf("thrash miss rate = %v, want ~1", st.MissRate())
	}
}

func TestWriteValidateNoFetch(t *testing.T) {
	c := smallCache()
	// A full-sector store allocates without read traffic.
	c.WriteSector(0)
	st := c.Stats()
	if st.SectorMisses != 0 || st.SectorWrites != 1 {
		t.Errorf("stats after store = %+v", st)
	}
	// The stored sector is now resident: a load hits.
	if !c.AccessSector(0) {
		t.Error("load after store missed")
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	c := smallCache() // 8 sets x 4 ways
	c.WriteSector(0)  // dirty sector in set 0
	// Evict it with four more lines mapping to set 0.
	for i := int64(1); i <= 4; i++ {
		c.AccessSector(i * 8 * 128)
	}
	if got := c.Stats().DirtyWritebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	// Clean evictions don't write back.
	for i := int64(5); i <= 8; i++ {
		c.AccessSector(i * 8 * 128)
	}
	if got := c.Stats().DirtyWritebacks; got != 1 {
		t.Errorf("clean eviction wrote back: %d", got)
	}
}

func TestFlushDirty(t *testing.T) {
	c := smallCache()
	c.WriteSector(0)
	c.WriteSector(32)
	c.WriteSector(4096) // different set
	if got := c.FlushDirty(); got != 3 {
		t.Errorf("flushed = %d, want 3", got)
	}
	// Idempotent: nothing dirty remains.
	if got := c.FlushDirty(); got != 0 {
		t.Errorf("second flush = %d, want 0", got)
	}
}

// TestQuickWriteConservation: every written sector is either written back on
// eviction or still dirty at flush — total writebacks equal unique dirty
// sectors, never exceeding writes.
func TestQuickWriteConservation(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		for _, a := range addrs {
			c.WriteSector(int64(a))
		}
		c.FlushDirty()
		st := c.Stats()
		return st.DirtyWritebacks <= st.SectorWrites
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickConservation: hits + misses == accesses, always.
func TestQuickConservation(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		for _, a := range addrs {
			c.AccessSector(int64(a))
		}
		st := c.Stats()
		return st.SectorHits+st.SectorMisses == st.SectorAccesses &&
			st.SectorAccesses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickBiggerCacheNeverWorse: on any trace, doubling capacity never
// increases misses (LRU inclusion property holds per-set for same geometry).
func TestQuickBiggerCacheNeverWorse(t *testing.T) {
	f := func(addrs []uint16) bool {
		small := New(Config{SizeBytes: 2048, LineBytes: 128, SectorBytes: 32, Ways: 4})
		big := New(Config{SizeBytes: 4096, LineBytes: 128, SectorBytes: 32, Ways: 8})
		for _, a := range addrs {
			small.AccessSector(int64(a))
			big.AccessSector(int64(a))
		}
		return big.Stats().SectorMisses <= small.Stats().SectorMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessSector(b *testing.B) {
	c := New(Config{SizeBytes: 3 << 20, LineBytes: 128, SectorBytes: 32, Ways: 16})
	for i := 0; i < b.N; i++ {
		c.AccessSector(int64(i*32) % (16 << 20))
	}
}

// TestAccessAllocFree guards the hot entries: steady-state accesses must
// not allocate at all.
func TestAccessAllocFree(t *testing.T) {
	c := New(Config{SizeBytes: 96 * 128 * 4, LineBytes: 128, SectorBytes: 32, Ways: 4})
	allocs := testing.AllocsPerRun(100, func() {
		c.AccessSector(4096)
		c.AccessLineSectors(7, 0xF)
		c.WriteSector(12345)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per access batch, want 0", allocs)
	}
}

// BenchmarkAccessSectorPow2 probes the mask set-index path (64 sets, the
// V100 L1 shape); BenchmarkAccessSector above covers the fastmod path
// (1536 sets, the TITAN Xp L2 shape).
func BenchmarkAccessSectorPow2(b *testing.B) {
	c := New(Config{SizeBytes: 32 << 10, LineBytes: 128, SectorBytes: 32, Ways: 4})
	for i := 0; i < b.N; i++ {
		c.AccessSector(int64(i*32) % (1 << 20))
	}
}

// BenchmarkAccessLineSectors measures the engine's batch entry: one probe
// filling four sectors of a line, the shape coalesced tile streams produce.
func BenchmarkAccessLineSectors(b *testing.B) {
	c := New(Config{SizeBytes: 3 << 20, LineBytes: 128, SectorBytes: 32, Ways: 16})
	for i := 0; i < b.N; i++ {
		c.AccessLineSectors(int64(i)%(1<<17), 0xF)
	}
}
