package cache

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
)

// refCache is the original div/mod, array-of-structs implementation,
// retained verbatim as the differential oracle for the shift/mask rewrite:
// same LRU policy, same victim-selection order, same sector bookkeeping.
type refCache struct {
	cfg     Config
	sets    [][]refWay
	numSets int64
	tick    uint64
	stats   Stats
}

type refWay struct {
	tag     int64
	valid   uint64
	dirty   uint64
	lastUse uint64
	live    bool
}

func newRef(cfg Config) *refCache {
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	sets := make([][]refWay, numSets)
	backing := make([]refWay, numSets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{cfg: cfg, sets: sets, numSets: int64(numSets)}
}

func (c *refCache) AccessSector(byteAddr int64) bool {
	c.tick++
	c.stats.SectorAccesses++
	lineAddr := byteAddr / int64(c.cfg.LineBytes)
	sector := uint(byteAddr % int64(c.cfg.LineBytes) / int64(c.cfg.SectorBytes))
	set := c.sets[lineAddr%c.numSets]
	for i := range set {
		w := &set[i]
		if w.live && w.tag == lineAddr {
			w.lastUse = c.tick
			if w.valid&(1<<sector) != 0 {
				c.stats.SectorHits++
				return true
			}
			w.valid |= 1 << sector
			c.stats.SectorMisses++
			return false
		}
	}
	c.install(set, lineAddr, sector, false)
	c.stats.SectorMisses++
	return false
}

func (c *refCache) WriteSector(byteAddr int64) {
	c.tick++
	c.stats.SectorWrites++
	lineAddr := byteAddr / int64(c.cfg.LineBytes)
	sector := uint(byteAddr % int64(c.cfg.LineBytes) / int64(c.cfg.SectorBytes))
	set := c.sets[lineAddr%c.numSets]
	for i := range set {
		w := &set[i]
		if w.live && w.tag == lineAddr {
			w.lastUse = c.tick
			w.valid |= 1 << sector
			w.dirty |= 1 << sector
			return
		}
	}
	c.install(set, lineAddr, sector, true)
}

func (c *refCache) install(set []refWay, lineAddr int64, sector uint, dirty bool) {
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].live {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if set[victim].live {
		c.stats.LineEvictions++
		c.stats.DirtyWritebacks += uint64(bits.OnesCount64(set[victim].dirty))
	}
	w := refWay{tag: lineAddr, valid: 1 << sector, lastUse: c.tick, live: true}
	if dirty {
		w.dirty = 1 << sector
	}
	set[victim] = w
}

func (c *refCache) Stats() Stats { return c.stats }

func (c *refCache) FlushDirty() uint64 {
	before := c.stats.DirtyWritebacks
	for _, set := range c.sets {
		for i := range set {
			if set[i].live {
				c.stats.DirtyWritebacks += uint64(bits.OnesCount64(set[i].dirty))
				set[i].dirty = 0
			}
		}
	}
	return c.stats.DirtyWritebacks - before
}

// diffGeometries spans power-of-two and non-power-of-two set counts (the
// modeled devices have both: V100 L1 = 64 sets, TITAN Xp L1 = 96, L2 =
// 1536), several associativities (among them an odd one, and 32 ways,
// whose misses shift long runs of ways), and sub-line sector ratios.
func diffGeometries() []Config {
	sectors := []int{32, 64, 128}
	lines := []int{128, 256}
	ways := []int{1, 2, 3, 4, 16, 32}
	setCounts := []int{1, 3, 7, 48, 64, 96, 255, 1536}
	var out []Config
	for _, ln := range lines {
		for _, sb := range sectors {
			if sb > ln {
				continue
			}
			for _, w := range ways {
				for _, s := range setCounts {
					out = append(out, Config{SizeBytes: s * ln * w, LineBytes: ln, SectorBytes: sb, Ways: w})
				}
			}
		}
	}
	return out
}

// TestDifferentialVsReference drives randomized address streams (loads,
// stores, bursts of loads, line-masked accesses and stores, mid-stream
// flushes) through the shift/mask cache and the retained div/mod
// reference in lockstep, asserting every return value and the full
// counter set agree at each step across the geometry grid. This is the
// bit-identity oracle for the address decomposition and for the
// recency-ordered sets, whose LRU needs no timestamps.
func TestDifferentialVsReference(t *testing.T) {
	for _, cfg := range diffGeometries() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("geometry %+v: %v", cfg, err)
		}
		rng := rand.New(rand.NewSource(int64(cfg.SizeBytes)*31 + int64(cfg.Ways)))
		fast := New(cfg)
		ref := newRef(cfg)

		// Address pool ~4x the cache capacity so streams mix hits,
		// conflict evictions, and sector fills; plus a sprinkle of far
		// addresses to exercise high line-address bits.
		span := int64(cfg.SizeBytes) * 4
		randAddr := func() int64 {
			a := rng.Int63n(span)
			if rng.Intn(32) == 0 {
				a += int64(1) << (33 + rng.Intn(8))
			}
			return a
		}

		for op := 0; op < 4000; op++ {
			switch rng.Intn(12) {
			case 0, 1, 2: // store
				a := randAddr()
				fast.WriteSector(a)
				ref.WriteSector(a)
			case 3: // mid-stream flush
				if got, want := fast.FlushDirty(), ref.FlushDirty(); got != want {
					t.Fatalf("%+v op %d: FlushDirty = %d, ref %d", cfg, op, got, want)
				}
			case 4: // a burst of single-sector loads
				for n := 1 + rng.Intn(32); n > 0; n-- {
					a := randAddr() &^ int64(cfg.SectorBytes-1)
					if got, want := fast.AccessSector(a), ref.AccessSector(a); got != want {
						t.Fatalf("%+v op %d: AccessSector(%d) = %v, ref %v", cfg, op, a, got, want)
					}
				}
			case 5: // line-masked batch: one visit to the set, many sectors
				spl := cfg.LineBytes / cfg.SectorBytes
				lineAddr := randAddr() / int64(cfg.LineBytes)
				mask := rng.Uint64() & (1<<uint(spl) - 1)
				refMask := refLineLoad(ref, lineAddr, mask)
				if got := fast.AccessLineSectors(lineAddr, mask); got != refMask {
					t.Fatalf("%+v op %d: AccessLineSectors(%d, %#x) = %#x, ref %#x",
						cfg, op, lineAddr, mask, got, refMask)
				}
			case 6: // line-masked store: one visit to the set, many sectors
				spl := cfg.LineBytes / cfg.SectorBytes
				lineAddr := randAddr() / int64(cfg.LineBytes)
				mask := rng.Uint64() & (1<<uint(spl) - 1)
				refLineStore(ref, lineAddr, mask)
				fast.WriteLineSectors(lineAddr, mask)
			default: // load
				a := randAddr()
				if got, want := fast.AccessSector(a), ref.AccessSector(a); got != want {
					t.Fatalf("%+v op %d: AccessSector(%d) = %v, ref %v", cfg, op, a, got, want)
				}
			}
			if fast.Stats() != ref.Stats() {
				t.Fatalf("%+v op %d: stats diverged:\n fast %+v\n ref  %+v", cfg, op, fast.Stats(), ref.Stats())
			}
		}
		fast.FlushDirty()
		ref.FlushDirty()
		if fast.Stats() != ref.Stats() {
			t.Fatalf("%+v: final stats diverged:\n fast %+v\n ref  %+v", cfg, fast.Stats(), ref.Stats())
		}
	}
}

// refLineLoad loads the sectors of mask from line lineAddr through ref one
// sector at a time, in ascending order, and returns the mask of those that
// missed: what AccessLineSectors must return.
func refLineLoad(ref *refCache, lineAddr int64, mask uint64) (missMask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		bit := bits.TrailingZeros64(m)
		if !ref.AccessSector(lineAddr*int64(ref.cfg.LineBytes) + int64(bit)*int64(ref.cfg.SectorBytes)) {
			missMask |= 1 << uint(bit)
		}
	}
	return missMask
}

// refLineStore writes the sectors of mask in line lineAddr through ref one
// sector at a time, in ascending order: what WriteLineSectors must do.
func refLineStore(ref *refCache, lineAddr int64, mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		ref.WriteSector(lineAddr*int64(ref.cfg.LineBytes) + int64(bits.TrailingZeros64(m))*int64(ref.cfg.SectorBytes))
	}
}

// fuzzOpBytes is the size of one op on FuzzCacheVsReference's tape: a kind
// byte, a little-endian uint32 byte address and a little-endian uint64
// sector mask.
const fuzzOpBytes = 13

// FuzzCacheVsReference runs a fuzzed op tape through the cache and refCache
// in lockstep on a fuzzed geometry: power-of-two line and sector sizes,
// 1-64 ways, and at most 2^16 ways in all, so the largest Table I L2 fits
// and one exec stays short. After every op each return value and the full
// Stats must agree. An op is a sector load or store, a line-masked load or
// store, or a flush, by its kind byte mod 5; a kind byte with its top bit
// set moves the address beyond 32-bit line addresses, off the fastmod path.
func FuzzCacheVsReference(f *testing.F) {
	// (log2 line, log2 sector, ways, sets): the Table I devices' L1 and L2
	// as engine.Config.Caches derives them (4 and 16 ways), then an odd
	// associativity and a 32-way one.
	geoms := [][4]int{
		{7, 5, 4, 96}, {7, 5, 16, 1536}, // TITAN Xp
		{7, 5, 4, 48}, {7, 5, 16, 2048}, // P100
		{7, 5, 4, 64}, {7, 5, 16, 3072}, // V100
		{7, 5, 3, 96}, {7, 5, 32, 64},
	}
	for i, g := range geoms {
		// Each seed op touches one of ways+1 lines of one set, so the seeds
		// hit, promote, evict and write back from their first exec.
		rng := rand.New(rand.NewSource(int64(i)))
		line, ways, sets := 1<<g[0], g[2], g[3]
		var tape []byte
		for op := 0; op < 24; op++ {
			tape = append(tape, byte(rng.Intn(256)))
			tape = binary.LittleEndian.AppendUint32(tape, uint32(rng.Intn(ways+1)*sets*line+rng.Intn(line)))
			tape = binary.LittleEndian.AppendUint64(tape, rng.Uint64())
		}
		f.Add(uint8(g[0]), uint8(g[1]), uint8(g[2]), uint16(g[3]), tape)
	}
	f.Fuzz(func(t *testing.T, lineLog, sectorLog, ways uint8, sets uint16, tape []byte) {
		line, sector := 1<<(lineLog%16), 1<<(sectorLog%16)
		cfg := Config{SizeBytes: int(sets) * int(ways) * line, LineBytes: line, SectorBytes: sector, Ways: int(ways)}
		if ways > 64 || int(sets)*int(ways) > 1<<16 || cfg.Validate() != nil {
			return
		}
		fast, ref := Acquire(cfg), newRef(cfg)
		defer fast.Release()
		span := 4 * int64(cfg.SizeBytes)
		spl := uint(line / sector)
		for op := 0; len(tape) >= fuzzOpBytes; op++ {
			kind := tape[0]
			addr := int64(binary.LittleEndian.Uint32(tape[1:])) % span
			if kind&0x80 != 0 {
				addr += 1 << 48
			}
			lineAddr := addr / int64(line)
			mask := binary.LittleEndian.Uint64(tape[5:]) & (1<<spl - 1)
			tape = tape[fuzzOpBytes:]
			switch kind % 5 {
			case 0:
				if got, want := fast.AccessSector(addr), ref.AccessSector(addr); got != want {
					t.Fatalf("%+v op %d: AccessSector(%d) = %v, ref %v", cfg, op, addr, got, want)
				}
			case 1:
				fast.WriteSector(addr)
				ref.WriteSector(addr)
			case 2:
				if got, want := fast.AccessLineSectors(lineAddr, mask), refLineLoad(ref, lineAddr, mask); got != want {
					t.Fatalf("%+v op %d: AccessLineSectors(%d, %#x) = %#x, ref %#x", cfg, op, lineAddr, mask, got, want)
				}
			case 3:
				fast.WriteLineSectors(lineAddr, mask)
				refLineStore(ref, lineAddr, mask)
			case 4:
				if got, want := fast.FlushDirty(), ref.FlushDirty(); got != want {
					t.Fatalf("%+v op %d: FlushDirty = %d, ref %d", cfg, op, got, want)
				}
			}
			if fast.Stats() != ref.Stats() {
				t.Fatalf("%+v op %d: stats diverged:\n fast %+v\n ref  %+v", cfg, op, fast.Stats(), ref.Stats())
			}
		}
	})
}

// TestAcquireReleaseReuse pins pooled caches: a released cache comes back
// reset (no stale contents, zero counters) and geometry-matched.
func TestAcquireReleaseReuse(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 128, SectorBytes: 32, Ways: 4}
	c := Acquire(cfg)
	c.AccessSector(0)
	c.WriteSector(128)
	c.Release()
	c2 := Acquire(cfg)
	if c2.Config() != cfg {
		t.Fatalf("pooled cache config %+v, want %+v", c2.Config(), cfg)
	}
	if st := c2.Stats(); st != (Stats{}) {
		t.Fatalf("pooled cache not reset: %+v", st)
	}
	if c2.AccessSector(0) {
		t.Fatal("pooled cache retained contents across Release/Acquire")
	}
	c2.Release()
}

// TestReuseAcrossGeometriesMatchesNew: a cache whose backing arrays served
// other geometries first — larger and smaller, left dirty and full —
// behaves exactly like New for every geometry of the grid: every return
// value and counter of a randomized load/store/run stream agrees.
func TestReuseAcrossGeometriesMatchesNew(t *testing.T) {
	geoms := diffGeometries()
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(geoms), func(i, j int) { geoms[i], geoms[j] = geoms[j], geoms[i] })
	reused := Acquire(geoms[0])
	for _, cfg := range geoms {
		reused.Release()
		reused = Acquire(cfg)
		fresh := New(cfg)
		if reused.Config() != cfg || reused.Stats() != (Stats{}) {
			t.Fatalf("%+v: acquired cache has config %+v, stats %+v", cfg, reused.Config(), reused.Stats())
		}
		span := int64(cfg.SizeBytes) * 4
		spl := cfg.LineBytes / cfg.SectorBytes
		for op := 0; op < 2000; op++ {
			a := rng.Int63n(span)
			switch rng.Intn(4) {
			case 0:
				reused.WriteSector(a)
				fresh.WriteSector(a)
			case 1:
				line := a / int64(cfg.LineBytes)
				mask := rng.Uint64() & (1<<uint(spl) - 1)
				if got, want := reused.AccessLineSectors(line, mask), fresh.AccessLineSectors(line, mask); got != want {
					t.Fatalf("%+v op %d: AccessLineSectors = %#x, New %#x", cfg, op, got, want)
				}
			default:
				if got, want := reused.AccessSector(a), fresh.AccessSector(a); got != want {
					t.Fatalf("%+v op %d: AccessSector = %v, New %v", cfg, op, got, want)
				}
			}
		}
		if got, want := reused.FlushDirty(), fresh.FlushDirty(); got != want || reused.Stats() != fresh.Stats() {
			t.Fatalf("%+v: reused cache diverged from New:\n got %+v (flushed %d)\nwant %+v (flushed %d)",
				cfg, reused.Stats(), got, fresh.Stats(), want)
		}
	}
	reused.Release()
}

// TestPoolsBoundedAcrossGeometries: acquiring and releasing many distinct
// geometries leaves no per-geometry state behind, so a process fed
// arbitrary device specs cannot grow the pools without bound.
func TestPoolsBoundedAcrossGeometries(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // a pool's victim cache survives one collection
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	n := 0
	for ways := 1; ways <= 64; ways++ {
		for sets := 1; sets <= 320; sets++ {
			Acquire(Config{SizeBytes: sets * ways * 128, LineBytes: 128, SectorBytes: 32, Ways: ways}).Release()
			n++
		}
	}
	if after := heap(); after > before+512<<10 {
		t.Errorf("%d distinct geometries grew the live heap by %d KB", n, (after-before)>>10)
	}
}
