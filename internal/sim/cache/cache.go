// Package cache implements the sectored, set-associative cache model the
// trace-driven simulator uses for GPU L1 and L2 caches.
//
// GPU caches tag at 128-byte line granularity but fill at 32-byte sector
// granularity (the paper's "minimum memory transaction granularity",
// Section IV): a miss on a sector of an already-present line fetches only
// that sector. Replacement is LRU within a set.
//
// The model sits on the simulator's hottest path (one call per sector of
// every warp of every CTA), so address decomposition uses shifts and masks
// instead of div/mod: line and sector granularities must be powers of two
// (true of every modeled device; Validate rejects the rest), and the set
// index — whose count is NOT a power of two on several devices (TITAN Xp:
// 96 L1 sets, 1536 L2 sets) — falls back to a Lemire fastmod (two
// multiplies) for 32-bit line addresses, and to hardware division beyond.
package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// Config sizes a cache.
type Config struct {
	SizeBytes   int // total data capacity
	LineBytes   int // tag granularity
	SectorBytes int // fill granularity
	Ways        int // associativity
}

// Validate reports whether the configuration is geometrically consistent.
// LineBytes and SectorBytes must be powers of two: the simulator decomposes
// every address with shifts and masks, and no real cache uses non-power-of-
// two transaction granularities. (The set *count* may be any positive
// integer; see setIndex.)
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.SectorBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line %d not a power of two", c.LineBytes)
	case c.SectorBytes&(c.SectorBytes-1) != 0:
		return fmt.Errorf("cache: sector %d not a power of two", c.SectorBytes)
	case c.LineBytes%c.SectorBytes != 0:
		return fmt.Errorf("cache: line %d not a multiple of sector %d", c.LineBytes, c.SectorBytes)
	case c.LineBytes/c.SectorBytes > 64:
		return fmt.Errorf("cache: more than 64 sectors per line")
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*ways %d", c.SizeBytes, c.LineBytes*c.Ways)
	}
	return nil
}

// Stats counts sector-granularity cache events.
type Stats struct {
	SectorAccesses uint64 // sectors referenced (loads)
	SectorHits     uint64
	SectorMisses   uint64 // sectors fetched from the next level
	LineEvictions  uint64

	SectorWrites    uint64 // sectors written (stores)
	DirtyWritebacks uint64 // dirty sectors evicted to the next level
}

// MissRate returns misses / accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.SectorAccesses == 0 {
		return 0
	}
	return float64(s.SectorMisses) / float64(s.SectorAccesses)
}

// invalidTag marks an empty way. Real line addresses are never negative.
const invalidTag = -1

// Cache is a sectored set-associative LRU cache. Not safe for concurrent
// use; the engine drives each cache from a single goroutine.
//
// Way state lives in structure-of-arrays layout: the probe loop scans only
// tags (8 bytes per way, so a 4-way set's tags share one hardware cache
// line), touching valid/dirty/lastUse lanes only for the way that matched.
type Cache struct {
	cfg Config

	lineShift   uint  // log2(LineBytes)
	sectorShift uint  // log2(SectorBytes)
	lineMask    int64 // LineBytes - 1
	ways        int

	numSets  int64
	setsPow2 bool
	setMask  int64  // numSets - 1, when setsPow2
	setM     uint64 // ceil(2^64 / numSets), for the fastmod path

	tags    []int64 // numSets*ways; invalidTag = empty
	valid   []uint64
	dirty   []uint64
	lastUse []uint64
	mru     []int32 // per set: way that hit or filled last (probe hint only)

	tick  uint64
	stats Stats
}

// New builds a cache; it panics on an invalid config (a programmer error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{}
	c.configure(cfg)
	return c
}

// configure gives c the geometry cfg and resets it. Backing arrays are
// reused when their capacity suffices and otherwise reallocated with
// capacity rounded up to a power of two, so a cache can serve any
// geometry of its size class (see Acquire).
func (c *Cache) configure(cfg Config) {
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	n := numSets * cfg.Ways
	*c = Cache{
		cfg:         cfg,
		lineShift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		sectorShift: uint(bits.TrailingZeros(uint(cfg.SectorBytes))),
		lineMask:    int64(cfg.LineBytes - 1),
		ways:        cfg.Ways,
		numSets:     int64(numSets),
		setsPow2:    numSets&(numSets-1) == 0,
		setMask:     int64(numSets - 1),
		setM:        ^uint64(0)/uint64(numSets) + 1,
		tags:        resize(c.tags, n),
		valid:       resize(c.valid, n),
		dirty:       resize(c.dirty, n),
		lastUse:     resize(c.lastUse, n),
		mru:         resize(c.mru, numSets),
	}
	c.Reset()
}

// resize returns s with length n, reallocating with capacity rounded up to
// a power of two only when cap(s) < n. Contents are left for Reset.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 1<<bits.Len(uint(n-1)))
	}
	return s[:n]
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.valid)
	clear(c.dirty)
	clear(c.lastUse)
	clear(c.mru)
	c.tick = 0
	c.stats = Stats{}
}

// setIndex maps a line address to its set: a mask for power-of-two set
// counts, otherwise a Lemire fastmod (exact for 32-bit operands — every
// realistic address space; line addresses are byte addresses / 128, so the
// division fallback only triggers beyond 512 GB footprints).
func (c *Cache) setIndex(lineAddr int64) int64 {
	if c.setsPow2 {
		return lineAddr & c.setMask
	}
	if uint64(lineAddr) < 1<<32 {
		hi, _ := bits.Mul64(c.setM*uint64(lineAddr), uint64(c.numSets))
		return int64(hi)
	}
	return lineAddr % c.numSets
}

// AccessSector references one sector by byte address. It returns true on a
// hit; on a miss the sector is filled (fetching SectorBytes from the next
// level, which the caller accounts for).
func (c *Cache) AccessSector(byteAddr int64) bool {
	c.tick++
	c.stats.SectorAccesses++

	lineAddr := byteAddr >> c.lineShift
	sector := uint(byteAddr&c.lineMask) >> c.sectorShift
	set := c.setIndex(lineAddr)
	base := int(set) * c.ways

	// MRU-first probe: the way that hit last in this set usually hits again
	// (tile streams revisit the same line many times in a row).
	w := base + int(c.mru[set])
	if c.tags[w] != lineAddr {
		w = -1
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] == lineAddr {
				w = i
				break
			}
		}
	}
	if w >= 0 {
		c.lastUse[w] = c.tick
		c.mru[set] = int32(w - base)
		if c.valid[w]&(1<<sector) != 0 {
			c.stats.SectorHits++
			return true
		}
		// Line present, sector not: sector fill.
		c.valid[w] |= 1 << sector
		c.stats.SectorMisses++
		return false
	}

	// Line absent: evict LRU way, install line with this sector.
	c.install(base, set, lineAddr, sector, false)
	c.stats.SectorMisses++
	return false
}

// WriteSector writes one sector by byte address with write-back,
// write-validate allocation: a full-sector store installs the sector
// without fetching it (no read traffic), marking it dirty. The dirty data
// reaches the next level only on eviction (DirtyWritebacks).
func (c *Cache) WriteSector(byteAddr int64) {
	c.tick++
	c.stats.SectorWrites++

	lineAddr := byteAddr >> c.lineShift
	sector := uint(byteAddr&c.lineMask) >> c.sectorShift
	set := c.setIndex(lineAddr)
	base := int(set) * c.ways

	w := base + int(c.mru[set])
	if c.tags[w] != lineAddr {
		w = -1
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] == lineAddr {
				w = i
				break
			}
		}
	}
	if w >= 0 {
		c.lastUse[w] = c.tick
		c.mru[set] = int32(w - base)
		c.valid[w] |= 1 << sector
		c.dirty[w] |= 1 << sector
		return
	}
	c.install(base, set, lineAddr, sector, true)
}

// install evicts the LRU way of the set (counting dirty writebacks) and
// fills it with a fresh line holding one sector. Victim selection scans in
// way order, preferring the first empty way, else the smallest lastUse —
// the exact order of the original div/mod implementation, so fill patterns
// (and therefore every downstream counter) are bit-identical.
func (c *Cache) install(base int, set, lineAddr int64, sector uint, dirty bool) {
	victim := base
	for i := base + 1; i < base+c.ways; i++ {
		if c.tags[i] == invalidTag {
			victim = i
			break
		}
		if c.lastUse[i] < c.lastUse[victim] {
			victim = i
		}
	}
	if c.tags[victim] != invalidTag {
		c.stats.LineEvictions++
		c.countWritebacks(c.dirty[victim])
	}
	c.tags[victim] = lineAddr
	c.valid[victim] = 1 << sector
	c.lastUse[victim] = c.tick
	c.mru[set] = int32(victim - base)
	if dirty {
		c.dirty[victim] = 1 << sector
	} else {
		c.dirty[victim] = 0
	}
}

func (c *Cache) countWritebacks(dirty uint64) {
	c.stats.DirtyWritebacks += uint64(bits.OnesCount64(dirty))
}

// FlushDirty writes back every dirty sector still resident (end of kernel)
// and returns the number flushed; counters include them as DirtyWritebacks.
func (c *Cache) FlushDirty() uint64 {
	before := c.stats.DirtyWritebacks
	for i, d := range c.dirty {
		if c.tags[i] != invalidTag {
			c.countWritebacks(d)
			c.dirty[i] = 0
		}
	}
	return c.stats.DirtyWritebacks - before
}

// AccessLineSectors references every sector of one line whose bit is set
// in mask (lineAddr = byte address >> log2(LineBytes); mask bit i = sector
// i of the line), in ascending sector order, and returns the mask of
// sectors that missed. It is bit-identical — every counter, LRU timestamp,
// and eviction decision — to calling AccessSector once per set bit in
// ascending order, but probes the set once per line instead of once per
// sector: the engine's fastest entry for the coalesced tile streams, whose
// sectors arrive as runs within one line.
func (c *Cache) AccessLineSectors(lineAddr int64, mask uint64) (missMask uint64) {
	if mask == 0 {
		return 0
	}
	n := uint64(bits.OnesCount64(mask))
	c.tick += n
	c.stats.SectorAccesses += n

	set := c.setIndex(lineAddr)
	base := int(set) * c.ways

	w := base + int(c.mru[set])
	if c.tags[w] != lineAddr {
		w = -1
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] == lineAddr {
				w = i
				break
			}
		}
	}
	if w >= 0 {
		// Line present: every set bit already valid is a hit, the rest are
		// sector fills. The line's lastUse lands on the tick of the run's
		// last access, exactly as sequential accesses would leave it.
		c.lastUse[w] = c.tick
		c.mru[set] = int32(w - base)
		missMask = mask &^ c.valid[w]
		c.valid[w] |= mask
		misses := uint64(bits.OnesCount64(missMask))
		c.stats.SectorHits += n - misses
		c.stats.SectorMisses += misses
		return missMask
	}

	// Line absent: one install covers the whole run (sequentially, the
	// first sector installs and the rest are sector fills on the fresh
	// line, so eviction bookkeeping happens exactly once either way).
	c.installMask(base, set, lineAddr, mask)
	c.stats.SectorMisses += n
	return mask
}

// installMask is install for a whole run of sectors at once.
func (c *Cache) installMask(base int, set, lineAddr int64, mask uint64) {
	victim := base
	for i := base + 1; i < base+c.ways; i++ {
		if c.tags[i] == invalidTag {
			victim = i
			break
		}
		if c.lastUse[i] < c.lastUse[victim] {
			victim = i
		}
	}
	if c.tags[victim] != invalidTag {
		c.stats.LineEvictions++
		c.countWritebacks(c.dirty[victim])
	}
	c.tags[victim] = lineAddr
	c.valid[victim] = mask
	c.dirty[victim] = 0
	c.lastUse[victim] = c.tick
	c.mru[set] = int32(victim - base)
}

// AccessSectors references each sector index in secs, in order (byte
// address = sec * sectorBytes), and returns the number of sector misses:
// the generic batch entry for scalar sector streams. (The engine itself
// drives its coalesced tile streams through AccessLineSectors, whose runs
// amortize the set probe as well as the call.)
func (c *Cache) AccessSectors(secs []int64, sectorBytes int64) (misses int) {
	for _, sec := range secs {
		if !c.AccessSector(sec * sectorBytes) {
			misses++
		}
	}
	return misses
}

// AccessBytes references every sector overlapped by [byteAddr,
// byteAddr+size) and returns the number of sector misses.
func (c *Cache) AccessBytes(byteAddr int64, size int) (misses int) {
	sb := int64(c.cfg.SectorBytes)
	first := byteAddr >> c.sectorShift
	last := (byteAddr + int64(size) - 1) >> c.sectorShift
	for s := first; s <= last; s++ {
		if !c.AccessSector(s * sb) {
			misses++
		}
	}
	return misses
}

// MissBytes returns the bytes fetched from the next level so far.
func (c *Cache) MissBytes() uint64 {
	return c.stats.SectorMisses * uint64(c.cfg.SectorBytes)
}

// AccessBytesTotal returns the bytes referenced so far (sector granularity).
func (c *Cache) AccessBytesTotal() uint64 {
	return c.stats.SectorAccesses * uint64(c.cfg.SectorBytes)
}

// pools recycles caches by size class: pools[k] holds caches whose way
// arrays have capacity 2^k, so simulation runs reuse backing arrays
// instead of re-allocating them per layer (an L2 alone is ~1 MB of way
// state). The classes are fixed, so what the pools retain does not grow
// with the number of distinct geometries a process simulates.
var pools [64]sync.Pool

// sizeClass returns the pool index of a cache with n ways in all: the
// smallest k with 2^k >= n.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Acquire returns a reset cache of the given geometry, reusing a pooled
// cache of its size class when one is available. Pair with Release when
// the run is done; the config must validate (Acquire panics like New
// otherwise).
func Acquire(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.SizeBytes / cfg.LineBytes
	c, _ := pools[sizeClass(n)].Get().(*Cache)
	if c == nil {
		c = &Cache{}
	}
	c.configure(cfg)
	return c
}

// Release returns the cache to its size class's pool. The caller must not
// use it afterwards; it is reconfigured and reset on the next Acquire.
func (c *Cache) Release() {
	// resize keeps every capacity a power of two: its exact class.
	pools[sizeClass(cap(c.tags))].Put(c)
}
