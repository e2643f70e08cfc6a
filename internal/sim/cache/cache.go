// Package cache implements the sectored, set-associative cache model the
// trace-driven simulator uses for GPU L1 and L2 caches.
//
// GPU caches tag at 128-byte line granularity but fill at 32-byte sector
// granularity (the paper's "minimum memory transaction granularity",
// Section IV): a miss on a sector of an already-present line fetches only
// that sector. Replacement is LRU within a set.
//
// Each set keeps its ways in recency order, most recent first, so LRU
// needs no timestamps: a referenced line moves to the front, and a set
// that is full evicts its last way.
//
// The model sits on the simulator's hottest path, so its entries take a
// line and a mask of its sectors: AccessLineSectors for the coalesced tile
// streams' loads and WriteLineSectors for the epilogue's stores each visit
// the set once for a run of sectors, and the single-sector AccessSector and
// WriteSector are their one-bit cases. Address decomposition uses shifts
// and masks instead of div/mod: line and sector granularities must be
// powers of two (true of every modeled device; Validate rejects the rest),
// and the set index — whose count is NOT a power of two on several devices
// (TITAN Xp: 96 L1 sets, 1536 L2 sets) — falls back to a Lemire fastmod
// (two multiplies) for 32-bit line addresses, and to hardware division
// beyond.
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

// way is one line slot: its tag and the masks of its valid and dirty
// sectors. An empty way is way{tag: invalidTag}.
type way struct {
	tag   int64
	valid uint64
	dirty uint64
}

// Cache is a sectored set-associative LRU cache. Not safe for concurrent
// use; the engine drives each cache from a single goroutine.
//
// Every way is a 24-B entry in one slice, set by set. A set's ways are
// ordered most recent first, and its empty ways sit only at the tail, so
// one forward scan finds a line, and the shift that moves the line to the
// front reads and writes only the ways in front of it. This is exact LRU:
// the order is the order of last reference, and a miss fills an empty way
// whenever the set has one.
type Cache struct {
	cfg Config

	lineShift   uint  // log2(LineBytes)
	sectorShift uint  // log2(SectorBytes)
	lineMask    int64 // LineBytes - 1
	assoc       int

	numSets  int64
	setsPow2 bool
	setMask  int64  // numSets - 1, when setsPow2
	setM     uint64 // ceil(2^64 / numSets), for the fastmod path

	ways  []way // numSets*assoc; set s is ways[s*assoc:(s+1)*assoc]
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

// configure gives c the geometry cfg and resets it. The way slice is
// reused when its capacity suffices and otherwise reallocated with
// capacity rounded up to a power of two, so a cache can serve any
// geometry of its size class (see Acquire).
func (c *Cache) configure(cfg Config) {
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	n := numSets * cfg.Ways
	ways := c.ways
	if cap(ways) < n {
		ways = make([]way, n, 1<<bits.Len(uint(n-1)))
	}
	*c = Cache{
		cfg:         cfg,
		lineShift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		sectorShift: uint(bits.TrailingZeros(uint(cfg.SectorBytes))),
		lineMask:    int64(cfg.LineBytes - 1),
		assoc:       cfg.Ways,
		numSets:     int64(numSets),
		setsPow2:    numSets&(numSets-1) == 0,
		setMask:     int64(numSets - 1),
		setM:        ^uint64(0)/uint64(numSets) + 1,
		ways:        ways[:n],
	}
	c.Reset()
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.ways {
		c.ways[i] = way{tag: invalidTag}
	}
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
// level, which the caller accounts for). It is AccessLineSectors with one
// bit set.
func (c *Cache) AccessSector(byteAddr int64) bool {
	return c.AccessLineSectors(byteAddr>>c.lineShift, c.sectorBit(byteAddr)) == 0
}

// WriteSector writes one sector by byte address: WriteLineSectors with one
// bit set.
func (c *Cache) WriteSector(byteAddr int64) {
	c.WriteLineSectors(byteAddr>>c.lineShift, c.sectorBit(byteAddr))
}

// sectorBit returns the line mask bit of the sector holding byteAddr.
func (c *Cache) sectorBit(byteAddr int64) uint64 {
	return 1 << (uint(byteAddr&c.lineMask) >> c.sectorShift)
}

// touch makes lineAddr the most recent way of its set and returns that
// way. A present line moves to the front with its sectors. An absent line
// is installed at the front with none valid: the ways in front of the
// first empty way shift down into it, or, in a full set, every way shifts
// down and the last (least recent) one is evicted, its dirty sectors
// written back. Either way the scan stops at the first way it need not
// move, so a hit on the front way touches only that way.
func (c *Cache) touch(lineAddr int64) *way {
	base := int(c.setIndex(lineAddr)) * c.assoc
	set := c.ways[base : base+c.assoc]
	prev := set[0]
	if prev.tag == lineAddr {
		return &set[0]
	}
	for i := 1; i < len(set); i++ {
		w := set[i]
		set[i] = prev
		switch w.tag {
		case lineAddr:
			set[0] = w
			return &set[0]
		case invalidTag:
			set[0] = way{tag: lineAddr}
			return &set[0]
		}
		prev = w
	}
	// prev is the way shifted out of the set's tail.
	if prev.tag != invalidTag {
		c.stats.LineEvictions++
		c.stats.DirtyWritebacks += uint64(bits.OnesCount64(prev.dirty))
	}
	set[0] = way{tag: lineAddr}
	return &set[0]
}

// FlushDirty writes back every dirty sector still resident (end of kernel)
// and returns the number flushed; counters include them as DirtyWritebacks.
// An empty way is never dirty.
func (c *Cache) FlushDirty() uint64 {
	before := c.stats.DirtyWritebacks
	for i := range c.ways {
		w := &c.ways[i]
		c.stats.DirtyWritebacks += uint64(bits.OnesCount64(w.dirty))
		w.dirty = 0
	}
	return c.stats.DirtyWritebacks - before
}

// AccessLineSectors references every sector of one line whose bit is set
// in mask (lineAddr = byte address >> log2(LineBytes); mask bit i = sector
// i of the line), in ascending sector order, and returns the mask of
// sectors that missed. It is bit-identical — every counter and eviction
// decision — to calling AccessSector once per set bit in ascending order,
// but visits the set once per line instead of once per sector: the
// engine's fastest entry for the coalesced tile streams, whose sectors
// arrive as runs within one line. (Sequentially, the first sector makes
// the line most recent, installing it if absent, and the rest find it at
// the front.)
func (c *Cache) AccessLineSectors(lineAddr int64, mask uint64) (missMask uint64) {
	if mask == 0 {
		return 0
	}
	n := uint64(bits.OnesCount64(mask))
	c.stats.SectorAccesses += n
	w := c.touch(lineAddr)
	missMask = mask &^ w.valid
	w.valid |= mask
	misses := uint64(bits.OnesCount64(missMask))
	c.stats.SectorHits += n - misses
	c.stats.SectorMisses += misses
	return missMask
}

// WriteLineSectors writes every sector of one line whose bit is set in
// mask (lineAddr and mask as in AccessLineSectors) with write-back,
// write-validate allocation: a full-sector store installs the sector
// without fetching it (no read traffic), marking it dirty. The dirty data
// reaches the next level only on eviction (DirtyWritebacks). Like
// AccessLineSectors, it is bit-identical to writing each set bit's sector
// in ascending order, with one visit to the set for the line.
func (c *Cache) WriteLineSectors(lineAddr int64, mask uint64) {
	if mask == 0 {
		return
	}
	c.stats.SectorWrites += uint64(bits.OnesCount64(mask))
	w := c.touch(lineAddr)
	w.valid |= mask
	w.dirty |= mask
}

// pools recycles caches by size class: pools[k] holds caches whose way
// slices have capacity 2^k, so simulation runs reuse backing arrays
// instead of re-allocating them per layer (an L2 holds 0.6-1.2 MB of way
// state on the Table I devices). The classes are fixed, so what the pools
// retain does not grow with the number of distinct geometries a process
// simulates.
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
	// configure keeps every capacity a power of two: its exact class.
	pools[sizeClass(cap(c.ways))].Put(c)
}
