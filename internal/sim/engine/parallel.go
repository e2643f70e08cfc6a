package engine

import (
	"sync"

	"delta/internal/sim/cache"
	"delta/internal/sim/trace"
)

// chunkLoops is the number of main loops the parallel engine records
// before the coordinator replays them. It bounds the miss buffers at
// (wave size) x (chunkLoops) loops' worth of misses whatever a layer's loop
// count. One loop per chunk costs a barrier per loop and ran 10-20% slower
// on a 288-loop, two-wave layer over four L2s (2-vCPU Xeon, two workers);
// 4 to 32 loops measured alike.
const chunkLoops = 8

// waveSlot buffers one CTA's L1 miss stream for one chunk: misses holds
// the missed line runs of the chunk's main loops back to back, in issue
// order, and loopEnd[i] is the end offset (in runs) of the segment of the
// chunk's i-th loop.
type waveSlot struct {
	misses  []trace.LineRun
	loopEnd []int32
}

// waveBuf is one chunk: a wave's schedule-index range, the main-loop range
// [loop0, loop1) its slots record, and one slot per CTA of the wave. Two
// buffers alternate so the L2 replay of one chunk overlaps the L1 phase of
// the next, across wave boundaries too.
type waveBuf struct {
	start, end   int
	loop0, loop1 int
	slots        []waveSlot
}

// waveBufPool recycles chunk buffers (and the per-slot miss buffers they
// carry) across runs; getWaveBuf resizes a pooled buffer to the run's wave
// and chunk geometry, reusing slot and segment capacity.
var waveBufPool sync.Pool

func getWaveBuf(waveSize, loops int) *waveBuf {
	b, _ := waveBufPool.Get().(*waveBuf)
	if b == nil {
		b = &waveBuf{}
	}
	if cap(b.slots) < waveSize {
		slots := make([]waveSlot, waveSize)
		copy(slots, b.slots[:cap(b.slots)])
		b.slots = slots
	}
	b.slots = b.slots[:waveSize]
	for i := range b.slots {
		s := &b.slots[i]
		s.misses = s.misses[:0]
		if cap(s.loopEnd) < loops {
			s.loopEnd = make([]int32, loops)
		}
		s.loopEnd = s.loopEnd[:loops]
	}
	return b
}

// runParallel is the deterministic two-phase engine. It walks each wave
// in chunks of chunkLoops main loops.
//
// Phase 1 (parallel): each chunk's CTAs fan out across workers keyed by SM —
// worker w owns every SM with index ≡ w (mod workers) — so each L1 cache is
// driven by exactly one goroutine, in the serial engine's per-SM access
// order (loop-major lockstep, wave order within a loop). Per-SM L1
// simulation is independent within a wave: instead of touching the L2s,
// workers record each CTA's L1 sector misses into its (loop, slot) segment
// of a reusable chunk buffer. Each worker owns a StreamCache, so tile
// streams shared by its CTAs are generated and coalesced once, then
// replayed; streams are pure functions of (axis, index, loop), so
// per-worker memoization cannot diverge from the serial engine.
//
// Phase 2: the recorded miss segments are replayed through each L2 of the
// pass in the exact serial interleave order — chunks in loop order,
// loop-major and wave order within a loop inside a chunk, then, after the
// wave's last chunk, its epilogue stores — so L2 state transitions, DRAM
// sector counts, and dirty writebacks are bit-identical to runSerial (see
// replayChunk). Chunk c's replay overlaps chunk c+1's L1 phase; the two
// phases always touch disjoint buffers.
func (s *sim) runParallel(workers int) {
	nsm := s.d.NumSM
	chunk := min(chunkLoops, s.loops)
	bufs := [2]*waveBuf{getWaveBuf(s.waveSize, chunk), getWaveBuf(s.waveSize, chunk)}

	var phase sync.WaitGroup // per-chunk L1 phase barrier
	var exit sync.WaitGroup
	chans := make([]chan *waveBuf, workers)
	requests := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		chans[w] = make(chan *waveBuf, 1)
		exit.Add(1)
		go func(w int) {
			defer exit.Done()
			sc := trace.NewStreamCache(s.gen, s.d.L1ReqBytes, s.d.SectorBytes, s.d.LineBytes, s.waveSize)
			var reqs uint64
			drive := func(slot *waveSlot, l1 *cache.Cache, st *trace.Stream) {
				reqs += st.Requests
				for _, r := range st.Runs {
					if m := l1.AccessLineSectors(r.Line, r.Mask); m != 0 {
						slot.misses = append(slot.misses, trace.LineRun{Line: r.Line, Mask: m})
					}
				}
			}
			for b := range chans[w] {
				for loop := b.loop0; loop < b.loop1; loop++ {
					for idx := b.start; idx < b.end; idx++ {
						sm := idx % nsm
						if sm%workers != w {
							continue
						}
						slot := &b.slots[idx-b.start]
						l1 := s.l1s[sm]
						row, col := s.ctaAt(idx)
						drive(slot, l1, sc.IFmap(row, loop))
						drive(slot, l1, sc.Filter(col, loop))
						slot.loopEnd[loop-b.loop0] = int32(len(slot.misses))
					}
				}
				phase.Done()
			}
			requests[w] = reqs
		}(w)
	}

	dispatch := func(b *waveBuf, start, end, loop0, loop1 int) {
		b.start, b.end, b.loop0, b.loop1 = start, end, loop0, loop1
		for i := range b.slots[:end-start] {
			b.slots[i].misses = b.slots[i].misses[:0]
		}
		phase.Add(workers)
		for _, ch := range chans {
			ch <- b
		}
	}

	var pending *waveBuf
	cur := 0
	for start := 0; start < s.limit; start += s.waveSize {
		end := min(start+s.waveSize, s.limit)
		for loop0 := 0; loop0 < s.loops; loop0 += chunk {
			dispatch(bufs[cur], start, end, loop0, min(loop0+chunk, s.loops))
			if pending != nil {
				s.replayChunk(pending, workers)
			}
			phase.Wait()
			pending = bufs[cur]
			cur ^= 1
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	exit.Wait()
	if pending != nil {
		s.replayChunk(pending, workers)
	}
	for _, r := range requests {
		s.l1Requests += r
	}
	waveBufPool.Put(bufs[0])
	waveBufPool.Put(bufs[1])
}

// replayChunk replays one recorded chunk into every L2 of the pass. The
// L2s are independent, so a pass serving several configs spreads them
// over at most workers goroutines, the coordinating one included; each L2
// still sees its accesses in the serial order.
func (s *sim) replayChunk(b *waveBuf, workers int) {
	if g := min(workers, len(s.l2s)); g > 1 {
		var wg sync.WaitGroup
		for w := 1; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s.replayEvery(b, w, g)
			}(w)
		}
		s.replayEvery(b, 0, g)
		wg.Wait()
	} else {
		// One goroutine serves every L2: no closure, no WaitGroup.
		s.replayEvery(b, 0, 1)
	}
	if b.loop1 == s.loops {
		s.simulated += b.end - b.start
	}
}

// replayEvery replays b into every g-th L2 of the pass, from the w-th.
func (s *sim) replayEvery(b *waveBuf, w, g int) {
	for i := w; i < len(s.l2s); i += g {
		s.replay(&s.l2s[i], b)
	}
}

// replay runs one chunk's recorded L1 miss segments through one side's L2
// in the serial interleave order; after the wave's last chunk it issues
// the wave's epilogue stores.
func (s *sim) replay(side *l2Side, b *waveBuf) {
	n := b.end - b.start
	for i := 0; i < b.loop1-b.loop0; i++ {
		for si := 0; si < n; si++ {
			slot := &b.slots[si]
			lo := int32(0)
			if i > 0 {
				lo = slot.loopEnd[i-1]
			}
			for _, r := range slot.misses[lo:slot.loopEnd[i]] {
				side.load(r.Line, r.Mask)
			}
		}
	}
	if b.loop1 < s.loops {
		return
	}
	for idx := b.start; idx < b.end; idx++ {
		row, col := s.ctaAt(idx)
		s.storeCTA(side, row, col)
	}
}
