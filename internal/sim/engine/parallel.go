package engine

import (
	"math/bits"
	"sync"

	"delta/internal/sim/cache"
	"delta/internal/sim/trace"
)

// waveSlot buffers one CTA's L1 miss stream for one wave: misses holds the
// missed line runs of every main loop back to back, in issue order, and
// loopEnd[i] is the end offset (in runs) of loop i's segment.
type waveSlot struct {
	misses  []trace.LineRun
	loopEnd []int32
}

// waveBuf is one wave's slots plus its schedule-index range. Two buffers
// alternate so the L2 replay of wave w overlaps the L1 phase of wave w+1.
type waveBuf struct {
	start, end int
	slots      []waveSlot
}

// waveBufPool recycles wave buffers (and the per-slot miss buffers they
// carry) across runs; getWaveBuf resizes a pooled buffer to the run's wave
// geometry, reusing slot and segment capacity.
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

// runParallel is the deterministic two-phase engine.
//
// Phase 1 (parallel): each wave's CTAs fan out across workers keyed by SM —
// worker w owns every SM with index ≡ w (mod workers) — so each L1 cache is
// driven by exactly one goroutine, in the serial engine's per-SM access
// order (loop-major lockstep, wave order within a loop). Per-SM L1
// simulation is independent within a wave: instead of touching the shared
// L2, workers record each CTA's L1 sector misses into its (loop, slot)
// segment of a reusable wave buffer. Each worker owns a StreamCache, so
// tile streams shared by its CTAs are generated and coalesced once, then
// replayed; streams are pure functions of (axis, index, loop), so
// per-worker memoization cannot diverge from the serial engine.
//
// Phase 2: the coordinating goroutine replays the recorded miss segments
// through the L2 in the exact serial interleave order — loop-major, wave
// order within a loop, then the wave's epilogue stores — so L2 state
// transitions, DRAM sector counts, and dirty writebacks are bit-identical
// to runSerial. Wave w's replay overlaps wave w+1's L1 phase; the two
// phases always touch disjoint buffers.
func (s *sim) runParallel(workers int) {
	nsm := s.d.NumSM
	bufs := [2]*waveBuf{getWaveBuf(s.waveSize, s.loops), getWaveBuf(s.waveSize, s.loops)}

	var wave sync.WaitGroup // per-wave L1 phase barrier
	var exit sync.WaitGroup
	chans := make([]chan *waveBuf, workers)
	requests := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		chans[w] = make(chan *waveBuf, 1)
		exit.Add(1)
		go func(w int) {
			defer exit.Done()
			sc := trace.NewStreamCache(s.gen, s.d.L1ReqBytes, s.d.SectorBytes, s.d.LineBytes, s.waveSize)
			if s.cfg.Streams != nil {
				sc.SetShared(s.cfg.Streams)
			}
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
				for loop := 0; loop < s.loops; loop++ {
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
						slot.loopEnd[loop] = int32(len(slot.misses))
					}
				}
				wave.Done()
			}
			requests[w] = reqs
		}(w)
	}

	dispatch := func(b *waveBuf, start, end int) {
		b.start, b.end = start, end
		for i := range b.slots[:end-start] {
			b.slots[i].misses = b.slots[i].misses[:0]
		}
		wave.Add(workers)
		for _, ch := range chans {
			ch <- b
		}
	}

	var pending *waveBuf
	cur := 0
	for start := 0; start < s.limit; start += s.waveSize {
		end := start + s.waveSize
		if end > s.limit {
			end = s.limit
		}
		dispatch(bufs[cur], start, end)
		if pending != nil {
			s.replay(pending)
		}
		wave.Wait()
		pending = bufs[cur]
		cur ^= 1
	}
	for _, ch := range chans {
		close(ch)
	}
	exit.Wait()
	if pending != nil {
		s.replay(pending)
	}
	for _, r := range requests {
		s.res.L1Requests += r
	}
	waveBufPool.Put(bufs[0])
	waveBufPool.Put(bufs[1])
}

// replay runs one wave's recorded L1 miss segments through the shared L2 on
// the coordinating goroutine, in the serial interleave order, then issues
// the wave's epilogue stores.
func (s *sim) replay(b *waveBuf) {
	n := b.end - b.start
	for loop := 0; loop < s.loops; loop++ {
		for si := 0; si < n; si++ {
			slot := &b.slots[si]
			lo := int32(0)
			if loop > 0 {
				lo = slot.loopEnd[loop-1]
			}
			for _, r := range slot.misses[lo:slot.loopEnd[loop]] {
				if m := s.l2.AccessLineSectors(r.Line, r.Mask); m != 0 {
					s.dramSectors += uint64(bits.OnesCount64(m))
				}
			}
		}
	}
	for idx := b.start; idx < b.end; idx++ {
		s.storeCTA(s.ctaAt(idx))
	}
	s.res.SimulatedCTAs += n
}
