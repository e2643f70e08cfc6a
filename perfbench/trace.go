package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call the benchmark made into one layer of
// the program, named after that layer ("server.request", "spec.decode",
// ...). Parent is the id of the enclosing span (0 for a root) and Op the id
// of the op the span belongs to, so all spans of one op can be grouped.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, which is how the untraced run pays no
// tracing cost beyond a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span; the returned function closes it.
func (t *tracer) start(name string, op int, parent int64) func() {
	if t == nil {
		return func() {}
	}
	id, begin := t.reserve(), time.Now()
	return func() { t.record(id, name, op, parent, begin, time.Now()) }
}

// reserve allocates a span id ahead of the span itself, so children
// started inside it can name their parent before it closes.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record adds a finished span under a reserved id.
func (t *tracer) record(id int64, name string, op int, parent int64, begin, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: begin.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (concurrent calls) or stick out of the parent; only the union of their
// intervals clipped to the parent counts, so self time is never negative.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(coveredNs(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// coveredNs is the length of [lo, hi) covered by the union of ivs.
func coveredNs(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range c {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per span name, with the number of spans behind
// each sum.
func layerSelf(spans []span) (sum map[string]time.Duration, count map[string]int) {
	self := selfTimes(spans)
	sum, count = make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		sum[s.Name] += self[s.ID]
		count[s.Name]++
	}
	return sum, count
}
