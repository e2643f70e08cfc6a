// Package chaos is a seeded, deterministic fault-injection layer for the
// fleet's network paths. An Injector holds a rule set and a PRNG seeded
// once at construction; every potential injection consults the same PRNG
// under one lock, so the same seed over the same request sequence injects
// the same fault sequence — a failed chaos run replays identically from
// its seed.
//
// Faults enter through one surface: Listener wraps a server's
// net.Listener (delta-server's -chaos flag; in-process tests wrap an
// httptest server's listener the same way) and plans each HTTP request it
// sniffs on an accepted connection: refusal (the connection closes before
// any response byte), latency before the first response byte or before
// every SSE frame, and frame-level cut/truncate/corrupt on outbound SSE
// streams (a response that is not text/event-stream passes untouched).
//
// Rules match on path (prefix; an empty path matches every request) and
// are scheduled by matching-request count (AfterRequests), bounded by a
// total injection Count, and gated by Prob through the seeded PRNG. A
// spec is decoded strictly: a field the Rule does not know is an error,
// not a rule that silently fires everywhere. Every injection is reported
// to the Logf sink, one line each, so a run's fault sequence can be
// compared with a replay's.
package chaos

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"math/rand"
)

// Seed resolves the effective PRNG seed: an explicit non-zero seed wins,
// else 1 — never wall-clock time, so an unseeded run is still
// reproducible.
func Seed(explicit int64) int64 {
	if explicit != 0 {
		return explicit
	}
	return 1
}

// Fault names the injected failure modes.
const (
	// FaultRefuse refuses the request: the listener closes its connection
	// before a response byte is written.
	FaultRefuse = "refuse"

	// FaultLatency delays the response at Rule.Where: "first_byte"
	// (before its first byte) or "frame" (before every SSE frame).
	FaultLatency = "latency"

	// FaultCut drops the stream after Rule.AfterFrames complete frames —
	// a mid-stream connection loss with whole frames on the wire.
	FaultCut = "cut"

	// FaultTruncate drops the stream partway through frame
	// Rule.AfterFrames — a torn frame, the SSE analogue of a torn WAL
	// append.
	FaultTruncate = "truncate"

	// FaultCorrupt flips a byte near the tail of frame Rule.AfterFrames
	// (the JSON payload's closing bytes) and lets the stream continue.
	FaultCorrupt = "corrupt"
)

// Rule is one fault-injection rule. The zero scheduling fields mean
// "always armed, unlimited, probability 1".
type Rule struct {
	// Fault is one of the Fault* constants; required.
	Fault string `json:"fault"`

	// Path restricts the rule to request paths with this prefix; the
	// request line is sniffed from the inbound bytes. An empty Path
	// matches every request.
	Path string `json:"path,omitempty"`

	// AfterRequests arms the rule after this many matching requests have
	// been seen (the fault starts on request AfterRequests+1).
	AfterRequests int `json:"after_requests,omitempty"`

	// Count bounds total injections from this rule (0 = unlimited).
	Count int `json:"count,omitempty"`

	// Prob is the injection probability once armed, drawn from the
	// injector's seeded PRNG (0 means 1.0 — deterministic rules need no
	// dice).
	Prob float64 `json:"prob,omitempty"`

	// LatencyMS is the injected delay for FaultLatency.
	LatencyMS int `json:"latency_ms,omitempty"`

	// Where sites the latency: "first_byte" (default) or "frame".
	Where string `json:"where,omitempty"`

	// AfterFrames is the 0-based frame index FaultCut/Truncate/Corrupt
	// target (cut: after this many complete frames; truncate/corrupt:
	// within frame AfterFrames). Frames are wire frames — keep-alive
	// comments count.
	AfterFrames int `json:"after_frames,omitempty"`
}

func (r Rule) validate() error {
	switch r.Fault {
	case FaultRefuse, FaultCut, FaultTruncate, FaultCorrupt:
	case FaultLatency:
		if r.LatencyMS <= 0 {
			return fmt.Errorf("chaos: latency rule needs latency_ms > 0")
		}
		switch r.Where {
		case "", "first_byte", "frame":
		default:
			return fmt.Errorf("chaos: unknown latency site %q (want first_byte or frame)", r.Where)
		}
	case "":
		return fmt.Errorf("chaos: rule missing fault")
	default:
		return fmt.Errorf("chaos: unknown fault %q", r.Fault)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("chaos: prob %v out of [0, 1]", r.Prob)
	}
	return nil
}

// Spec is the JSON document behind the delta-server -chaos flag.
type Spec struct {
	// Seed drives the injector PRNG; 0 means 1 (see Seed).
	Seed int64 `json:"seed,omitempty"`

	// Rules are applied independently; several may fire on one request.
	Rules []Rule `json:"rules"`
}

// ruleState is one rule plus its scheduling counters.
type ruleState struct {
	Rule
	matched  int // matching requests seen
	injected int // injections fired
}

// Injector owns the rule set and the seeded PRNG. One Injector serves any
// number of Listeners; all share the same deterministic schedule.
type Injector struct {
	mu    sync.Mutex
	rules []*ruleState
	rng   *rand.Rand
	seq   int // injections so far, numbering the log lines

	// log receives one line per injection; nil disables. Set via Logf.
	log func(format string, args ...any)

	// sleep is a test seam; real time when nil. A non-nil sleep is
	// honored verbatim, so tests capture exact durations.
	sleep func(time.Duration)
}

// doSleep waits d through the seam or real time.
func (inj *Injector) doSleep(d time.Duration) {
	if inj.sleep != nil {
		inj.sleep(d)
		return
	}
	time.Sleep(d)
}

// New builds an Injector from a validated spec.
func New(spec Spec) (*Injector, error) {
	for i, r := range spec.Rules {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("%w (rule %d)", err, i)
		}
	}
	inj := &Injector{rng: rand.New(rand.NewSource(Seed(spec.Seed)))}
	for _, r := range spec.Rules {
		inj.rules = append(inj.rules, &ruleState{Rule: r})
	}
	return inj, nil
}

// MustNew is New for specs known valid at compile time (tests).
func MustNew(spec Spec) *Injector {
	inj, err := New(spec)
	if err != nil {
		panic(err)
	}
	return inj
}

// Logf directs every injection to printf (e.g. log.Printf), one line
// each in order, so server logs show the injected sequence: identical
// across runs with the same seed and request sequence.
func (inj *Injector) Logf(printf func(format string, args ...any)) {
	inj.mu.Lock()
	inj.log = printf
	inj.mu.Unlock()
}

// plan decides which rules fire for one sniffed request: those whose Path
// prefixes its path ("" when the request line could not be sniffed). All
// counter movement and PRNG draws happen here, under one lock, in rule
// order — the determinism contract.
func (inj *Injector) plan(path string) []Rule {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var out []Rule
	for _, rs := range inj.rules {
		if !strings.HasPrefix(path, rs.Path) {
			continue
		}
		rs.matched++
		if rs.matched <= rs.AfterRequests {
			continue
		}
		if rs.Count > 0 && rs.injected >= rs.Count {
			continue
		}
		if rs.Prob > 0 && rs.Prob < 1 && inj.rng.Float64() >= rs.Prob {
			continue
		}
		rs.injected++
		inj.seq++
		if inj.log != nil {
			inj.log("chaos: inject #%d %s path=%s", inj.seq, describeRule(rs.Rule), path)
		}
		out = append(out, rs.Rule)
	}
	return out
}

func describeRule(r Rule) string {
	switch r.Fault {
	case FaultLatency:
		where := r.Where
		if where == "" {
			where = "first_byte"
		}
		return fmt.Sprintf("latency=%dms@%s", r.LatencyMS, where)
	case FaultCut, FaultTruncate, FaultCorrupt:
		return fmt.Sprintf("%s@frame%d", r.Fault, r.AfterFrames)
	default:
		return r.Fault
	}
}
