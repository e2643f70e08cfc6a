// Package chaos is a seeded, deterministic fault-injection layer for the
// fleet's network paths. An Injector holds a rule set and a PRNG seeded
// once at construction; every potential injection consults the same PRNG
// under one lock, so the same seed over the same request sequence injects
// the same fault sequence — a failed chaos run replays identically from
// its seed.
//
// Faults enter through one surface: Listener wraps a server's
// net.Listener (delta-server's -chaos flag; in-process tests wrap an
// httptest server's listener the same way) and injects them into
// accepted connections: refusal (immediate close), raw 5xx answers,
// latency at the dial, first-byte and per-frame sites, and frame-level
// cut/truncate/corrupt on outbound SSE streams (a response that is not
// text/event-stream passes untouched).
//
// Rules match on path (prefix) and are scheduled by matching-request
// count (AfterRequests/ForRequests), by elapsed time since the injector
// started (AfterMS/ForMS), bounded by a total injection Count, and gated
// by Prob through the seeded PRNG. A spec is decoded strictly: a field
// the Rule does not know is an error, not a rule that silently fires
// everywhere. Every injection is appended to an event log (Events) so
// tests can assert that two runs with one seed provoked the identical
// sequence.
package chaos

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"math/rand"
)

// SeedEnv is the environment variable that seeds a chaos spec whose seed
// is 0, for deterministic replay. Set it to an integer to replay a failed
// run's exact fault sequence.
const SeedEnv = "DELTA_CHAOS_SEED"

// Seed resolves the effective PRNG seed: an explicit non-zero seed wins,
// then a parseable SeedEnv value, then the fallback 1 — never wall-clock
// time, so an unconfigured run is still reproducible.
func Seed(explicit int64) int64 {
	if explicit != 0 {
		return explicit
	}
	if v := os.Getenv(SeedEnv); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n != 0 {
			return n
		}
	}
	return 1
}

// Fault names the injected failure modes.
const (
	// FaultRefuse refuses the connection: the listener closes it before a
	// response byte is written.
	FaultRefuse = "refuse"

	// FaultStatus answers a synthetic HTTP error (Rule.Status, default
	// 503) instead of the real response.
	FaultStatus = "status"

	// FaultLatency delays the request at Rule.Where: "dial" (before the
	// request / first read), "first_byte" (before the response body's
	// first byte), or "frame" (before every SSE frame).
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
	// request line is sniffed from the inbound bytes. Rules with no Path
	// are planned once per accepted connection instead.
	Path string `json:"path,omitempty"`

	// AfterRequests arms the rule after this many matching requests have
	// been seen (the fault starts on request AfterRequests+1).
	AfterRequests int `json:"after_requests,omitempty"`

	// ForRequests disarms the rule after this many further matching
	// requests (0 = stays armed).
	ForRequests int `json:"for_requests,omitempty"`

	// AfterMS arms the rule this many milliseconds after the injector
	// started; ForMS disarms it that many milliseconds later (0 = stays
	// armed).
	AfterMS int `json:"after_ms,omitempty"`
	ForMS   int `json:"for_ms,omitempty"`

	// Count bounds total injections from this rule (0 = unlimited).
	Count int `json:"count,omitempty"`

	// Prob is the injection probability once armed, drawn from the
	// injector's seeded PRNG (0 means 1.0 — deterministic rules need no
	// dice).
	Prob float64 `json:"prob,omitempty"`

	// Status is the synthetic response code for FaultStatus (default 503).
	Status int `json:"status,omitempty"`

	// LatencyMS is the injected delay for FaultLatency.
	LatencyMS int `json:"latency_ms,omitempty"`

	// Where sites the latency: "dial", "first_byte" (default), "frame".
	Where string `json:"where,omitempty"`

	// AfterFrames is the 0-based frame index FaultCut/Truncate/Corrupt
	// target (cut: after this many complete frames; truncate/corrupt:
	// within frame AfterFrames). Frames are wire frames — keep-alive
	// comments count.
	AfterFrames int `json:"after_frames,omitempty"`
}

func (r Rule) validate() error {
	switch r.Fault {
	case FaultRefuse, FaultStatus, FaultCut, FaultTruncate, FaultCorrupt:
	case FaultLatency:
		if r.LatencyMS <= 0 {
			return fmt.Errorf("chaos: latency rule needs latency_ms > 0")
		}
		switch r.Where {
		case "", "dial", "first_byte", "frame":
		default:
			return fmt.Errorf("chaos: unknown latency site %q (want dial, first_byte, or frame)", r.Where)
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
	// Seed drives the injector PRNG; 0 falls back to $DELTA_CHAOS_SEED,
	// then 1 (see Seed).
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

// fault is one planned injection for a single request/connection.
type fault struct {
	Rule
	seq int
}

// Injector owns the rule set, the seeded PRNG, and the event log. One
// Injector serves any number of Listeners; all share the same
// deterministic schedule.
type Injector struct {
	mu     sync.Mutex
	rules  []*ruleState
	rng    *rand.Rand
	start  time.Time
	seq    int
	events []string

	// log receives one line per injection; nil disables. Set via Logf.
	log func(format string, args ...any)

	// now/sleep are test seams; real time when sleep is nil. A non-nil
	// sleep is honored verbatim, so tests capture exact durations.
	now   func() time.Time
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
	inj := &Injector{
		rng: rand.New(rand.NewSource(Seed(spec.Seed))),
		now: time.Now,
	}
	inj.start = inj.now()
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

// Logf directs a copy of every injection event to printf (e.g.
// log.Printf), so server logs show the injected sequence.
func (inj *Injector) Logf(printf func(format string, args ...any)) {
	inj.mu.Lock()
	inj.log = printf
	inj.mu.Unlock()
}

// Events returns the injected-fault log so far: one line per injection in
// order, identical across runs with the same seed and request sequence.
func (inj *Injector) Events() []string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]string(nil), inj.events...)
}

// plan decides which faults fire for one accepted connection (path "")
// or one sniffed request (its path). A connection plans the rules with no
// Path, a request those whose Path prefixes its own, so no rule is
// counted twice for one exchange. All counter movement and PRNG draws
// happen here, under one lock, in rule order — the determinism contract.
func (inj *Injector) plan(path string) []fault {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	elapsed := inj.now().Sub(inj.start)
	var out []fault
	for _, rs := range inj.rules {
		if (rs.Path == "") != (path == "") || !strings.HasPrefix(path, rs.Path) {
			continue
		}
		rs.matched++
		if rs.matched <= rs.AfterRequests {
			continue
		}
		if rs.ForRequests > 0 && rs.matched > rs.AfterRequests+rs.ForRequests {
			continue
		}
		if ms := int(elapsed / time.Millisecond); ms < rs.AfterMS ||
			(rs.ForMS > 0 && ms >= rs.AfterMS+rs.ForMS) {
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
		f := fault{Rule: rs.Rule, seq: inj.seq}
		ev := fmt.Sprintf("#%d %s path=%s", f.seq, describeRule(rs.Rule), path)
		inj.events = append(inj.events, ev)
		if inj.log != nil {
			inj.log("chaos: inject %s", ev)
		}
		out = append(out, f)
	}
	return out
}

func describeRule(r Rule) string {
	switch r.Fault {
	case FaultStatus:
		return fmt.Sprintf("status=%d", statusOf(r))
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

func statusOf(r Rule) int {
	if r.Status >= 400 {
		return r.Status
	}
	return 503
}
