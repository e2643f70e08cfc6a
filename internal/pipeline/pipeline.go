// Package pipeline is the unified concurrent evaluation path of the
// repository: every consumer — the facade, the CLIs, the experiment
// drivers, and the HTTP server — funnels layer evaluations through one
// Evaluator instead of wiring traffic/perf/prior/roofline/backprop
// separately.
//
// A Request names what to evaluate (layer, device, model variant, pass);
// the Evaluator answers with a Result. Batch entry points (EvaluateAll,
// Network, Training, Explore) fan the embarrassingly parallel per-layer
// evaluations out across a worker pool sized to GOMAXPROCS, honor
// context.Context cancellation, and memoize per-(layer, device, options)
// results so repeated unique layers and grid re-evaluations are computed
// once. Results are bit-identical to the serial paths they subsume: workers
// only parallelize independent layer evaluations, and aggregation follows
// the exact serial summation order.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"delta/internal/backprop"
	"delta/internal/gpu"
	"delta/internal/layers"
	"delta/internal/perf"
	"delta/internal/prior"
	"delta/internal/roofline"
	"delta/internal/sim/trace"
	"delta/internal/traffic"
)

// Model selects the analytical model variant a Request evaluates.
type Model string

const (
	// ModelDelta is the paper's traffic + performance model (the default).
	ModelDelta Model = "delta"
	// ModelPrior is the fixed-miss-rate baseline (Hong & Kim style).
	ModelPrior Model = "prior"
	// ModelRoofline is the classical roofline baseline.
	ModelRoofline Model = "roofline"
)

// Pass selects forward-only or full training-step evaluation.
type Pass string

const (
	// PassInference evaluates the forward GEMM only (the default).
	PassInference Pass = "inference"
	// PassTraining evaluates fprop + dgrad + wgrad (ModelDelta only).
	PassTraining Pass = "training"
)

// Request names one layer evaluation.
type Request struct {
	Layer   layers.Conv
	Device  gpu.Device
	Options traffic.Options

	Model Model // "" means ModelDelta
	Pass  Pass  // "" means PassInference

	// MissRate parameterizes ModelPrior (0 means 1.0, the setting prior
	// work advocates).
	MissRate float64

	// SkipDgrad marks a training-pass layer as the network's first conv
	// (no upstream layer to feed a data gradient).
	SkipDgrad bool
}

// normalized returns the request with defaults applied.
func (r Request) normalized() Request {
	if r.Model == "" {
		r.Model = ModelDelta
	}
	if r.Pass == "" {
		r.Pass = PassInference
	}
	if r.Model == ModelPrior && r.MissRate == 0 {
		r.MissRate = 1.0
	}
	if r.Model != ModelPrior {
		r.MissRate = 0
	}
	if r.Pass != PassTraining {
		r.SkipDgrad = false
	}
	return r
}

// Validate rejects malformed requests before any model runs.
func (r Request) Validate() error {
	n := r.normalized()
	switch n.Model {
	case ModelDelta, ModelPrior, ModelRoofline:
	default:
		return fmt.Errorf("pipeline: unknown model %q", r.Model)
	}
	switch n.Pass {
	case PassInference:
	case PassTraining:
		if n.Model != ModelDelta {
			return fmt.Errorf("pipeline: training pass requires the delta model, got %q", n.Model)
		}
	default:
		return fmt.Errorf("pipeline: unknown pass %q", r.Pass)
	}
	if n.MissRate < 0 || n.MissRate > 1 {
		return fmt.Errorf("pipeline: miss rate %v outside (0, 1]", n.MissRate)
	}
	if err := n.Layer.Validate(); err != nil {
		return err
	}
	return n.Device.Validate()
}

// Result is the unified answer to a Request. Seconds is always populated;
// the model-specific fields are filled according to Model and Pass.
type Result struct {
	Layer  layers.Conv
	Device string
	Model  Model
	Pass   Pass

	// Seconds is the predicted execution time of the request's unit of
	// work: the forward GEMM for inference, the whole fprop+dgrad+wgrad
	// step for training.
	Seconds float64

	// Traffic holds the per-level traffic estimate behind Perf (the
	// fixed-miss-rate rewrite for ModelPrior). Unset for ModelRoofline.
	Traffic traffic.Estimate

	// Perf is the performance-model prediction for inference requests of
	// ModelDelta and ModelPrior.
	Perf perf.Result

	// Training is the per-GEMM breakdown for PassTraining.
	Training backprop.Step

	// Roofline is the baseline prediction for ModelRoofline.
	Roofline roofline.Result
}

// Stats reports the evaluator's observability counters: cache
// effectiveness, cache occupancy, and scenario-stream progress. The
// serving layer scrapes these into /metrics.
type Stats struct {
	Hits   uint64
	Misses uint64

	// Entries is the memo cache's current entry count (may transiently
	// overshoot the cap by in-flight concurrent inserts).
	Entries uint64

	// ScenarioPoints counts scenario points evaluated by Stream /
	// RunScenario over the evaluator's lifetime (memo-hit points included).
	ScenarioPoints uint64

	// StreamHits / StreamMisses / StreamEntries report the shared
	// stream-cache tier backing the evaluator's engine runs (all zero when
	// stream sharing is disabled): coalesced tile streams served from the
	// tier vs generated, and current tier occupancy.
	StreamHits    uint64
	StreamMisses  uint64
	StreamEntries uint64
}

// DefaultCacheLimit caps the memo cache's entry count unless overridden
// with WithCacheLimit. Results are ~1.5 KB each, so the default bounds a
// long-running server (whose cache keys include client-supplied layer and
// device values) to roughly 100 MB of memoized results.
const DefaultCacheLimit = 1 << 16

// Evaluator runs requests through the model stack with a worker pool and a
// memoizing cache. The zero value is not usable; construct with New. An
// Evaluator is safe for concurrent use by multiple goroutines.
//
// The memo cache is two typed maps (analytical requests and simulation
// requests) behind RWMutexes rather than one sync.Map: the keys are large
// structs (layer + device + options, ~500 B), and boxing one into an
// interface on every lookup made a cache hit allocate more than the
// analytical models it was saving — the "warm slower than cold" scenario
// regression. Typed maps hash the key in place; a hit is allocation-free.
type Evaluator struct {
	workers    int
	noCache    bool
	cacheLimit int
	noStreams  bool

	// streams is the shared stream-cache tier handed to every engine run
	// (unless the request brings its own): scenario sweeps and repeated
	// simulations regenerate coalesced tile streams once per identity
	// instead of once per run. Sharing never changes counters — streams
	// are pure functions of their identity — so it composes freely with
	// the memo cache.
	streams *trace.SharedStreams

	ana       memoMap[cacheKey]
	sim       memoMap[simKey]
	cacheSize atomic.Int64
	hits      atomic.Uint64
	misses    atomic.Uint64
	points    atomic.Uint64

	// Device interning: gpu.Device is ~200 bytes of the analytical cache
	// key but has tiny cardinality (a sweep uses a handful of devices), so
	// keys store a small id instead and lookups hash ~60% fewer bytes.
	// lastDev short-circuits the intern map for the overwhelmingly common
	// case of consecutive evaluations on one device: a single struct
	// compare instead of a map probe.
	devMu   sync.Mutex
	devIDs  map[gpu.Device]uint32
	lastDev atomic.Pointer[devEntry]
}

type devEntry struct {
	d  gpu.Device
	id uint32
}

// internDevice resolves a device to its small key id, allocating one on
// first sight. ok is false when the intern table is full (the cache limit
// bounds it like everything else); the caller then computes uncached.
func (e *Evaluator) internDevice(d gpu.Device) (id uint32, ok bool) {
	if ent := e.lastDev.Load(); ent != nil && ent.d == d {
		return ent.id, true
	}
	e.devMu.Lock()
	id, ok = e.devIDs[d]
	if !ok {
		if len(e.devIDs) >= e.cacheLimit {
			e.devMu.Unlock()
			return 0, false
		}
		if e.devIDs == nil {
			e.devIDs = make(map[gpu.Device]uint32)
		}
		id = uint32(len(e.devIDs))
		e.devIDs[d] = id
		ok = true
	}
	e.devMu.Unlock()
	e.lastDev.Store(&devEntry{d: d, id: id})
	return id, ok
}

// memoMap is one typed shard of the memo cache.
type memoMap[K comparable] struct {
	mu sync.RWMutex
	m  map[K]*cacheEntry
}

// cacheKey is the comparable identity of a Request after normalization.
// The device rides as an interned id (see internDevice), keeping the
// hashed key small.
type cacheKey struct {
	layer     layers.Conv
	device    uint32
	options   traffic.Options
	model     Model
	pass      Pass
	missRate  float64
	skipDgrad bool
}

// cacheEntry memoizes one computation (an analytical Result or an
// engine.Result); once guarantees a single computation even under
// concurrent first lookups of the same key.
type cacheEntry struct {
	once sync.Once
	res  any
	err  error
}

// Option configures an Evaluator.
type Option func(*Evaluator)

// WithWorkers caps the worker pool (n < 1 restores the GOMAXPROCS default).
func WithWorkers(n int) Option {
	return func(e *Evaluator) { e.workers = n }
}

// WithoutCache disables memoization (every request recomputes).
func WithoutCache() Option {
	return func(e *Evaluator) { e.noCache = true }
}

// WithCacheLimit overrides the memo cache's entry cap (n < 1 restores
// DefaultCacheLimit). Once full, further distinct requests compute without
// being stored; already-cached entries keep serving hits.
func WithCacheLimit(n int) Option {
	return func(e *Evaluator) { e.cacheLimit = n }
}

// WithoutStreamSharing disables the shared stream-cache tier: every engine
// run regenerates its tile streams privately (the pre-tier behaviour).
// Mostly useful for benchmarking the tier itself.
func WithoutStreamSharing() Option {
	return func(e *Evaluator) { e.noStreams = true }
}

// New constructs an Evaluator; by default the pool is GOMAXPROCS wide and
// the cache is enabled with DefaultCacheLimit entries.
func New(opts ...Option) *Evaluator {
	e := &Evaluator{}
	for _, o := range opts {
		o(e)
	}
	if e.cacheLimit < 1 {
		e.cacheLimit = DefaultCacheLimit
	}
	if !e.noStreams {
		e.streams = trace.NewSharedStreams(0)
	}
	return e
}

var (
	defaultOnce sync.Once
	defaultEval *Evaluator
)

// Default returns the process-wide shared Evaluator, so independent callers
// (facade helpers, CLIs, server handlers) share one memo cache.
func Default() *Evaluator {
	defaultOnce.Do(func() { defaultEval = New() })
	return defaultEval
}

// Stats returns the observability counters so far.
func (e *Evaluator) Stats() Stats {
	size := e.cacheSize.Load()
	if size < 0 {
		size = 0
	}
	st := Stats{
		Hits: e.hits.Load(), Misses: e.misses.Load(),
		Entries: uint64(size), ScenarioPoints: e.points.Load(),
	}
	if e.streams != nil {
		ss := e.streams.Stats()
		st.StreamHits, st.StreamMisses, st.StreamEntries = ss.Hits, ss.Misses, ss.Entries
	}
	return st
}

// width returns the configured worker-pool width (uncapped by batch size).
func (e *Evaluator) width() int {
	w := e.workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (e *Evaluator) poolSize(n int) int {
	w := e.width()
	if w > n {
		w = n
	}
	return w
}

// Evaluate answers one request, consulting the cache first.
func (e *Evaluator) Evaluate(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	req = req.normalized()
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	if e.noCache {
		return evalOne(req)
	}
	dev, ok := e.internDevice(req.Device)
	if !ok {
		e.misses.Add(1)
		return evalOne(req)
	}
	key := cacheKey{
		layer: req.Layer, device: dev, options: req.Options,
		model: req.Model, pass: req.Pass,
		missRate: req.MissRate, skipDgrad: req.SkipDgrad,
	}
	v, err := memoize(e, &e.ana, key, func() (any, error) { return evalOne(req) })
	if err != nil {
		return Result{}, err
	}
	return v.(Result), nil
}

// memoize answers computations through the capped memo cache: the first
// lookup of a key computes (exactly once, even under concurrent first
// lookups), later lookups are served from the stored entry. The hit path
// is one RLock and one typed map probe — no allocation, so a memo hit is
// always cheaper than recomputing.
func memoize[K comparable](e *Evaluator, mm *memoMap[K], key K, compute func() (any, error)) (any, error) {
	mm.mu.RLock()
	ent, loaded := mm.m[key]
	mm.mu.RUnlock()
	if !loaded {
		// Cap the cache: once full, distinct new requests compute without
		// being stored (existing entries keep serving hits). The counter
		// may overshoot by in-flight concurrent inserts; that slack is
		// bounded by the worker count and harmless.
		if e.cacheSize.Load() >= int64(e.cacheLimit) {
			e.misses.Add(1)
			return compute()
		}
		mm.mu.Lock()
		if mm.m == nil {
			mm.m = make(map[K]*cacheEntry)
		}
		ent, loaded = mm.m[key]
		if !loaded {
			ent = new(cacheEntry)
			mm.m[key] = ent
			e.cacheSize.Add(1)
		}
		mm.mu.Unlock()
	}
	computed := false
	ent.once.Do(func() {
		ent.res, ent.err = compute()
		computed = true
	})
	if computed || !loaded {
		e.misses.Add(1)
	} else {
		e.hits.Add(1)
	}
	return ent.res, ent.err
}

// evalOne dispatches a normalized, validated request to the model stack.
func evalOne(req Request) (Result, error) {
	out := Result{Layer: req.Layer, Device: req.Device.Name, Model: req.Model, Pass: req.Pass}
	switch {
	case req.Pass == PassTraining:
		st, err := backprop.ModelStep(req.Layer, req.Device, req.Options, req.SkipDgrad)
		if err != nil {
			return Result{}, err
		}
		out.Training = st
		out.Perf = st.Fprop
		out.Seconds = st.Seconds()
	case req.Model == ModelRoofline:
		r, err := roofline.Model(req.Layer, req.Device)
		if err != nil {
			return Result{}, err
		}
		out.Roofline = r
		out.Seconds = r.Seconds
	default: // delta or prior inference
		est, err := traffic.Model(req.Layer, req.Device, req.Options)
		if err != nil {
			return Result{}, err
		}
		if req.Model == ModelPrior {
			est = prior.FixMissRate(est, req.MissRate)
		}
		r, err := perf.Model(est, req.Device)
		if err != nil {
			return Result{}, err
		}
		out.Traffic = est
		out.Perf = r
		out.Seconds = r.Seconds
	}
	return out, nil
}

// EvaluateAll answers a batch of requests, fanning out across the worker
// pool. Results are index-aligned with the requests. On error the lowest
// failing index wins (matching serial fail-fast semantics) and in-flight
// work is cancelled.
func (e *Evaluator) EvaluateAll(ctx context.Context, reqs []Request) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, ctx.Err()
	}
	out := make([]Result, len(reqs))
	err := e.forEach(ctx, len(reqs), func(ctx context.Context, i int) error {
		r, err := e.Evaluate(ctx, reqs[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEach runs fn(i) for every index in [0, n) across the worker pool,
// honoring context cancellation. On error the lowest failing index wins
// (serial fail-fast semantics) and in-flight work is cancelled. It is the
// fan-out primitive under every batch entry point (analytical evaluations
// and trace-driven simulations alike).
func (e *Evaluator) forEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	workers := e.poolSize(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = -1
		first  error
	)
	isCtxErr := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}
	// fail records the batch error: a real model error always beats the
	// context errors that cancellation then floods the other workers with,
	// and among real errors the lowest index wins (serial fail-fast order).
	fail := func(i int, err error) {
		mu.Lock()
		switch {
		case errIdx == -1,
			isCtxErr(first) && !isCtxErr(err),
			isCtxErr(first) == isCtxErr(err) && i < errIdx:
			errIdx, first = i, err
		}
		mu.Unlock()
		cancel()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				if err := fn(ctx, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errIdx != -1 {
		return first
	}
	return nil
}
