// Package pipeline is the unified concurrent evaluation path of the
// repository: every consumer — the facade, the CLIs, the experiment
// drivers, and the HTTP server — funnels layer evaluations through one
// Evaluator instead of wiring traffic/perf/prior/roofline/backprop
// separately.
//
// A Request names what to evaluate (layer, device, model variant, pass);
// the Evaluator answers with a Result. Batch entry points (EvaluateAll,
// Network, Training, Explore, SimulateAll) fan the embarrassingly parallel
// per-layer evaluations out across a worker pool sized to GOMAXPROCS and
// honor context.Context cancellation. Trace-driven simulations are
// memoized per (layer geometry, engine config), so a simulation repeated
// across figures, sweep points or relabelled layers runs once; a layer's
// name is only a label. Analytical requests are recomputed on
// every call, because one model call is cheaper than keeping its result.
// Scenario streams group consecutive simulation points that differ only in
// L2 (engine.SharesL1) so each of their layers runs one engine pass for the
// whole group. Results are bit-identical to the serial paths they subsume:
// workers only parallelize independent layer evaluations, a shared pass
// returns each config's one-config result exactly, and aggregation follows
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
	"delta/internal/sim/engine"
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

// Stats reports the evaluator's observability counters: simulation-memo
// effectiveness and occupancy, and scenario-stream progress. The serving
// layer scrapes these into /metrics.
type Stats struct {
	// Hits / Misses count simulation requests served from the memo vs run
	// through the engine. Analytical requests are never memoized and never
	// counted.
	Hits   uint64
	Misses uint64

	// Entries is the memo's current entry count (may transiently
	// overshoot the cap by in-flight concurrent inserts).
	Entries uint64

	// ScenarioPoints counts scenario points evaluated by Stream /
	// RunScenario over the evaluator's lifetime (memo-hit points included).
	ScenarioPoints uint64

	// StreamHits / StreamMisses always read zero: no tile stream outlives
	// its engine pass, so there is no cross-run stream memo to count. They
	// stay only while perfbench still reads them.
	StreamHits   uint64
	StreamMisses uint64
}

// DefaultCacheLimit caps the simulation memo's entry count. Filling the
// memo with one-wave simulations measured 740 B of live heap per entry
// (key, engine.Result and map slot; amd64), so a full memo holds about
// 46 MB. Each entry saves a simulation of milliseconds or more.
const DefaultCacheLimit = 1 << 16

// Evaluator runs requests through the model stack with a worker pool, and
// memoizes trace-driven simulations. The zero value is not usable;
// construct with New. An Evaluator is safe for concurrent use by multiple
// goroutines.
//
// Only simulations are memoized. An analytical model call costs
// microseconds, less than keeping its result in a capped memo would cost in
// heap and garbage collection, so Evaluate always computes. A simulation
// costs milliseconds or more, and experiment drivers and sweeps repeat
// (layer, device, config) runs verbatim. The memo is a typed map behind an
// RWMutex rather than a sync.Map, so a hit hashes the key in place and
// allocates nothing.
type Evaluator struct {
	workers    int
	noCache    bool
	cacheLimit int

	memo      memoMap
	cacheSize atomic.Int64
	hits      atomic.Uint64
	misses    atomic.Uint64
	points    atomic.Uint64
}

// memoMap is the simulation memo.
type memoMap struct {
	mu sync.RWMutex
	m  map[simKey]*cacheEntry
}

// cacheEntry memoizes one simulation. The lookup that inserts it computes
// it; ready is closed once res and err are set, so concurrent lookups of
// the same key wait for that one run.
type cacheEntry struct {
	ready chan struct{}
	res   engine.Result
	err   error
}

// Option configures an Evaluator.
type Option func(*Evaluator)

// WithWorkers caps the worker pool (n < 1 restores the GOMAXPROCS default).
func WithWorkers(n int) Option {
	return func(e *Evaluator) { e.workers = n }
}

// WithoutCache disables the simulation memo (every simulation runs).
func WithoutCache() Option {
	return func(e *Evaluator) { e.noCache = true }
}

// New constructs an Evaluator; by default the pool is GOMAXPROCS wide and
// the simulation memo is enabled with DefaultCacheLimit entries.
func New(opts ...Option) *Evaluator {
	e := &Evaluator{cacheLimit: DefaultCacheLimit}
	for _, o := range opts {
		o(e)
	}
	return e
}

var (
	defaultOnce sync.Once
	defaultEval *Evaluator
)

// Default returns the process-wide shared Evaluator, so independent callers
// (facade helpers, CLIs, server handlers) share one simulation memo.
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
	return Stats{
		Hits: e.hits.Load(), Misses: e.misses.Load(),
		Entries: uint64(size), ScenarioPoints: e.points.Load(),
	}
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

// Evaluate answers one request. Analytical requests are not memoized (see
// Evaluator): every call runs the model.
func (e *Evaluator) Evaluate(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	req = req.normalized()
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	return evalOne(req)
}

// errSimPanicked is memoized for the keys of a simulation that panicked,
// so lookups waiting on them are released instead of blocking forever.
var errSimPanicked = errors.New("pipeline: simulation panicked")

// memoize answers one simulation per key through the capped memo. A key
// the memo holds is a hit, served once the run computing it has finished;
// every other key is a miss, and one call of run computes all of them: it
// receives their indices into keys and returns their results in that
// order. On error the first failing key's error is returned.
func (e *Evaluator) memoize(keys []simKey, run func(missing []int) ([]engine.Result, error)) ([]engine.Result, error) {
	ents := make([]*cacheEntry, len(keys))
	var missing []int
	for i, key := range keys {
		var owned bool
		if ents[i], owned = e.lookup(key); owned {
			e.misses.Add(1)
			missing = append(missing, i)
		} else {
			e.hits.Add(1)
		}
	}
	if len(missing) > 0 {
		fill(ents, missing, run)
	}
	out := make([]engine.Result, len(keys))
	var err error
	for i, ent := range ents {
		<-ent.ready
		out[i] = ent.res
		if err == nil {
			err = ent.err
		}
	}
	return out, err
}

// lookup returns key's memo entry. When the memo lacks it, the caller owns
// a new entry and must fill it: the entry is stored unless the memo is
// full (cacheLimit), in which case existing entries keep serving hits and
// new keys are computed without being kept. The hit path is one RLock and
// one typed map probe.
func (e *Evaluator) lookup(key simKey) (ent *cacheEntry, owned bool) {
	mm := &e.memo
	mm.mu.RLock()
	ent, ok := mm.m[key]
	mm.mu.RUnlock()
	if ok {
		return ent, false
	}
	ent = &cacheEntry{ready: make(chan struct{})}
	// The counter may overshoot the cap by in-flight concurrent inserts;
	// that slack is bounded by the worker count and harmless.
	if e.cacheSize.Load() >= int64(e.cacheLimit) {
		return ent, true
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if prev, ok := mm.m[key]; ok {
		return prev, false
	}
	if mm.m == nil {
		mm.m = make(map[simKey]*cacheEntry)
	}
	mm.m[key] = ent
	e.cacheSize.Add(1)
	return ent, true
}

// fill computes the entries at the missing indices with one call of run.
// They are filled even if run panics, so no lookup waiting on them blocks
// forever.
func fill(ents []*cacheEntry, missing []int, run func(missing []int) ([]engine.Result, error)) {
	var rs []engine.Result
	err := errSimPanicked
	defer func() {
		for j, i := range missing {
			if err == nil {
				ents[i].res = rs[j]
			}
			ents[i].err = err
			close(ents[i].ready)
		}
	}()
	rs, err = run(missing)
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
