// Trace-driven simulation requests: the fourth request kind of the unified
// pipeline, and the only memoized one. Simulations are far heavier than
// analytical evaluations (they replay every warp of every CTA), so the
// memo pays here: experiment drivers ask for the same (layer, device,
// config) simulation across figures, sweeps repeat layers verbatim, and
// networks repeat layer shapes under new names.
//
// Every simulation goes through one path, simulate: a layer under a set of
// configs that share an L1 phase (engine.SharesL1). The memo answers the
// configs it holds, and one engine pass computes the rest. A single
// request is the one-config case; a scenario group (see stream.go) passes
// every config of an L2 sweep at once.

package pipeline

import (
	"context"

	"delta/internal/layers"
	"delta/internal/sim/engine"
)

// SimRequest names one trace-driven simulation: a layer under an engine
// configuration (device, cache geometry, scheduling and sampling knobs).
type SimRequest struct {
	Layer  layers.Conv
	Config engine.Config
}

// simKey is the comparable identity of a simulation: the layer's geometry
// (its Name cleared, since a name is only a label) and the engine config,
// normalized (defaults applied; Workers cleared) because every execution
// strategy produces bit-identical counters — a serial run may legitimately
// serve a later parallel request, and vice versa. A shape that repeats
// under a new name, as ResNet bottleneck blocks do, is simulated once.
type simKey struct {
	layer layers.Conv
	cfg   engine.Config
}

// simulate answers layer l under every config of cfgs, which must share an
// L1 phase; results are index-aligned with cfgs and report l as their
// layer. Each config keeps its own memo key, and one engine pass computes
// the keys the memo does not hold.
func (e *Evaluator) simulate(l layers.Conv, cfgs []engine.Config) ([]engine.Result, error) {
	if e.noCache {
		return engine.RunShared(l, cfgs)
	}
	// Validated before the lookup, so the error names l rather than the
	// layer that first computed its shape.
	if err := l.Validate(); err != nil {
		return nil, err
	}
	shape := l
	shape.Name = ""
	keys := make([]simKey, len(cfgs))
	for i, c := range cfgs {
		keys[i] = simKey{layer: shape, cfg: c.Normalized()}
	}
	rs, err := e.memoize(keys, func(missing []int) ([]engine.Result, error) {
		pass := make([]engine.Config, len(missing))
		for j, i := range missing {
			pass[j] = cfgs[i]
		}
		return engine.RunShared(l, pass)
	})
	for i := range rs {
		rs[i].Layer = l
	}
	return rs, err
}

// Simulate answers one simulation request, consulting the memo first.
func (e *Evaluator) Simulate(ctx context.Context, req SimRequest) (engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return engine.Result{}, err
	}
	rs, err := e.simulate(req.Layer, []engine.Config{req.Config})
	if err != nil {
		return engine.Result{}, err
	}
	return rs[0], nil
}

// engineWidth is the Workers value a run gets when its config leaves it
// unset and n runs share the pool: a batch at least as wide as the pool
// runs each engine on its serial reference path (layer-level fan-out
// alone saturates the pool), while a smaller batch gives each engine the
// leftover width so idle cores still help. Counters are bit-identical at
// any worker count, so the memo is shared across all shapes.
func (e *Evaluator) engineWidth(n int) int {
	return max(1, e.width()/n)
}

// SimulateAll answers a batch of simulation requests, fanning the per-layer
// runs out across the worker pool (see engineWidth). Results are
// index-aligned with the requests; on error the lowest failing index wins
// and in-flight work is cancelled.
func (e *Evaluator) SimulateAll(ctx context.Context, reqs []SimRequest) ([]engine.Result, error) {
	if len(reqs) == 0 {
		return nil, ctx.Err()
	}
	perEngine := e.engineWidth(len(reqs))
	out := make([]engine.Result, len(reqs))
	err := e.forEach(ctx, len(reqs), func(ctx context.Context, i int) error {
		req := reqs[i]
		if req.Config.Workers == 0 {
			req.Config.Workers = perEngine
		}
		r, err := e.Simulate(ctx, req)
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

// SimulateLayers simulates each layer under one shared engine config: the
// shape every experiment driver needs (a layer list on one device).
func (e *Evaluator) SimulateLayers(ctx context.Context, ls []layers.Conv, cfg engine.Config) ([]engine.Result, error) {
	rs, err := e.simulateGroup(ctx, ls, []engine.Config{cfg})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// simulateGroup simulates every layer under every config of cfgs, which
// must share an L1 phase: out[c][i] is layer i under cfgs[c]. Layers fan
// out across the worker pool like SimulateAll's requests, and each layer
// runs one engine pass for all the configs the memo does not hold. On
// error the lowest failing layer's error wins.
func (e *Evaluator) simulateGroup(ctx context.Context, ls []layers.Conv, cfgs []engine.Config) ([][]engine.Result, error) {
	if len(ls) == 0 {
		return make([][]engine.Result, len(cfgs)), ctx.Err()
	}
	perEngine := e.engineWidth(len(ls))
	pass := make([]engine.Config, len(cfgs))
	out := make([][]engine.Result, len(cfgs))
	for c, cfg := range cfgs {
		if cfg.Workers == 0 {
			cfg.Workers = perEngine
		}
		pass[c] = cfg
		out[c] = make([]engine.Result, len(ls))
	}
	err := e.forEach(ctx, len(ls), func(ctx context.Context, i int) error {
		rs, err := e.simulate(ls[i], pass)
		if err != nil {
			return err
		}
		for c, r := range rs {
			out[c][i] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
