// Trace-driven simulation requests: the fourth request kind of the unified
// pipeline, and the only memoized one. Simulations are far heavier than
// analytical evaluations (they replay every warp of every CTA), so the
// memo pays here: experiment drivers ask for the same (layer, device,
// config) simulation across figures, and sweeps repeat layers verbatim.

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

// simKey is the comparable identity of a SimRequest. The engine config is
// normalized (defaults applied; Workers and Streams cleared) because every
// execution strategy produces bit-identical counters — a serial run may
// legitimately serve a later parallel request, and vice versa.
type simKey struct {
	layer layers.Conv
	cfg   engine.Config
}

// withSharedState hands a request the evaluator's shared stream tier
// (unless the request brings its own). The tier never affects counters,
// only how fast the engine produces them.
func (e *Evaluator) withSharedState(cfg engine.Config) engine.Config {
	if cfg.Streams == nil {
		cfg.Streams = e.streams
	}
	return cfg
}

// Simulate answers one simulation request, consulting the memo first.
func (e *Evaluator) Simulate(ctx context.Context, req SimRequest) (engine.Result, error) {
	if err := ctx.Err(); err != nil {
		return engine.Result{}, err
	}
	req.Config = e.withSharedState(req.Config)
	if e.noCache {
		return engine.Run(req.Layer, req.Config)
	}
	key := simKey{layer: req.Layer, cfg: req.Config.Normalized()}
	return e.memoize(key, func() (engine.Result, error) {
		return engine.Run(req.Layer, req.Config)
	})
}

// SimulateAll answers a batch of simulation requests, fanning the per-layer
// runs out across the worker pool. Results are index-aligned with the
// requests; on error the lowest failing index wins and in-flight work is
// cancelled.
//
// When a request leaves Config.Workers unset, the pool width is split
// across the batch: a batch at least as wide as the pool runs each engine
// on its serial reference path (layer-level fan-out alone saturates the
// pool), while a smaller batch gives each engine the leftover width so
// idle cores still help. Counters are bit-identical at any worker count,
// so the memo is shared across all shapes.
func (e *Evaluator) SimulateAll(ctx context.Context, reqs []SimRequest) ([]engine.Result, error) {
	if len(reqs) == 0 {
		return nil, ctx.Err()
	}
	perEngine := e.width() / len(reqs)
	if perEngine < 1 {
		perEngine = 1
	}
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
	reqs := make([]SimRequest, len(ls))
	for i, l := range ls {
		reqs[i] = SimRequest{Layer: l, Config: cfg}
	}
	return e.SimulateAll(ctx, reqs)
}
