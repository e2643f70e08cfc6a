// Scenario streaming: the declarative batch entry point of the pipeline.
// A scenario (internal/scenario) expands into an ordered point list;
// Stream walks the points in expansion order — each point's layers fan
// out across the worker pool — and emits results incrementally, each
// update carrying progress counts. A simulation point groups with the
// consecutive points after it that simulate identical layers under
// configs sharing its L1 phase (an L2 sweep), so each layer of the group
// runs one engine pass. Every point funnels through the same Network /
// simulation paths the synchronous helpers use, so streamed results are
// bit-identical to the serial per-helper paths and repeated simulation
// points memo-hit.

package pipeline

import (
	"context"
	"slices"

	"delta/internal/scenario"
	"delta/internal/sim/engine"
)

// ErrorPolicy selects how Stream reacts to a failing point.
type ErrorPolicy int

const (
	// FailFast cancels the sweep when the first (in expansion order)
	// failing point is reached: its update carries Err, and the stream
	// closes without emitting later points.
	FailFast ErrorPolicy = iota

	// CollectPartial keeps sweeping: failing points emit updates with Err
	// set, and every point is attempted.
	CollectPartial
)

// StreamUpdate is one incremental result of a scenario stream.
type StreamUpdate struct {
	// Point is the evaluated scenario point (Point.Index is its position
	// in expansion order; updates arrive in that order).
	Point scenario.Point

	// Done counts the updates emitted so far, this one included; Total is
	// the scenario's full point count. Done == Total marks the last update
	// of a complete sweep.
	Done, Total int

	// Network carries the whole-network result of an analytical point.
	Network NetworkResult

	// Sim carries the per-layer simulator results of a simulation point,
	// index-aligned with Point.Net.Layers.
	Sim []engine.Result

	// Err is the point's evaluation error (nil on success).
	Err error
}

// StreamOption configures a Stream call.
type StreamOption func(*streamConfig)

type streamConfig struct {
	policy ErrorPolicy
	offset int
	limit  int // < 0 = unlimited
}

// WithErrorPolicy selects the stream's error policy (default FailFast).
func WithErrorPolicy(p ErrorPolicy) StreamOption {
	return func(c *streamConfig) { c.policy = p }
}

// WithOffset resumes a stream partway through the expansion order: the
// first n points are skipped without evaluation, and the first emitted
// update carries Done == n+1. Point indices and the Total count are
// unchanged, so a resumed sweep's updates are bit-identical to the tail
// of an uninterrupted run — the contract the durable job store relies on
// to resume half-finished sweeps after a restart (scenario.Expand order
// is deterministic, so "the first n points" names the same points in
// every process). A negative offset is treated as zero; an offset at or
// past the point count yields an immediately closed stream.
func WithOffset(n int) StreamOption {
	return func(c *streamConfig) { c.offset = n }
}

// WithLimit bounds how many points a stream emits after the offset: the
// sweep stops (and the channel closes) once n updates have been sent, as
// if the expansion ended there. Done/Total and point indices are still
// global, so an offset+limit window's updates are bit-identical to the
// same slice of an unbounded run — the contract the cluster shard
// protocol relies on to evaluate disjoint ranges on different workers
// and merge them back into a single-node-identical result. A negative
// limit means unlimited (the default); zero yields an immediately
// closed stream.
func WithLimit(n int) StreamOption {
	return func(c *streamConfig) { c.limit = n }
}

// newStreamConfig applies the options over the defaults; Stream and
// RunScenario share it so the default policy cannot diverge.
func newStreamConfig(opts []StreamOption) streamConfig {
	cfg := streamConfig{policy: FailFast, limit: -1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Stream expands a scenario and evaluates its points through the worker
// pool, emitting one update per point in expansion order. The returned
// channel is closed when the sweep completes, fails fast, or ctx is
// cancelled; cancel ctx to abandon a stream early instead of leaking the
// producer. Expansion errors are reported synchronously.
func (e *Evaluator) Stream(ctx context.Context, sc scenario.Scenario, opts ...StreamOption) (<-chan StreamUpdate, error) {
	points, err := sc.Expand()
	if err != nil {
		return nil, err
	}
	out := make(chan StreamUpdate)
	go e.stream(ctx, points, newStreamConfig(opts), out)
	return out, nil
}

// stream is the producer: points are evaluated one group at a time (see
// groupEnd), in expansion order, so emission needs no reorder buffer — but
// each group's layers fan out across the full worker pool, which keeps the
// hardware saturated while total concurrency stays bounded by the pool
// width (concurrent streams each add at most one group's fan-out, not a
// second multiplicative level). A group never extends past the
// offset/limit window, and its updates still leave one per point.
func (e *Evaluator) stream(ctx context.Context, points []scenario.Point, cfg streamConfig, out chan<- StreamUpdate) {
	defer close(out)
	n := len(points)
	start := cfg.offset
	if start < 0 {
		start = 0
	}
	end := n
	if cfg.limit >= 0 && start+cfg.limit < end {
		end = start + cfg.limit
	}
	for i := start; i < end; {
		if ctx.Err() != nil {
			return
		}
		j := groupEnd(points, i, end)
		for k, upd := range e.evalGroup(ctx, points[i:j]) {
			upd.Done, upd.Total = i+k+1, n
			select {
			case out <- upd:
			case <-ctx.Done():
				return
			}
			if upd.Err != nil && cfg.policy == FailFast {
				return
			}
		}
		i = j
	}
}

// groupEnd returns the end of the group that starts at points[i]: an
// analytical point stands alone, and a simulation point takes the
// consecutive points before end that simulate identical layers under
// configs sharing its L1 phase.
func groupEnd(points []scenario.Point, i, end int) int {
	p := points[i]
	j := i + 1
	if p.Sim == nil {
		return j
	}
	for j < end {
		q := points[j]
		if q.Sim == nil || !engine.SharesL1(*p.Sim, *q.Sim) || !slices.Equal(p.Net.Layers, q.Net.Layers) {
			break
		}
		j++
	}
	return j
}

// evalGroup answers one group of points through the shared synchronous
// paths, so streamed results are bit-identical to the per-helper ones.
func (e *Evaluator) evalGroup(ctx context.Context, ps []scenario.Point) []StreamUpdate {
	e.points.Add(uint64(len(ps)))
	upds := make([]StreamUpdate, len(ps))
	for k, p := range ps {
		upds[k].Point = p
	}
	if p := ps[0]; p.Sim == nil {
		upds[0].Network, upds[0].Err = e.Network(ctx, NetworkRequest{
			Net: p.Net, Device: p.Device, Options: p.Options,
			Model: Model(p.Model), Pass: Pass(p.Pass), MissRate: p.MissRate,
		})
		return upds
	}
	cfgs := make([]engine.Config, len(ps))
	for k, p := range ps {
		cfgs[k] = *p.Sim
	}
	rs, err := e.simulateGroup(ctx, ps[0].Net.Layers, cfgs)
	for k := range upds {
		upds[k].Err = err
		if err == nil {
			upds[k].Sim = rs[k]
		}
	}
	return upds
}

// RunScenario streams a scenario to completion and collects the ordered
// updates. Under FailFast the first failing point's error is returned
// (with the updates up to and including it); under CollectPartial the
// error return is nil and per-point failures ride in the updates.
func (e *Evaluator) RunScenario(ctx context.Context, sc scenario.Scenario, opts ...StreamOption) ([]StreamUpdate, error) {
	cfg := newStreamConfig(opts)
	ch, err := e.Stream(ctx, sc, opts...)
	if err != nil {
		return nil, err
	}
	var (
		out      []StreamUpdate
		firstErr error
	)
	for upd := range ch {
		out = append(out, upd)
		if upd.Err != nil && firstErr == nil {
			firstErr = upd.Err
		}
	}
	if cfg.policy == CollectPartial {
		firstErr = nil
	}
	if err := ctx.Err(); err != nil && firstErr == nil {
		firstErr = err
	}
	return out, firstErr
}
