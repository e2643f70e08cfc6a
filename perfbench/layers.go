package main

import (
	"context"
	"math"
	"time"

	"delta"
)

// layerNames is every per-layer metric, in report order, with its unit. A
// traced run reports each one on every workload. Counts and ratios of a
// layer a workload never reaches read their idle value (0, or 1 for the
// imbalance of a single server). Times are measured on every workload,
// never printed as a constant: a layer the ops never reach is timed by a
// probe on the workload's own inputs (probeTimes, probeFleet), as
// README.md lists.
var layerNames = []struct{ name, unit string }{
	{"spec.decode_ms", "ms"},
	{"scenario.expand_ms", "ms"},
	{"pipeline.point_ms", "ms"},
	{"pipeline.memo_hit_ratio", "ratio"},
	{"pipeline.memo_entries", "count"},
	{"pipeline.memo_overhead_ms", "ms"},
	{"traffic.eval_us", "us"},
	{"perf.eval_us", "us"},
	{"prior.eval_us", "us"},
	{"roofline.eval_us", "us"},
	{"backprop.eval_us", "us"},
	{"sim.engine.serial_ms", "ms"},
	{"sim.engine.parallel_ms", "ms"},
	{"sim.engine.msectors_per_s", "Msectors/s"},
	{"sim.trace.stream_hit_ratio", "ratio"},
	{"sim.cache.l1_hit_ratio", "ratio"},
	{"sim.cache.l2_hit_ratio", "ratio"},
	{"server.handler_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.response_kb", "KB"},
	{"server.sse_frames", "count"},
	{"cluster.peer_imbalance", "ratio"},
	{"cluster.hedged_ratio", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.shard_ms", "ms"},
	{"cluster.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spanMeanMs is the mean self time of the spans named name, in ms.
func spanMeanMs(tr *tracer, name string) float64 {
	sum, count := layerSelf(tr.snapshot())
	if count[name] == 0 {
		return 0
	}
	return float64(sum[name].Nanoseconds()) / 1e6 / float64(count[name])
}

// probeTimes times the five analytic models and the simulator on the
// points' layers. It runs on one goroutine after verification, with no
// server running, so nothing else competes with the calls it times. Every
// model runs on every layer; the simulator runs serial (Workers: 1) on
// simProbes' layers and at default width on the largest of them.
func probeTimes(L map[string]float64, pts []delta.ScenarioPoint) error {
	mt := &modelTimes{}
	for _, p := range pts {
		for _, mp := range []struct{ model, pass string }{
			{delta.ScenarioModelDelta, delta.ScenarioPassInference},
			{delta.ScenarioModelPrior, delta.ScenarioPassInference},
			{delta.ScenarioModelRoofline, delta.ScenarioPassInference},
			{delta.ScenarioModelDelta, delta.ScenarioPassTraining},
		} {
			q := p
			q.Sim, q.Model, q.Pass, q.MissRate = nil, mp.model, mp.pass, 1
			if _, err := refLayerSeconds(q, mt); err != nil {
				return err
			}
		}
	}
	for _, m := range []string{"traffic", "perf", "prior", "roofline", "backprop"} {
		L[m+".eval_us"] = mt.meanUs(m)
	}

	probes := simProbes(pts)
	largest := probes[0]
	var sectors uint64
	for _, sp := range probes {
		cfg := sp.cfg
		cfg.Workers = 1
		r, err := timed(mt, "sim.serial", func() (delta.SimResult, error) { return delta.Simulate(sp.layer, cfg) })
		if err != nil {
			return err
		}
		sectors += r.L1Stats.SectorAccesses
		if macs(sp.layer) > macs(largest.layer) {
			largest = sp
		}
	}
	cfg := largest.cfg
	cfg.Workers = 0
	if _, err := timed(mt, "sim.parallel", func() (delta.SimResult, error) { return delta.Simulate(largest.layer, cfg) }); err != nil {
		return err
	}
	L["sim.engine.serial_ms"] = mt.meanUs("sim.serial") / 1000
	L["sim.engine.parallel_ms"] = mt.meanUs("sim.parallel") / 1000
	L["sim.engine.msectors_per_s"] = ratio(float64(sectors)/1e6, mt.total("sim.serial").Seconds())
	return nil
}

// simProbe is one layer the engine probe simulates, with its config.
type simProbe struct {
	layer delta.Conv
	cfg   delta.SimConfig
}

// simProbes picks the layers probeTimes simulates. For simulation points
// that is every layer of the first point of each workload, the op's own
// mix of shapes. Analytic points are never simulated, and their batch
// 64-256 layers would make the probe long, so they give the one layer with
// the fewest multiply-accumulates, on its point's device.
func simProbes(pts []delta.ScenarioPoint) []simProbe {
	if pts[0].Sim == nil {
		var best simProbe
		for _, p := range pts {
			for _, l := range p.Net.Layers {
				if best.cfg.Device.Name == "" || macs(l) < macs(best.layer) {
					best = simProbe{l, delta.SimConfig{Device: p.Device}}
				}
			}
		}
		return []simProbe{best}
	}
	var out []simProbe
	seen := map[string]bool{}
	for _, p := range pts {
		if !seen[p.Workload] {
			seen[p.Workload] = true
			for _, l := range p.Net.Layers {
				out = append(out, simProbe{l, *p.Sim})
			}
		}
	}
	return out
}

func macs(l delta.Conv) float64 {
	return float64(l.B) * float64(l.Ho()) * float64(l.Wo()) * float64(l.Co) * float64(l.Ci) * float64(l.Hf*l.Wf)
}

// cacheLayers fills the modelled cache hit ratios from the verifier's
// reference simulations, 0 where the ops never simulate.
func cacheLayers(L map[string]float64, sims *simStats) {
	L["sim.cache.l1_hit_ratio"] = ratio(float64(sims.l1Hit), float64(sims.l1Acc))
	L["sim.cache.l2_hit_ratio"] = ratio(float64(sims.l2Hit), float64(sims.l2Acc))
}

// replayLayers fills the metrics the in-process replays measure.
func replayLayers(L map[string]float64, tr *tracer, rps []replay) {
	L["spec.decode_ms"] = spanMeanMs(tr, "spec.decode")
	L["scenario.expand_ms"] = spanMeanMs(tr, "scenario.expand")
	var ms float64
	var pts int
	for _, rp := range rps {
		ms += rp.sharedMs
		if rp.sharedMs == 0 {
			ms += rp.freshMs
		}
		pts += rp.points
	}
	L["pipeline.point_ms"] = ratio(ms, float64(pts))
	L["pipeline.memo_overhead_ms"] = spanMeanMs(tr, "pipeline.fresh") - spanMeanMs(tr, "pipeline.nomemo")
}

func pps(points int, wall time.Duration) float64 { return ratio(float64(points), wall.Seconds()) }

// serverLayers computes the per-layer metrics of a traced server run.
func serverLayers(ctx context.Context, rc runConfig, w workload, v *verifier, traced phase, frames []int,
	tracedPPS, untracedPPS float64, tr *tracer) (map[string]float64, error) {
	L := map[string]float64{}
	isFleet := len(traced.first) > 1
	rps, recs, err := replayAll(ctx, traced.ops, w.replays, w.memoReplays, tr)
	if err != nil {
		return nil, err
	}
	replayLayers(L, tr, rps)
	var over []float64
	for i, rp := range rps {
		over = append(over, recs[i].ms-rp.sharedMs)
	}
	L["server.overhead_ms"] = mean(over)

	pts, err := expandDoc(traced.ops[0].o.doc)
	if err != nil {
		return nil, err
	}
	if err := probeTimes(L, pts); err != nil {
		return nil, err
	}
	cacheLayers(L, v.sims)

	// Memo and stream tier: the front server, or the fleet's workers.
	first, last := traced.first, traced.last
	evals := []int{0}
	if isFleet {
		evals = []int{1, 2}
	}
	var hits, misses, sHits, sMisses, entries float64
	for _, i := range evals {
		hits += diff(first[i], last[i], "delta_pipeline_cache_hits_total")
		misses += diff(first[i], last[i], "delta_pipeline_cache_misses_total")
		sHits += diff(first[i], last[i], "delta_stream_cache_hits_total")
		sMisses += diff(first[i], last[i], "delta_stream_cache_misses_total")
		entries += last[i]["delta_pipeline_cache_entries"]
	}
	L["pipeline.memo_hit_ratio"] = ratio(hits, hits+misses)
	L["pipeline.memo_entries"] = entries
	L["sim.trace.stream_hit_ratio"] = ratio(sHits, sHits+sMisses)

	var bytesRead, nFrames float64
	for i, r := range traced.ops {
		bytesRead += float64(r.read)
		nFrames += float64(frames[i])
	}
	n := float64(len(traced.ops))
	L["server.handler_ms"] = handlerMs(traced)
	L["server.response_kb"] = bytesRead / 1024 / n
	L["server.sse_frames"] = nFrames / n

	if isFleet {
		fleetLayers(L, traced)
	} else {
		// One server never reaches the cluster layer: its ratios read idle
		// and its times come from a few traced ops run through a fleet.
		var ops []op
		for _, r := range sample(traced.ops, 4) {
			ops = append(ops, r.o)
		}
		if _, err := probeFleet(ctx, rc, v, ops, L, tr); err != nil {
			return nil, err
		}
		L["cluster.peer_imbalance"] = 1
	}
	L["trace.overhead_pct"] = 100 * (1 - ratio(tracedPPS, untracedPPS))
	return L, nil
}

// handlerMs is the front server's /v2 handler time per op over a traced
// phase, from its request-duration histogram.
func handlerMs(ph phase) float64 {
	var sum float64
	for _, route := range []string{"/v2/jobs", "/v2/jobs/{id}/events"} {
		sum += diff(ph.first[0], ph.last[0], routeSeries("sum", route))
	}
	return 1000 * sum / float64(len(ph.ops))
}

// fleetLayers computes the cluster metrics from the per-op scrapes of the
// coordinator (process 0) and the workers (1 and 2).
func fleetLayers(L map[string]float64, traced phase) {
	var imb, over []float64
	var shardSum, shardCount, hedged, shards, retries float64
	for _, r := range traced.ops {
		var pts []float64
		busiest := 0.0
		for w := 1; w < len(r.before); w++ {
			pts = append(pts, diff(r.before[w], r.after[w], "delta_scenario_points_total"))
			s := diff(r.before[w], r.after[w], routeSeries("sum", "/v2/shards"))
			shardSum += s
			shardCount += diff(r.before[w], r.after[w], routeSeries("count", "/v2/shards"))
			busiest = math.Max(busiest, s)
		}
		imb = append(imb, ratio(maxOf(pts), mean(pts)))
		over = append(over, r.ms-1000*busiest)
		hedged += diff(r.before[0], r.after[0], "delta_cluster_hedged_shards_total")
		shards += sumPrefix(r.after[0], "delta_cluster_shards_total{") - sumPrefix(r.before[0], "delta_cluster_shards_total{")
		retries += diff(r.before[0], r.after[0], "delta_cluster_shard_retries_total")
	}
	L["cluster.peer_imbalance"] = mean(imb)
	L["cluster.hedged_ratio"] = ratio(hedged, shards)
	L["cluster.retries"] = retries / float64(len(traced.ops))
	L["cluster.shard_ms"] = 1000 * ratio(shardSum, shardCount)
	L["cluster.overhead_ms"] = mean(over)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// sweepLayers computes the per-layer metrics of a traced sim-l2sweep run.
func sweepLayers(ctx context.Context, rc runConfig, o op, ref opRef, v *verifier, timed, traced childMsg, tr *tracer) (map[string]float64, error) {
	L := map[string]float64{}
	var rps []replay
	for i := 0; i < 2; i++ {
		rp, err := replayOp(ctx, o, nil, true, tr)
		if err != nil {
			return nil, err
		}
		rps = append(rps, rp)
	}
	replayLayers(L, tr, rps)
	if err := probeTimes(L, ref.pts); err != nil {
		return nil, err
	}
	cacheLayers(L, v.sims)
	st := sumStats(timed.Sweeps)
	L["pipeline.memo_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
	L["pipeline.memo_entries"] = float64(st.Entries)
	L["sim.trace.stream_hit_ratio"] = ratio(float64(st.StreamHits), float64(st.StreamHits+st.StreamMisses))

	// The sweep never reaches a server: the server and cluster ratios and
	// counts read idle, and their times come from the sweep run once as a
	// /v2 job through a fleet.
	ph, err := probeFleet(ctx, rc, v, []op{{body: jobBody(o.doc), doc: o.doc}}, L, tr)
	if err != nil {
		return nil, err
	}
	L["server.handler_ms"] = handlerMs(ph)
	L["server.overhead_ms"] = ph.ops[0].ms - mean([]float64{rps[0].freshMs, rps[1].freshMs})
	L["cluster.peer_imbalance"] = 1
	wallOf := func(m childMsg) time.Duration {
		var ms float64
		for _, sw := range m.Sweeps {
			ms += sw.Ms
		}
		return time.Duration(ms * float64(time.Millisecond))
	}
	n := len(ref.pts)
	L["trace.overhead_pct"] = 100 * (1 - ratio(pps(n*len(traced.Sweeps), wallOf(traced)), pps(n*len(timed.Sweeps), wallOf(timed))))
	return L, nil
}
