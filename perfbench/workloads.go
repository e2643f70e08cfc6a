package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"delta"
	"delta/internal/spec"
)

// workloads are the server workloads; sim-l2sweep runs through runSweep.
var workloads = map[string]workload{
	// One default delta-server. 48 warm-up jobs insert 48 x 1408 analytic
	// results, past the memo's 65,536-entry cap, so the whole timed phase
	// runs at the cap instead of crossing it at a speed-dependent moment.
	"explore-jobs": {gen: exploreOps, warmup: 48, points: explorePoints,
		start: single, maxRate: 200, replays: 200, memoReplays: 20},
	// Two single-worker delta-servers behind a coordinator.
	"fleet-sim": {gen: fleetOps, warmup: 1, points: fleetPoints,
		start: fleet, maxRate: 5, replays: 2, memoReplays: 1},
}

func single(ctx context.Context, rc runConfig, c *http.Client) (*sut, error) {
	return startServers(ctx, rc, c, []string{"server"}, [][]string{nil})
}

func fleet(ctx context.Context, rc runConfig, c *http.Client) (*sut, error) {
	return startServers(ctx, rc, c, []string{"worker1", "worker2", "coordinator"}, [][]string{
		{"-workers", "1"}, {"-workers", "1"}, {"-coordinator", "-peers", "{peers}"},
	})
}

// verifier checks recorded ops against references computed through the
// facade.
type verifier struct {
	sims *simStats // modelled cache counters of the reference simulations

	mu   sync.Mutex
	refs map[string]*refEntry // by scenario document; see ref
}

type refEntry struct {
	once sync.Once
	ref  opRef
	err  error
}

func newVerifier() *verifier {
	return &verifier{sims: &simStats{}, refs: map[string]*refEntry{}}
}

// ref returns o's reference and keeps it for later checks of the same
// document: the warm-up ops, run again by every setup, and the sweep.
func (v *verifier) ref(o op) (opRef, error) {
	v.mu.Lock()
	e := v.refs[string(o.doc)]
	if e == nil {
		e = &refEntry{}
		v.refs[string(o.doc)] = e
	}
	v.mu.Unlock()
	e.once.Do(func() { e.ref, e.err = computeRef(o, v.sims) })
	return e.ref, e.err
}

// check verifies one op record; frames is the SSE frame count. An op
// without a kept reference gets one computed for this check alone, so a
// run never holds the references of all its timed ops at once.
func (v *verifier) check(r opRecord) (frames int, err error) {
	if r.err != nil {
		return 0, fmt.Errorf("op %d: %w", r.o.index, r.err)
	}
	v.mu.Lock()
	_, kept := v.refs[string(r.o.doc)]
	v.mu.Unlock()
	var ref opRef
	if kept {
		ref, err = v.ref(r.o)
	} else {
		ref, err = computeRef(r.o, v.sims)
	}
	if err != nil {
		return 0, err
	}
	return checkJobStream(r.o, ref, r.job.events)
}

// verifyAll checks every record, the records spread over the CPUs, and
// returns each record's error and frame count.
func (v *verifier) verifyAll(recs []opRecord) ([]error, []int) {
	frames := make([]int, len(recs))
	errs := parallel(len(recs), runtime.NumCPU(), func(i int) error {
		var err error
		frames[i], err = v.check(recs[i])
		return err
	})
	return errs, frames
}

// runServer runs a server workload: set up (three times untraced, once
// traced), run the timed phase, stop the system, then verify every op.
func runServer(ctx context.Context, rc runConfig, w workload) (*outcome, error) {
	out := &outcome{info: map[string]any{}}
	c := newClient()
	at := w.gen(rc.seed)
	v := newVerifier()

	// The warm-up ops' references are computed before any clock starts.
	warm := make([]op, w.warmup)
	for i := range warm {
		warm[i] = at(i)
	}
	for _, err := range parallel(len(warm), runtime.NumCPU(), func(i int) error { _, err := v.ref(warm[i]); return err }) {
		if err != nil {
			return nil, fmt.Errorf("warm-up reference: %w", err)
		}
	}
	// Ops are generated before the timed phase, not inside it: more than
	// a run can complete, the rest on the fly if a run outpaces the list.
	n := w.warmup + int(w.maxRate*rc.seconds.Seconds()) + 1
	ops := make([]op, n)
	copy(ops, warm)
	for i := w.warmup; i < n; i++ {
		ops[i] = at(i)
	}
	atOps := func(i int) op {
		if i < len(ops) {
			return ops[i]
		}
		return at(i)
	}

	nSetups := setups
	if rc.trace {
		nSetups = 1
	}
	var s *sut
	for k := 0; k < nSetups; k++ {
		t0 := time.Now()
		var err error
		if s, err = w.start(ctx, rc, c); err != nil {
			return nil, err
		}
		ph, err := s.runOps(ctx, c, atOps, 0, w.warmup, 0, nil)
		if err != nil {
			return nil, err
		}
		errs, _ := v.verifyAll(ph.ops)
		out.setups = append(out.setups, time.Since(t0).Seconds())
		for _, err := range errs {
			out.check(err)
		}
		if k < nSetups-1 && s.stop() {
			out.check(fmt.Errorf("setup %d left a stray process", k))
		}
	}

	tot0, steal0 := cpuTicks()
	timed, err := s.runOps(ctx, c, atOps, w.warmup, 0, rc.seconds, nil)
	if err != nil {
		return nil, err
	}
	tot1, steal1 := cpuTicks()
	out.info["steal_share"] = ratio(steal1-steal0, tot1-tot0)
	// check verifies a phase's ops, counting failures and verified points,
	// then drops the answers so two phases' bodies are never held at once.
	check := func(ph phase) (points int, frames []int) {
		errs, frames := v.verifyAll(ph.ops)
		for i, err := range errs {
			out.check(err)
			if err == nil {
				points += w.points
			}
			ph.ops[i].job = jobRun{}
		}
		return points, frames
	}
	for _, r := range timed.ops {
		out.opMs = append(out.opMs, r.ms)
	}
	out.wall = timed.wall.Seconds()
	if !rc.trace {
		if out.rssMB, err = s.rssMB(); err != nil {
			return nil, err
		}
		if s.stop() {
			out.check(fmt.Errorf("the timed phase left a stray process"))
		}
		// Verification runs only now, with the servers gone.
		out.points, _ = check(timed)
		return out, nil
	}

	// Traced run: the servers sit idle while the untraced phase is
	// verified, then the next ops run again with spans.
	out.points, _ = check(timed)
	tr := newTracer()
	traced, err := s.runOps(ctx, c, atOps, w.warmup+len(timed.ops), 0, rc.seconds, tr)
	if err != nil {
		return nil, err
	}
	if s.stop() {
		out.check(fmt.Errorf("the traced phase left a stray process"))
	}
	tpoints, frames := check(traced)
	untraced := pps(out.points, timed.wall)
	if out.layers, err = serverLayers(ctx, rc, w, v, traced, frames, pps(tpoints, traced.wall), untraced, tr); err != nil {
		return nil, err
	}
	return out, tr.write(rc.dir + "/spans.json")
}

// probeFleet times the cluster layer for a workload whose own ops never
// reach a fleet: it runs ops as /v2 jobs, one at a time, through a fresh
// fleet (fleet-sim's system) with every process scraped around each op,
// checks every answer, and sets L's cluster times as fleet-sim's traced
// run computes them. It returns the phase, from which a workload that
// never reaches a server takes its server times too.
func probeFleet(ctx context.Context, rc runConfig, v *verifier, ops []op, L map[string]float64, tr *tracer) (phase, error) {
	c := newClient()
	s, err := fleet(ctx, rc, c)
	if err != nil {
		return phase{}, err
	}
	ph, err := s.runOps(ctx, c, func(i int) op { return ops[i] }, 0, len(ops), 0, tr)
	if s.stop() && err == nil {
		err = fmt.Errorf("the probe fleet left a stray process")
	}
	if err != nil {
		return ph, err
	}
	errs, _ := v.verifyAll(ph.ops)
	for _, err := range errs {
		if err != nil {
			return ph, fmt.Errorf("probe fleet: %w", err)
		}
	}
	P := map[string]float64{}
	fleetLayers(P, ph)
	L["cluster.shard_ms"], L["cluster.overhead_ms"] = P["cluster.shard_ms"], P["cluster.overhead_ms"]
	return ph, nil
}

// sample returns up to n records spread evenly over recs.
func sample(recs []opRecord, n int) []opRecord {
	if len(recs) <= n {
		return recs
	}
	out := make([]opRecord, n)
	for i := range out {
		out[i] = recs[i*len(recs)/n]
	}
	return out
}

// replay is an op's inputs run again in-process through the public
// functions, each call a traced span.
type replay struct {
	sharedMs float64 // through a long-lived pipeline, like the server's
	freshMs  float64 // through a fresh pipeline
	points   int
}

// replayOp replays one op. shared, when not nil, is a pipeline that lives
// across the run's replays; memo also replays through fresh and memo-less
// pipelines.
func replayOp(ctx context.Context, o op, shared *delta.Pipeline, memo bool, tr *tracer) (replay, error) {
	var rp replay
	root := tr.reserve()
	t := time.Now()
	defer func() { tr.record(root, "replay", o.index, 0, t, time.Now()) }()
	step := func(name string, dst *float64, f func() error) error {
		end := tr.start(name, o.index, root)
		t0 := time.Now()
		err := f()
		if dst != nil {
			*dst = msSince(t0)
		}
		end()
		return err
	}
	var sc delta.Scenario
	if err := step("spec.decode", nil, func() (err error) {
		sc, err = spec.ReadScenario(bytes.NewReader(o.doc))
		return err
	}); err != nil {
		return rp, err
	}
	if err := step("scenario.expand", nil, func() error {
		pts, err := sc.Expand()
		rp.points = len(pts)
		return err
	}); err != nil {
		return rp, err
	}
	run := func(p *delta.Pipeline) func() error {
		return func() error { _, err := p.RunScenario(ctx, sc); return err }
	}
	if shared != nil {
		if err := step("pipeline.shared", &rp.sharedMs, run(shared)); err != nil {
			return rp, err
		}
	}
	if !memo {
		return rp, nil
	}
	if err := step("pipeline.fresh", &rp.freshMs, run(delta.NewPipeline())); err != nil {
		return rp, err
	}
	err := step("pipeline.nomemo", nil, run(delta.NewPipeline(delta.WithoutPipelineCache())))
	return rp, err
}

// replayAll replays up to max ops through one long-lived pipeline, the
// first memoN of them also through fresh and memo-less pipelines.
func replayAll(ctx context.Context, recs []opRecord, max, memoN int, tr *tracer) ([]replay, []opRecord, error) {
	shared := delta.NewPipeline()
	recs = sample(recs, max)
	out := make([]replay, len(recs))
	for i, r := range recs {
		var err error
		if out[i], err = replayOp(ctx, r.o, shared, i < memoN, tr); err != nil {
			return nil, nil, err
		}
	}
	return out, recs, nil
}

// childProc is the sim-l2sweep child with its pipes.
type childProc struct {
	*proc
	in  io.WriteCloser
	out *bufio.Reader
}

// startPiped launches the sweep child with stdin and stdout pipes.
func startPiped(rc runConfig) (*childProc, error) {
	var in io.WriteCloser
	var out io.ReadCloser
	p, err := start("sweep", rc.dir, rc.self, func(cmd *exec.Cmd) (err error) {
		if in, err = cmd.StdinPipe(); err != nil {
			return err
		}
		out, err = cmd.StdoutPipe()
		return err
	}, "child-sweep")
	if err != nil {
		return nil, err
	}
	return &childProc{proc: p, in: in, out: bufio.NewReaderSize(out, 1<<20)}, nil
}

func (c *childProc) send(line string) error {
	_, err := io.WriteString(c.in, line+"\n")
	return err
}

func (c *childProc) recv() (childMsg, error) {
	var m childMsg
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return m, fmt.Errorf("sweep child: %w", err)
	}
	return m, json.Unmarshal(line, &m)
}

// checkSweep compares one reported sweep with the reference.
func checkSweep(ref opRef, sw sweepOut) error {
	if len(sw.Points) != len(ref.pts) {
		return fmt.Errorf("sweep: %d points, want %d", len(sw.Points), len(ref.pts))
	}
	for i, p := range sw.Points {
		if p.Done != i+1 {
			return fmt.Errorf("sweep point %d: done %d", i, p.Done)
		}
		if err := checkPoint(ref, i, p); err != nil {
			return err
		}
	}
	return nil
}

// runSweep runs sim-l2sweep: in-process sweeps in a fresh child process.
func runSweep(ctx context.Context, rc runConfig) (*outcome, error) {
	out := &outcome{info: map[string]any{}}
	o := simSweepOp(rc.seed)
	v := newVerifier()
	ref, err := v.ref(o)
	if err != nil {
		return nil, err
	}
	nSetups := setups
	if rc.trace {
		nSetups = 1
	}
	var ch *childProc
	for k := 0; k < nSetups; k++ {
		t0 := time.Now()
		if ch, err = startPiped(rc); err != nil {
			return nil, err
		}
		if err := ch.send(string(o.doc)); err != nil {
			return nil, err
		}
		m, err := ch.recv()
		if err != nil {
			return nil, err
		}
		if len(m.Sweeps) != 1 {
			return nil, fmt.Errorf("sweep child: warm-up reported %d sweeps", len(m.Sweeps))
		}
		out.check(checkSweep(ref, m.Sweeps[0]))
		out.setups = append(out.setups, time.Since(t0).Seconds())
		if k < nSetups-1 {
			_ = ch.send("quit") // the kill below ends it either way
			if ch.stop() {
				out.check(fmt.Errorf("setup %d left a stray process", k))
			}
		}
	}
	runPhase := func() (childMsg, error) {
		if err := ch.send(fmt.Sprintf("run %g", rc.seconds.Seconds())); err != nil {
			return childMsg{}, err
		}
		return ch.recv()
	}
	tot0, steal0 := cpuTicks()
	timed, err := runPhase()
	if err != nil {
		return nil, err
	}
	tot1, steal1 := cpuTicks()
	out.info["steal_share"] = ratio(steal1-steal0, tot1-tot0)
	var traced childMsg
	if rc.trace {
		if traced, err = runPhase(); err != nil {
			return nil, err
		}
	}
	if out.rssMB, err = ch.peakRSSMB(); err != nil {
		return nil, err
	}
	_ = ch.send("quit")
	if ch.stop() {
		out.check(fmt.Errorf("the timed phase left a stray process"))
	}
	var wall float64
	for _, sw := range timed.Sweeps {
		err := checkSweep(ref, sw)
		out.check(err)
		out.opMs = append(out.opMs, sw.Ms)
		wall += sw.Ms / 1000
		if err == nil {
			out.points += len(ref.pts)
		}
	}
	out.wall = wall
	out.info["go_alloc_mb_per_sweep"] = timed.AllocMB / float64(len(timed.Sweeps))
	st := sumStats(timed.Sweeps)
	out.info["stream_hits"], out.info["stream_misses"] = st.StreamHits, st.StreamMisses
	if !rc.trace {
		return out, nil
	}
	for _, sw := range traced.Sweeps {
		out.check(checkSweep(ref, sw))
	}
	tr := newTracer()
	if out.layers, err = sweepLayers(ctx, rc, o, ref, v, timed, traced, tr); err != nil {
		return nil, err
	}
	return out, tr.write(rc.dir + "/spans.json")
}

func sumStats(sws []sweepOut) pipeStats {
	var s pipeStats
	for _, sw := range sws {
		s.Hits += sw.Stats.Hits
		s.Misses += sw.Stats.Misses
		s.StreamHits += sw.Stats.StreamHits
		s.StreamMisses += sw.Stats.StreamMisses
		s.Entries = sw.Stats.Entries
	}
	return s
}
