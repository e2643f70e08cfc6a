package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"delta"
	"delta/internal/spec"
)

// The JSON shapes below mirror what delta-server renders for a scenario
// point; only the fields the check compares are decoded.

type pointJSON struct {
	Index    int            `json:"index"`
	Workload string         `json:"workload"`
	Device   string         `json:"device"`
	Model    string         `json:"model"`
	Pass     string         `json:"pass"`
	Kind     string         `json:"kind"`
	Done     int            `json:"done"`
	Total    int            `json:"total"`
	Error    string         `json:"error"`
	Result   *networkJSON   `json:"result"`
	Sim      []simLayerJSON `json:"sim"`
}

type networkJSON struct {
	Device       string      `json:"device"`
	Layers       []layerJSON `json:"layers"`
	TotalSeconds float64     `json:"total_seconds"`
}

type layerJSON struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

type simLayerJSON struct {
	Name           string  `json:"name"`
	L1Bytes        float64 `json:"l1_bytes"`
	L2Bytes        float64 `json:"l2_bytes"`
	DRAMBytes      float64 `json:"dram_bytes"`
	DRAMWriteBytes float64 `json:"dram_write_bytes"`
	L1Requests     uint64  `json:"l1_requests"`
	SimulatedCTAs  int     `json:"simulated_ctas"`
	TotalCTAs      int     `json:"total_ctas"`
}

// modelTimes accumulates the time spent in each facade call a probe makes,
// for the traced run's per-layer times.
type modelTimes struct {
	mu    sync.Mutex
	sum   map[string]time.Duration
	count map[string]int
}

func (m *modelTimes) add(name string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sum == nil {
		m.sum, m.count = make(map[string]time.Duration), make(map[string]int)
	}
	m.sum[name] += d
	m.count[name]++
}

// total returns the time spent in name.
func (m *modelTimes) total(name string) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sum[name]
}

// meanUs returns the mean time per call of name in microseconds.
func (m *modelTimes) meanUs(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count[name] == 0 {
		return 0
	}
	return float64(m.sum[name].Nanoseconds()) / 1e3 / float64(m.count[name])
}

// timed runs f, charging its duration to name.
func timed[T any](mt *modelTimes, name string, f func() (T, error)) (T, error) {
	if mt == nil {
		return f()
	}
	t := time.Now()
	v, err := f()
	mt.add(name, time.Since(t))
	return v, err
}

// expandDoc resolves a scenario document into its points, as the server
// does when it accepts the job.
func expandDoc(doc []byte) ([]delta.ScenarioPoint, error) {
	sc, err := spec.ReadScenario(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	return sc.Expand()
}

// refLayerSeconds computes an analytic point's per-layer seconds through
// the facade's single-layer calls: the independent reference the served
// results must match bit for bit.
func refLayerSeconds(p delta.ScenarioPoint, mt *modelTimes) ([]float64, error) {
	out := make([]float64, len(p.Net.Layers))
	for i, l := range p.Net.Layers {
		var s float64
		switch {
		case p.Pass == delta.ScenarioPassTraining:
			st, err := timed(mt, "backprop", func() (delta.TrainingStep, error) {
				return delta.EstimateTrainingStep(l, p.Device, p.Options, i == 0)
			})
			if err != nil {
				return nil, err
			}
			s = st.Seconds()
		case p.Model == delta.ScenarioModelRoofline:
			r, err := timed(mt, "roofline", func() (delta.RooflineResult, error) { return delta.Roofline(l, p.Device) })
			if err != nil {
				return nil, err
			}
			s = r.Seconds
		case p.Model == delta.ScenarioModelPrior:
			r, err := timed(mt, "prior", func() (delta.PerfResult, error) { return delta.PriorEstimate(l, p.Device, p.MissRate) })
			if err != nil {
				return nil, err
			}
			s = r.Seconds
		default:
			est, err := timed(mt, "traffic", func() (delta.TrafficEstimate, error) {
				return delta.EstimateTraffic(l, p.Device, p.Options)
			})
			if err != nil {
				return nil, err
			}
			r, err := timed(mt, "perf", func() (delta.PerfResult, error) { return delta.EstimatePerformance(est, p.Device) })
			if err != nil {
				return nil, err
			}
			s = r.Seconds
		}
		out[i] = s
	}
	return out, nil
}

// checkNetwork compares a rendered whole-network result with the reference
// seconds: every layer and the count-weighted total must be bit-identical.
func checkNetwork(p delta.ScenarioPoint, got *networkJSON, ref []float64) error {
	if got == nil {
		return fmt.Errorf("point %d: no result", p.Index)
	}
	if got.Device != p.Device.Name || len(got.Layers) != len(p.Net.Layers) {
		return fmt.Errorf("point %d: device %q with %d layers, want %q with %d",
			p.Index, got.Device, len(got.Layers), p.Device.Name, len(p.Net.Layers))
	}
	var total float64
	for i, l := range got.Layers {
		c := 1
		if p.Net.Counts != nil {
			c = p.Net.Counts[i]
		}
		if l.Name != p.Net.Layers[i].Name || l.Count != c {
			return fmt.Errorf("point %d layer %d: %q x%d, want %q x%d", p.Index, i, l.Name, l.Count, p.Net.Layers[i].Name, c)
		}
		if math.Float64bits(l.Seconds) != math.Float64bits(ref[i]) {
			return fmt.Errorf("point %d layer %s: seconds %v, reference %v", p.Index, l.Name, l.Seconds, ref[i])
		}
		total += ref[i] * float64(c)
	}
	if math.Float64bits(got.TotalSeconds) != math.Float64bits(total) {
		return fmt.Errorf("point %d: total_seconds %v, reference %v", p.Index, got.TotalSeconds, total)
	}
	return nil
}

// refSim runs the serial reference engine on every layer of a sim point.
func refSim(p delta.ScenarioPoint) ([]delta.SimResult, error) {
	out := make([]delta.SimResult, len(p.Net.Layers))
	cfg := *p.Sim
	cfg.Workers = 1
	for i, l := range p.Net.Layers {
		r, err := delta.Simulate(l, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// checkSim compares rendered simulated layers with the serial engine.
func checkSim(p delta.ScenarioPoint, got []simLayerJSON, ref []delta.SimResult) error {
	if len(got) != len(ref) {
		return fmt.Errorf("point %d: %d simulated layers, want %d", p.Index, len(got), len(ref))
	}
	for i, g := range got {
		r := ref[i]
		want := simLayerJSON{Name: r.Layer.Name, L1Bytes: r.L1Bytes, L2Bytes: r.L2Bytes,
			DRAMBytes: r.DRAMBytes, DRAMWriteBytes: r.DRAMWriteBytes, L1Requests: r.L1Requests,
			SimulatedCTAs: r.SimulatedCTAs, TotalCTAs: r.TotalCTAs}
		if g != want {
			return fmt.Errorf("point %d layer %s: got %+v, serial engine %+v", p.Index, g.Name, g, want)
		}
	}
	return nil
}

// opRef is an op's reference: its expanded points and, per point, the
// analytic layer seconds or the serial engine's simulated layers.
type opRef struct {
	pts      []delta.ScenarioPoint
	analytic [][]float64
	sim      [][]delta.SimResult
}

// computeRef expands an op's scenario document and computes every point's
// reference through the facade on the caller's goroutine, timing nothing:
// callers spread ops over the CPUs, and per-layer times come from probes
// that run alone (layers.go).
func computeRef(o op, sims *simStats) (opRef, error) {
	pts, err := expandDoc(o.doc)
	if err != nil {
		return opRef{}, err
	}
	ref := opRef{pts: pts, analytic: make([][]float64, len(pts)), sim: make([][]delta.SimResult, len(pts))}
	for i, p := range pts {
		if p.Sim != nil {
			if ref.sim[i], err = refSim(p); err != nil {
				return opRef{}, err
			}
			sims.add(ref.sim[i])
		} else if ref.analytic[i], err = refLayerSeconds(p, nil); err != nil {
			return opRef{}, err
		}
	}
	return ref, nil
}

// checkPoint checks one decoded scenario point against its expansion and
// reference.
func checkPoint(ref opRef, i int, got pointJSON) error {
	p, total := ref.pts[i], len(ref.pts)
	if got.Error != "" {
		return fmt.Errorf("point %d: error %q", p.Index, got.Error)
	}
	if got.Index != p.Index || got.Total != total || got.Device != p.Device.Name || got.Workload != p.Workload {
		return fmt.Errorf("point %d: got index %d total %d %s on %s, want %d of %d %s on %s", p.Index,
			got.Index, got.Total, got.Workload, got.Device, p.Index, total, p.Workload, p.Device.Name)
	}
	if p.Sim != nil {
		if got.Kind != "sim" {
			return fmt.Errorf("point %d: kind %q, want sim", p.Index, got.Kind)
		}
		return checkSim(p, got.Sim, ref.sim[i])
	}
	if got.Kind != "analytic" || got.Model != p.Model || got.Pass != p.Pass {
		return fmt.Errorf("point %d: %s %s/%s, want analytic %s/%s", p.Index, got.Kind, got.Model, got.Pass, p.Model, p.Pass)
	}
	return checkNetwork(p, got.Result, ref.analytic[i])
}

// checkJobStream checks a /v2 job's SSE stream: one result frame per point
// with dense ids and indices, then a terminal done frame reporting success;
// every result must match the reference. It returns the number of frames.
func checkJobStream(o op, ref opRef, events []byte) (frames int, err error) {
	fs, err := parseSSE(events)
	if err != nil {
		return 0, err
	}
	n := len(ref.pts)
	if len(fs) != n+1 {
		return len(fs), fmt.Errorf("job %d: %d frames, want %d results + done", o.index, len(fs), n)
	}
	for i := 0; i < n; i++ {
		f := fs[i]
		if f.event != "result" || f.id != i+1 {
			return len(fs), fmt.Errorf("job %d frame %d: event %q id %d", o.index, i, f.event, f.id)
		}
		var got pointJSON
		if err := json.Unmarshal(f.data, &got); err != nil {
			return len(fs), fmt.Errorf("job %d frame %d: %w", o.index, i, err)
		}
		if got.Done != i+1 {
			return len(fs), fmt.Errorf("job %d frame %d: done %d", o.index, i, got.Done)
		}
		if err := checkPoint(ref, i, got); err != nil {
			return len(fs), fmt.Errorf("job %d: %w", o.index, err)
		}
	}
	last := fs[n]
	var done struct {
		Status string `json:"status"`
		Done   int    `json:"done"`
		Total  int    `json:"total"`
	}
	if err := json.Unmarshal(last.data, &done); err != nil || last.event != "done" {
		return len(fs), fmt.Errorf("job %d: last frame %q %s is not a done frame", o.index, last.event, firstLine(last.data))
	}
	if done.Status != "done" || done.Done != n || done.Total != n {
		return len(fs), fmt.Errorf("job %d: done frame %+v, want done %d/%d", o.index, done, n, n)
	}
	return len(fs), nil
}

// simStats sums the modelled cache counters of simulations.
type simStats struct {
	mu           sync.Mutex
	l1Acc, l1Hit uint64
	l2Acc, l2Hit uint64
}

func (s *simStats) add(rs []delta.SimResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range rs {
		s.l1Acc += r.L1Stats.SectorAccesses
		s.l1Hit += r.L1Stats.SectorHits
		s.l2Acc += r.L2Stats.SectorAccesses
		s.l2Hit += r.L2Stats.SectorHits
	}
}

// parallel runs f(i) for i in [0, n) on w goroutines and returns each
// index's error.
func parallel(n, w int, f func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}
