// HTTP handlers: a thin JSON codec layer over the shared evaluation
// pipeline, reusing internal/spec for layer-list, device, and scenario
// payloads. The /v1 endpoints are synchronous adapters over the scenario
// path (one-point scenarios streamed to completion); /v2 exposes the full
// declarative sweep shape as asynchronous jobs (see jobs.go).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"delta"
	"delta/internal/cluster"
	"delta/internal/spec"
)

// maxBodyBytes bounds request bodies; layer lists and scenarios are small.
const maxBodyBytes = 1 << 20

// defaultSSEKeepAlive paces the comment frames idle SSE streams emit so
// proxies and load balancers do not reap them as dead connections.
const defaultSSEKeepAlive = 15 * time.Second

// serverConfig is the production-hardening knob set of newServerWith;
// the zero value serves unauthenticated with no load shedding (the
// pre-hardening behavior, which the unit tests rely on).
type serverConfig struct {
	// AuthToken guards every endpoint but /healthz and /metrics when set.
	AuthToken string

	// MaxInFlight caps globally concurrent requests (0 = uncapped);
	// excess answers 503 + Retry-After instead of queueing.
	MaxInFlight int

	// SSEKeepAlive overrides the idle-stream keep-alive interval
	// (0 means defaultSSEKeepAlive).
	SSEKeepAlive time.Duration

	// AccessLog receives one line per request; nil disables logging.
	AccessLog *log.Logger

	// Peers enables coordinator mode: /v2 job sweeps are sharded across
	// these delta-server workers (their /v2/shards endpoints) and merged
	// back in expansion order instead of evaluated locally. The /v1
	// endpoints still answer from the local pipeline. Workers are assumed
	// to share AuthToken; empty Peers is single-node mode.
	Peers []string

	// ShardTimeout bounds one coordinator shard attempt (0 takes the
	// cluster default, 10m).
	ShardTimeout time.Duration

	// ShardRetryBackoff overrides the failure and reconnect backoff base
	// (0 = cluster defaults); tests shrink it.
	ShardRetryBackoff time.Duration
}

// server routes requests into one shared pipeline, so concurrent clients
// share the worker pool and the simulation memo.
type server struct {
	p         *delta.Pipeline
	jobs      *jobStore
	metrics   *serverMetrics
	inflight  gate
	keepAlive time.Duration

	// coord is non-nil in coordinator mode (serverConfig.Peers): /v2 job
	// sweeps fan out across the fleet instead of the local pipeline.
	coord *cluster.Coordinator
}

// newServer returns the delta-server HTTP handler with default hardening
// (no auth, no shedding).
func newServer(p *delta.Pipeline) http.Handler {
	return newServerWithJobs(p, newJobStore(jobStoreConfig{}))
}

func newServerWithJobs(p *delta.Pipeline, jobs *jobStore) http.Handler {
	return newServerWith(p, jobs, serverConfig{})
}

// newServerWith assembles the handler: the route mux behind the
// middleware chain (request ID → access log → metrics → recovery →
// shedding → auth), with /metrics scraping the per-server registry.
func newServerWith(p *delta.Pipeline, jobs *jobStore, cfg serverConfig) http.Handler {
	h, _, err := buildServer(p, jobs, cfg)
	if err != nil {
		// Only a malformed Peers list errors; callers without one (every
		// in-package test and the single-node path) cannot reach this.
		panic(err)
	}
	return h
}

// buildServer is newServerWith exposing the *server too, for callers that
// need the durable-restart hook (resumeJobs) after assembly. It errors
// only on a malformed coordinator config (bad Peers entry).
func buildServer(p *delta.Pipeline, jobs *jobStore, cfg serverConfig) (http.Handler, *server, error) {
	var inflight gate
	if cfg.MaxInFlight > 0 {
		inflight = make(gate, cfg.MaxInFlight)
	}
	s := &server{
		p: p, jobs: jobs,
		metrics:   newServerMetrics(p, jobs, inflight),
		inflight:  inflight,
		keepAlive: cfg.SSEKeepAlive,
	}
	if s.keepAlive <= 0 {
		s.keepAlive = defaultSSEKeepAlive
	}
	if len(cfg.Peers) > 0 {
		coord, err := cluster.New(cluster.Config{
			Peers:         cfg.Peers,
			ShardTimeout:  cfg.ShardTimeout,
			RetryBackoff:  cfg.ShardRetryBackoff,
			ClientBackoff: cfg.ShardRetryBackoff,
			Token:         cfg.AuthToken,
			Metrics:       cluster.NewMetrics(s.metrics.reg),
			Log:           cfg.AccessLog,
		})
		if err != nil {
			return nil, nil, err
		}
		s.coord = coord
		s.metrics.reg.GaugeFunc(metricClusterPeers,
			"Workers in the coordinator's configured fleet.",
			func() float64 { return float64(len(coord.Peers())) })
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", methods{http.MethodGet: s.handleHealth}.dispatch)
	mux.HandleFunc("/metrics", methods{
		http.MethodGet: s.metrics.reg.Handler().ServeHTTP,
	}.dispatch)
	mux.HandleFunc("/v1/devices", methods{http.MethodGet: s.handleDevices}.dispatch)
	mux.HandleFunc("/v1/networks", methods{http.MethodGet: s.handleNetworks}.dispatch)
	mux.HandleFunc("/v1/estimate", methods{http.MethodPost: s.handleEstimate}.dispatch)
	mux.HandleFunc("/v1/network", methods{http.MethodPost: s.handleNetwork}.dispatch)
	mux.HandleFunc("/v1/explore", methods{http.MethodPost: s.handleExplore}.dispatch)
	mux.HandleFunc("/v2/jobs", methods{
		http.MethodPost: s.handleJobSubmit,
		http.MethodGet:  s.handleJobList,
	}.dispatch)
	mux.HandleFunc("/v2/jobs/", s.routeJob)
	// Every delta-server is a capable fleet worker: /v2/shards streams a
	// scenario window as SSE result frames (see internal/cluster). The
	// handler encodes points with renderPoint, as the job store does, so
	// coordinated sweeps merge to byte-identical results.
	mux.Handle("/v2/shards", &cluster.ShardHandler{
		Eval: p, Render: renderPoint, KeepAlive: s.keepAlive, MaxBody: maxBodyBytes,
	})
	return chain(mux,
		withRequestID(),
		withAccessLog(cfg.AccessLog),
		withMetrics(s.metrics),
		withRecover(s.metrics, cfg.AccessLog),
		withShedding(s.metrics, inflight),
		withAuth(s.metrics, cfg.AuthToken),
	), s, nil
}

// methods dispatches one route by HTTP method, answering every unlisted
// method with a JSON 405 that names the allowed set in the Allow header
// (the consistent rejection shape every endpoint shares).
type methods map[string]http.HandlerFunc

func (m methods) dispatch(w http.ResponseWriter, r *http.Request) {
	if h, ok := m[r.Method]; ok {
		h(w, r)
		return
	}
	allowed := make([]string, 0, len(m))
	for meth := range m {
		allowed = append(allowed, meth)
	}
	sort.Strings(allowed)
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	writeError(w, http.StatusMethodNotAllowed,
		fmt.Errorf("method %s not allowed (allow: %s)", r.Method, strings.Join(allowed, ", ")))
}

// estimateRequest is the JSON shape of /v1/estimate and /v1/network.
// Layers reuses the internal/spec layer-list codec verbatim; DeviceSpec
// the spec device codec (inheriting unset fields from a base device).
type estimateRequest struct {
	// Network names a registered CNN (/v1/network); Layers carries an
	// explicit spec layer list (/v1/estimate).
	Network string          `json:"network,omitempty"`
	Batch   int             `json:"batch,omitempty"`
	Layers  json.RawMessage `json:"layers,omitempty"`

	Device     string          `json:"device,omitempty"`
	DeviceSpec json.RawMessage `json:"device_spec,omitempty"`

	Model    string         `json:"model,omitempty"`
	Pass     string         `json:"pass,omitempty"`
	MissRate float64        `json:"miss_rate,omitempty"`
	Options  trafficOptions `json:"options,omitempty"`
}

// trafficOptions mirrors delta.TrafficOptions for JSON.
type trafficOptions struct {
	PaperMLIFilter    bool `json:"paper_mli_filter,omitempty"`
	CapacityAwareDRAM bool `json:"capacity_aware_dram,omitempty"`
	TileOverride      int  `json:"tile_override,omitempty"`
}

func (o trafficOptions) toModel() delta.TrafficOptions {
	return delta.TrafficOptions{
		PaperMLIFilter:    o.PaperMLIFilter,
		CapacityAwareDRAM: o.CapacityAwareDRAM,
		TileOverride:      o.TileOverride,
	}
}

// layerResponse is one per-layer prediction row.
type layerResponse struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`

	// Inference (delta/prior) fields.
	Cycles      float64 `json:"cycles,omitempty"`
	Bottleneck  string  `json:"bottleneck,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	L1Bytes     float64 `json:"l1_bytes,omitempty"`
	L2Bytes     float64 `json:"l2_bytes,omitempty"`
	DRAMBytes   float64 `json:"dram_bytes,omitempty"`

	// Training-pass breakdown.
	FpropSeconds float64 `json:"fprop_seconds,omitempty"`
	DgradSeconds float64 `json:"dgrad_seconds,omitempty"`
	WgradSeconds float64 `json:"wgrad_seconds,omitempty"`

	// Roofline fields.
	Bound     string  `json:"bound,omitempty"`
	Intensity float64 `json:"intensity,omitempty"`
}

// estimateResponse is the JSON answer of /v1/estimate and /v1/network.
type estimateResponse struct {
	Network      string          `json:"network"`
	Device       string          `json:"device"`
	Model        string          `json:"model"`
	Pass         string          `json:"pass"`
	Layers       []layerResponse `json:"layers"`
	TotalSeconds float64         `json:"total_seconds"`
	Bottlenecks  map[string]int  `json:"bottlenecks,omitempty"`
}

// exploreRequest is the JSON shape of /v1/explore.
type exploreRequest struct {
	estimateRequest

	// Axes overrides the default exploration grid; empty axes mean "1x".
	Axes *exploreAxes `json:"axes,omitempty"`

	// Target asks for the cheapest candidate reaching this speedup.
	Target float64 `json:"target,omitempty"`
}

type exploreAxes struct {
	NumSM    []float64 `json:"num_sm,omitempty"`
	MACPerSM []float64 `json:"mac_per_sm,omitempty"`
	MemBW    []float64 `json:"mem_bw,omitempty"`
	SMLocal  []float64 `json:"sm_local,omitempty"`
}

// candidateResponse is one priced design point.
type candidateResponse struct {
	NumSM      float64 `json:"num_sm"`
	MACPerSM   float64 `json:"mac_per_sm"`
	MemBW      float64 `json:"mem_bw"`
	SMLocal    float64 `json:"sm_local"`
	Cost       float64 `json:"cost"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

type exploreResponse struct {
	Network    string              `json:"network"`
	Device     string              `json:"device"`
	Candidates []candidateResponse `json:"candidates"`
	Pareto     []candidateResponse `json:"pareto"`
	Cheapest   *candidateResponse  `json:"cheapest,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes v before it sends status: once the status is sent it
// is too late to report that v cannot be encoded, which answers a JSON 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; nobody is left to tell.
	_, _ = w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeOverloaded answers an overload refusal, from the in-flight gate or
// a job store full of running jobs: 503 with Retry-After.
func writeOverloaded(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

// bodyTimeout bounds reading one request body, so a client that sends
// its headers and then stalls cannot hold an in-flight slot: 30 s lets a
// maxBodyBytes body arrive at 35 KB/s. Tests shorten it.
var bodyTimeout = 30 * time.Second

// decodeBody strictly parses a bounded JSON request body, read within
// bodyTimeout.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	// A writer without deadline support (a handler test's recorder) reads
	// without one.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(bodyTimeout))
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		// The deadline must not outlive the body: the server's background
		// read would hit it and cancel a long request's context. A deadline
		// that fired stays, so answering never waits on the unread rest.
		_ = rc.SetReadDeadline(time.Time{})
	}
	return err
}

// bodyErrStatus maps a decodeBody failure to its status: a body past the
// request cap is 413 (the client sent too much, not something malformed),
// one that did not arrive within bodyTimeout is 408, everything else is a
// plain 400.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
}

// resolveDevice picks the request's device: an inline spec wins over a
// registry name; the default is the TITAN Xp baseline.
func resolveDevice(req estimateRequest) (delta.GPU, error) {
	if len(req.DeviceSpec) > 0 {
		return spec.ReadDevice(bytes.NewReader(req.DeviceSpec))
	}
	if req.Device != "" {
		return delta.DeviceByName(req.Device)
	}
	return delta.TitanXp(), nil
}

// resolveNetwork picks the request's workload: an inline spec layer list or
// a registered network name.
func resolveNetwork(req estimateRequest) (delta.Network, error) {
	switch {
	case len(req.Layers) > 0 && req.Network != "":
		return delta.Network{}, errors.New("specify either layers or network, not both")
	case len(req.Layers) > 0:
		return spec.ReadNetwork("request", bytes.NewReader(req.Layers))
	case req.Network != "":
		return delta.NetworkByName(req.Network, req.Batch)
	default:
		return delta.Network{}, errors.New("missing layers or network")
	}
}

// handleHealth is the readiness view: pipeline cache counters, job-store
// occupancy, and shedding saturation. A server whose job store is full of
// running jobs or whose in-flight gate is saturated answers 503 so load
// balancers drain it; the body carries the same detail either way.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	stats := s.p.Stats()
	stored, running := s.jobs.occupancy()
	jobsFull := running >= s.jobs.cfg.MaxJobs
	gateFull := s.inflight != nil && len(s.inflight) == cap(s.inflight)

	body := map[string]any{
		"status":       "ok",
		"cache_hits":   stats.Hits,
		"cache_misses": stats.Misses,
		"jobs": map[string]any{
			"stored":   stored,
			"running":  running,
			"capacity": s.jobs.cfg.MaxJobs,
			"evicted":  s.jobs.evictions(),
		},
	}
	if s.inflight != nil {
		body["in_flight"] = len(s.inflight)
		body["max_in_flight"] = cap(s.inflight)
	}
	// With -data-dir, surface WAL health.
	if d := s.jobs.durable; d != nil {
		ss := d.storeStats()
		body["durable"] = map[string]any{
			"wal_records":   ss.Records,
			"compactions":   ss.Compactions,
			"replayed_jobs": ss.ReplayedJobs,
			"torn_bytes":    ss.TornBytes,
		}
	}
	// In coordinator mode, probe the fleet: losing quorum (a majority of
	// workers unreachable or degraded) flips readiness so load balancers
	// stop routing sweeps to a coordinator that cannot spread them.
	quorumLost := false
	if s.coord != nil {
		sts := s.coord.PeerHealth(r.Context())
		quorumLost = !cluster.Quorum(sts)
		body["fleet"] = map[string]any{
			"peers":  sts,
			"quorum": !quorumLost,
		}
	}
	status := http.StatusOK
	if jobsFull || gateFull || quorumLost {
		body["status"] = "degraded"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *server) handleDevices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"devices": delta.DeviceNames()})
}

func (s *server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"networks": delta.NetworkNames()})
}

// handleEstimate answers POST /v1/estimate: an explicit spec layer list.
func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.estimate(w, r, false)
}

// handleNetwork answers POST /v1/network: a registered network by name.
func (s *server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	s.estimate(w, r, true)
}

// estimate answers the synchronous /v1 shapes by wrapping the request as a
// one-point scenario and streaming it to completion — the same path /v2
// jobs take, so the two APIs cannot drift. Responses are byte-identical to
// the pre-scenario implementation (asserted by the golden-parity tests).
func (s *server) estimate(w http.ResponseWriter, r *http.Request, named bool) {
	var req estimateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("parsing request: %w", err))
		return
	}
	if named && req.Network == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing network name"))
		return
	}
	if !named && len(req.Layers) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("missing layers"))
		return
	}
	dev, err := resolveDevice(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	net, err := resolveNetwork(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	model := orDefault(req.Model, delta.ScenarioModelDelta)
	// Mirror the pre-scenario pipeline semantics: miss_rate only
	// parameterizes the prior model and is ignored (not validated)
	// otherwise.
	missRate := 0.0
	if model == delta.ScenarioModelPrior {
		missRate = req.MissRate
	}
	sc := delta.Scenario{
		Name:      net.Name,
		Workloads: []delta.ScenarioWorkload{{Net: net}},
		Devices:   []delta.GPU{dev},
		Models:    []string{model},
		Passes:    []string{orDefault(req.Pass, delta.ScenarioPassInference)},
		MissRate:  missRate,
		Options:   []delta.TrafficOptions{req.Options.toModel()},
	}
	upds, err := s.p.RunScenario(r.Context(), sc)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, renderNetwork(upds[0].Network, net.Counts))
}

// renderNetwork converts a whole-network result into the /v1 (and /v2
// per-point) response shape. A nil counts vector means all ones.
func renderNetwork(nr delta.NetworkEvalResult, counts []int) estimateResponse {
	resp := estimateResponse{
		Network: nr.Net, Device: nr.Device,
		Model: string(nr.Model), Pass: string(nr.Pass),
		TotalSeconds: nr.Seconds,
	}
	for i, res := range nr.Results {
		count := 1
		if counts != nil {
			count = counts[i]
		}
		row := layerResponse{Name: res.Layer.Name, Count: count, Seconds: res.Seconds}
		switch {
		case res.Pass == delta.PassTraining:
			row.FpropSeconds = res.Training.Fprop.Seconds
			if !res.Training.SkipDgrad {
				row.DgradSeconds = res.Training.Dgrad.Seconds
			}
			row.WgradSeconds = res.Training.Wgrad.Seconds
			row.Bottleneck = res.Training.Fprop.Bottleneck.String()
		case res.Model == delta.ModelRoofline:
			row.Bound = res.Roofline.Bound.String()
			row.Intensity = res.Roofline.Intensity
		default:
			row.Cycles = res.Perf.Cycles
			row.Bottleneck = res.Perf.Bottleneck.String()
			row.Utilization = res.Perf.Utilization
			row.L1Bytes = res.Traffic.L1Bytes
			row.L2Bytes = res.Traffic.L2Bytes
			row.DRAMBytes = res.Traffic.DRAMBytes
		}
		resp.Layers = append(resp.Layers, row)
	}
	if nr.Bottlenecks != nil {
		resp.Bottlenecks = make(map[string]int, len(nr.Bottlenecks))
		for b, c := range nr.Bottlenecks {
			resp.Bottlenecks[b.String()] = c
		}
	}
	return resp
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// handleExplore answers POST /v1/explore: a priced design-space sweep.
// The pipeline's Explore is itself a scenario adapter (one workload across
// the base + scaled device axis), so this endpoint rides the same path.
func (s *server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("parsing request: %w", err))
		return
	}
	// The sweep always runs the delta model's inference pass; reject the
	// estimateRequest fields it would otherwise silently ignore.
	if req.Model != "" || req.Pass != "" || req.MissRate != 0 {
		writeError(w, http.StatusBadRequest,
			errors.New("explore always runs delta-model inference; model, pass, and miss_rate are not supported"))
		return
	}
	dev, err := resolveDevice(req.estimateRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	net, err := resolveNetwork(req.estimateRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	axes := delta.DefaultExploreAxes()
	if req.Axes != nil {
		axes = delta.ExploreAxes{
			NumSM: req.Axes.NumSM, MACPerSM: req.Axes.MACPerSM,
			MemBW: req.Axes.MemBW, SMLocal: req.Axes.SMLocal,
		}
	}
	cands, err := s.p.Explore(r.Context(),
		delta.ExploreWorkload{Net: net, Opt: req.Options.toModel()},
		dev, axes.Enumerate(), delta.DefaultCostModel())
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}

	toResp := func(cs []delta.ExploreCandidate) []candidateResponse {
		out := make([]candidateResponse, len(cs))
		for i, c := range cs {
			out[i] = candidateResponse{
				NumSM: orOne(c.Scale.NumSM), MACPerSM: orOne(c.Scale.MACPerSM),
				MemBW: orOne(c.Scale.DRAMBW), SMLocal: orOne(c.Scale.RegPerSM),
				Cost: c.Cost, Speedup: c.Speedup, Efficiency: c.Efficiency(),
			}
		}
		return out
	}
	resp := exploreResponse{
		Network: net.Name, Device: dev.Name,
		Candidates: toResp(cands),
		Pareto:     toResp(delta.ParetoFront(cands)),
	}
	if req.Target > 0 {
		if best, ok := delta.CheapestAtLeast(cands, req.Target); ok {
			c := toResp([]delta.ExploreCandidate{best})[0]
			resp.Cheapest = &c
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusFor maps evaluation failures: client-side cancellations surface as
// request timeouts, everything else is a bad request (the model rejects
// inputs, it does not fail internally).
func statusFor(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
}

func orOne(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}
