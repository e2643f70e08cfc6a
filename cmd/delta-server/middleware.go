// The delta-server middleware stack: request-ID injection, access logging,
// per-route metrics, panic recovery, load shedding (per-client token
// buckets + a global in-flight gate), and optional bearer-token auth.
// Every middleware is a plain func(http.Handler) http.Handler so the chain
// reads top to bottom in newServerWith and each layer is testable alone.
package main

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"delta"
	"delta/internal/obs"
	"delta/internal/ratelimit"
)

// middleware wraps a handler; chain applies a stack outermost-first.
type middleware func(http.Handler) http.Handler

func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// openPaths are reachable without auth and exempt from load shedding, so
// health probes and scrapes keep working while the server sheds traffic —
// exactly when their answers matter most.
func openPath(path string) bool {
	return path == "/healthz" || path == "/metrics"
}

// routeLabel collapses request paths onto a fixed route set so metric
// cardinality stays bounded no matter what paths clients probe.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/metrics", "/v1/devices", "/v1/networks",
		"/v1/estimate", "/v1/network", "/v1/explore", "/v2/jobs", "/v2/shards":
		return path
	}
	if rest, ok := strings.CutPrefix(path, "/v2/jobs/"); ok {
		if _, sub, _ := strings.Cut(rest, "/"); sub == "events" {
			return "/v2/jobs/{id}/events"
		}
		return "/v2/jobs/{id}"
	}
	return "other"
}

// Metric names are package-level constants by house rule (enforced by
// delta-vet's metrichygiene analyzer): one block to grep for the whole
// delta_ namespace, collision-proof at review time, and every name pinned
// to the delta_[a-z_]+ contract the dashboards and e2e scripts rely on.
const (
	metricHTTPRequests      = "delta_http_requests_total"
	metricHTTPDuration      = "delta_http_request_duration_seconds"
	metricHTTPInFlight      = "delta_http_in_flight_requests"
	metricHTTPPanics        = "delta_http_panics_total"
	metricHTTPShed          = "delta_http_shed_total"
	metricHTTPAuthFailures  = "delta_http_auth_failures_total"
	metricPipelineCacheHits = "delta_pipeline_cache_hits_total"
	metricPipelineCacheMiss = "delta_pipeline_cache_misses_total"
	metricPipelineEntries   = "delta_pipeline_cache_entries"
	metricScenarioPoints    = "delta_scenario_points_total"
	metricJobsStored        = "delta_jobs_stored"
	metricJobsRunning       = "delta_jobs_running"
	metricJobsCapacity      = "delta_jobs_capacity"
	metricJobsEvicted       = "delta_jobs_evicted_total"
	metricRatelimitClients  = "delta_ratelimit_clients"
	metricInflightInUse     = "delta_inflight_in_use"
	metricInflightCapacity  = "delta_inflight_capacity"
	metricOutboxDepth       = "delta_outbox_depth"
	metricOutboxCapacity    = "delta_outbox_capacity"
	metricOutboxPublished   = "delta_outbox_published_total"
	metricOutboxFlushed     = "delta_outbox_flushed_total"
	metricOutboxRetries     = "delta_outbox_retries_total"
	metricOutboxDeadLetters = "delta_outbox_dead_letters_total"
	metricOutboxOverflow    = "delta_outbox_overflow_total"
	metricWALRecords        = "delta_wal_records_total"
	metricWALCompactions    = "delta_wal_compactions_total"
	metricWALReplayedJobs   = "delta_wal_replayed_jobs"
	metricWALTornBytes      = "delta_wal_torn_bytes"
	metricClusterPeers      = "delta_cluster_peers"
)

// serverMetrics is the delta-server metric set, registered once per server
// on a private obs.Registry (scraped at GET /metrics).
type serverMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec   // route, method, code
	latency  *obs.HistogramVec // route
	inFlight *obs.Gauge
	panics   *obs.Counter
	shed     *obs.CounterVec // reason: rate | inflight
	authFail *obs.Counter
}

// newServerMetrics registers the request-level metrics plus the func-backed
// views over the pipeline, the job store, and the shedding primitives.
func newServerMetrics(p *delta.Pipeline, jobs *jobStore, lim *ratelimit.Limiter, gate *ratelimit.Gate) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec(metricHTTPRequests,
			"HTTP requests by route, method, and status code.",
			"route", "method", "code"),
		latency: reg.HistogramVec(metricHTTPDuration,
			"HTTP request latency by route.", obs.DefBuckets, "route"),
		inFlight: reg.Gauge(metricHTTPInFlight,
			"HTTP requests currently being served."),
		panics: reg.Counter(metricHTTPPanics,
			"Handler panics recovered into JSON 500 responses."),
		shed: reg.CounterVec(metricHTTPShed,
			"Requests shed by load limiting, by reason (rate, inflight).",
			"reason"),
		authFail: reg.Counter(metricHTTPAuthFailures,
			"Requests rejected with 401 by bearer-token auth."),
	}
	reg.CounterFunc(metricPipelineCacheHits,
		"Pipeline simulation memo hits (analytical requests are not memoized).",
		func() float64 { return float64(p.Stats().Hits) })
	reg.CounterFunc(metricPipelineCacheMiss,
		"Pipeline simulation memo misses: engine runs (analytical requests are not memoized).",
		func() float64 { return float64(p.Stats().Misses) })
	reg.GaugeFunc(metricPipelineEntries,
		"Pipeline simulation memo occupancy (entries).",
		func() float64 { return float64(p.Stats().Entries) })
	reg.CounterFunc(metricScenarioPoints,
		"Scenario points evaluated by the pipeline (memo hits included).",
		func() float64 { return float64(p.Stats().ScenarioPoints) })
	reg.GaugeFunc(metricJobsStored,
		"Jobs held in the /v2 job store.",
		func() float64 { stored, _ := jobs.occupancy(); return float64(stored) })
	reg.GaugeFunc(metricJobsRunning,
		"Jobs in the /v2 store still running.",
		func() float64 { _, running := jobs.occupancy(); return float64(running) })
	reg.GaugeFunc(metricJobsCapacity,
		"Configured /v2 job store capacity.",
		func() float64 { return float64(jobs.cfg.MaxJobs) })
	reg.CounterFunc(metricJobsEvicted,
		"Finished jobs evicted from the /v2 store (TTL or capacity).",
		func() float64 { return float64(jobs.evictions()) })
	if lim != nil {
		reg.GaugeFunc(metricRatelimitClients,
			"Client buckets tracked by the rate limiter.",
			func() float64 { return float64(lim.Clients()) })
	}
	if gate != nil {
		reg.GaugeFunc(metricInflightInUse,
			"Global in-flight gate slots in use.",
			func() float64 { return float64(gate.InFlight()) })
		reg.GaugeFunc(metricInflightCapacity,
			"Global in-flight gate capacity.",
			func() float64 { return float64(gate.Cap()) })
	}
	if d := jobs.durable; d != nil {
		// Durable-mode metrics (-data-dir): the outbox set reads zero when
		// no sink is configured, keeping the scrape shape stable.
		reg.GaugeFunc(metricOutboxDepth,
			"Result-sink outbox occupancy (events queued for flush).",
			func() float64 { return float64(d.outboxStats().Depth) })
		reg.GaugeFunc(metricOutboxCapacity,
			"Result-sink outbox queue capacity.",
			func() float64 { return float64(d.outboxStats().Capacity) })
		reg.CounterFunc(metricOutboxPublished,
			"Events accepted into the result-sink outbox.",
			func() float64 { return float64(d.outboxStats().Published) })
		reg.CounterFunc(metricOutboxFlushed,
			"Events successfully flushed to the result sink.",
			func() float64 { return float64(d.outboxStats().Flushed) })
		reg.CounterFunc(metricOutboxRetries,
			"Result-sink flush attempts that failed and were retried.",
			func() float64 { return float64(d.outboxStats().Retries) })
		reg.CounterFunc(metricOutboxDeadLetters,
			"Events spilled to the dead-letter file after exhausting retries.",
			func() float64 { return float64(d.outboxStats().DeadLetters) })
		reg.CounterFunc(metricOutboxOverflow,
			"Events dead-lettered immediately because the outbox was full.",
			func() float64 { return float64(d.outboxStats().Overflow) })
		reg.CounterFunc(metricWALRecords,
			"Records appended to the durable job WAL.",
			func() float64 { return float64(d.storeStats().Records) })
		reg.CounterFunc(metricWALCompactions,
			"Durable-store snapshot compactions.",
			func() float64 { return float64(d.storeStats().Compactions) })
		reg.GaugeFunc(metricWALReplayedJobs,
			"Jobs recovered from the durable store at startup.",
			func() float64 { return float64(d.storeStats().ReplayedJobs) })
		reg.GaugeFunc(metricWALTornBytes,
			"Bytes dropped from the WAL's torn/corrupt tail at startup.",
			func() float64 { return float64(d.storeStats().TornBytes) })
	}
	return m
}

// statusWriter records the response status for logging and metrics while
// passing Flush through, so the SSE handler keeps streaming through the
// middleware stack.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withRequestID tags every request with an X-Request-ID (the client's, or
// a fresh one), echoed on the response and carried on the request headers
// for the access log.
func withRequestID() middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Request-ID")
			if id == "" || len(id) > 128 {
				var b [8]byte
				if _, err := rand.Read(b[:]); err == nil {
					id = hex.EncodeToString(b[:])
				} else {
					id = "unknown"
				}
				r.Header.Set("X-Request-ID", id)
			}
			w.Header().Set("X-Request-ID", id)
			next.ServeHTTP(w, r)
		})
	}
}

// withAccessLog writes one line per request: method, path, status,
// duration, request id, client. A nil logger disables logging (tests).
func withAccessLog(logger *log.Logger) middleware {
	return func(next http.Handler) http.Handler {
		if logger == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			logger.Printf("%s %s %d %s id=%s client=%s",
				r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond),
				r.Header.Get("X-Request-ID"), clientIP(r))
		})
	}
}

// methodLabel collapses the request method onto the known set so the
// method label stays bounded: Go's server accepts any token as a method,
// and a client sending junk methods must not mint unbounded label values.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut,
		http.MethodPatch, http.MethodDelete, http.MethodConnect,
		http.MethodOptions, http.MethodTrace:
		return method
	}
	return "other"
}

// withMetrics records per-route request counts, latencies, and the
// in-flight gauge. It sits outside recovery and shedding so 500s and 429s
// are counted like every other response.
func withMetrics(m *serverMetrics) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			route := routeLabel(r.URL.Path)
			method := methodLabel(r.Method)
			m.inFlight.Inc()
			start := time.Now()
			defer func() {
				m.inFlight.Dec()
				if sw.status == 0 {
					sw.status = http.StatusOK
				}
				m.latency.With(route).Observe(time.Since(start).Seconds())
				m.requests.With(route, method, strconv.Itoa(sw.status)).Inc()
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// withRecover converts a handler panic into a JSON 500 (instead of a
// dropped connection) and counts it. http.ErrAbortHandler keeps its
// contract: the connection is torn down without a reply.
func withRecover(m *serverMetrics, logger *log.Logger) middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(rec)
				}
				m.panics.Inc()
				if logger != nil {
					logger.Printf("panic serving %s %s id=%s: %v\n%s",
						r.Method, r.URL.Path, r.Header.Get("X-Request-ID"), rec, debug.Stack())
				}
				// Headers may already be gone mid-stream; then the bare
				// 500 status line is all that can still be salvaged.
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError,
						fmt.Errorf("internal error (request %s)", r.Header.Get("X-Request-ID")))
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// withShedding enforces the per-client token buckets (429 + Retry-After)
// and the global in-flight gate (503 + Retry-After). /healthz and /metrics
// stay open so probes and scrapes survive overload.
func withShedding(m *serverMetrics, lim *ratelimit.Limiter, gate *ratelimit.Gate) middleware {
	return func(next http.Handler) http.Handler {
		if lim == nil && gate == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if openPath(r.URL.Path) {
				next.ServeHTTP(w, r)
				return
			}
			if lim != nil {
				if ok, retry := lim.Allow(clientIP(r)); !ok {
					m.shed.With("rate").Inc()
					w.Header().Set("Retry-After", retryAfterSeconds(retry))
					writeError(w, http.StatusTooManyRequests,
						errors.New("rate limit exceeded; retry later"))
					return
				}
			}
			// SSE streams — job event subscriptions and shard result
			// streams — live as long as their work and would pin gate
			// slots indefinitely (a handful of idle subscribers must not
			// 503 the whole server); they are rate-limited above but
			// exempt from the in-flight cap, which guards compute-bound
			// request handling.
			if route := routeLabel(r.URL.Path); route == "/v2/jobs/{id}/events" || route == "/v2/shards" {
				next.ServeHTTP(w, r)
				return
			}
			if !gate.TryAcquire() {
				m.shed.With("inflight").Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable,
					errors.New("server at concurrent-request capacity; retry later"))
				return
			}
			defer gate.Release()
			next.ServeHTTP(w, r)
		})
	}
}

// withAuth enforces a static bearer token when one is configured; the open
// paths stay reachable for probes and scrapes.
func withAuth(m *serverMetrics, token string) middleware {
	return func(next http.Handler) http.Handler {
		if token == "" {
			return next
		}
		want := []byte(token)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if openPath(r.URL.Path) {
				next.ServeHTTP(w, r)
				return
			}
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(got), want) != 1 {
				m.authFail.Inc()
				w.Header().Set("WWW-Authenticate", `Bearer realm="delta-server"`)
				writeError(w, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

// clientIP is the rate-limit key: the connection's remote IP (the port
// would make every request a distinct client).
func clientIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a Retry-After value, rounding up so clients
// never retry before a token is actually available.
func retryAfterSeconds(d time.Duration) string {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}
