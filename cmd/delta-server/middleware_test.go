package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"delta"
)

// hardenedServer wires a full server with the given hardening config.
func hardenedServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	st := newJobStore(jobStoreConfig{})
	t.Cleanup(st.Close)
	ts := httptest.NewServer(newServerWith(delta.NewPipeline(), st, cfg))
	t.Cleanup(ts.Close)
	return ts
}

func testMetrics(t *testing.T) *serverMetrics {
	t.Helper()
	st := newJobStore(jobStoreConfig{})
	t.Cleanup(st.Close)
	return newServerMetrics(delta.NewPipeline(), st, nil)
}

// TestPanicRecovery: a panicking handler answers a JSON 500 (instead of a
// dropped connection), increments the panic counter, and is recorded as a
// 500 by the metrics middleware.
func TestPanicRecovery(t *testing.T) {
	m := testMetrics(t)
	h := chain(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}), withMetrics(m), withRecover(m, nil))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/network")
	if err != nil {
		t.Fatalf("connection dropped instead of a 500: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("500 body not JSON: %v", err)
	}
	if strings.Contains(e.Error, "kaboom") {
		t.Error("panic value leaked to the client")
	}
	if got := m.panics.Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if got := m.requests.With("/v1/network", "GET", "500").Value(); got != 1 {
		t.Errorf("requests{500} = %d, want 1", got)
	}
}

// TestPanicMidStream: a panic after the handler already started writing
// cannot send a JSON 500, but must still be counted and not kill the
// server for later requests.
func TestPanicMidStream(t *testing.T) {
	m := testMetrics(t)
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("partial"))
		panic("late")
	}), withMetrics(m), withRecover(m, nil))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if m.panics.Value() != 1 {
		t.Errorf("panics counter = %d, want 1", m.panics.Value())
	}
}

// TestInflightShed: a saturated in-flight gate answers 503 + Retry-After
// instead of queueing or dropping.
func TestInflightShed(t *testing.T) {
	m := testMetrics(t)
	g := make(gate, 1)
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), withShedding(m, g))
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	g <- struct{}{}
	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if m.shed.With("inflight").Value() != 1 {
		t.Errorf("shed{inflight} = %d, want 1", m.shed.With("inflight").Value())
	}
	<-g
	resp2, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-release status = %d, want 200", resp2.StatusCode)
	}
}

// TestInflightGateFullStack: with -max-inflight 1 and its slot held by a
// request whose body never arrives, data endpoints answer 503 with
// Retry-After, while /healthz reports the full gate as 503 "degraded",
// /metrics scrapes the shed counter and the gate gauges, and SSE streams
// still serve. Releasing the slot reopens the server.
func TestInflightGateFullStack(t *testing.T) {
	ts := hardenedServer(t, serverConfig{MaxInFlight: 1})
	sum := submitJob(t, ts, multiAxisJob)
	pr, pw := io.Pipe()
	defer pw.Close() // the server cannot close while the holder waits
	held := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", pr)
		if err == nil {
			resp.Body.Close()
		}
		held <- err
	}()

	type health struct {
		Status      string `json:"status"`
		InFlight    int    `json:"in_flight"`
		MaxInFlight int    `json:"max_in_flight"`
	}
	healthz := func() (int, health) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decoding /healthz: %v", err)
		}
		return resp.StatusCode, h
	}
	code, h := healthz()
	for deadline := time.Now().Add(10 * time.Second); h.InFlight != 1; code, h = healthz() {
		if time.Now().After(deadline) {
			t.Fatalf("holder never took the slot: /healthz = %d %+v", code, h)
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Errorf("503 body not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("saturated /v1/devices = %d, Retry-After %q; want 503, 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if e.Error != "server at concurrent-request capacity; retry later" {
		t.Errorf("503 error = %q", e.Error)
	}
	if code, h := healthz(); code != http.StatusServiceUnavailable || h.Status != "degraded" ||
		h.InFlight != 1 || h.MaxInFlight != 1 {
		t.Errorf("saturated /healthz = %d %+v, want 503 degraded with in_flight and max_in_flight 1", code, h)
	}

	// read returns the body of a 200 answer and fails the test on any other.
	read := func(resp *http.Response, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d, %v", resp.Request.URL.Path, resp.StatusCode, err)
		}
		return string(body)
	}
	// SSE streams live as long as their work, so the gate never holds them.
	for _, stream := range []string{
		read(http.Get(ts.URL + "/v2/jobs/" + sum.ID + "/events")),
		read(http.Post(ts.URL+"/v2/shards", "application/json", strings.NewReader(
			`{"scenario": {"workloads": [{"network": "alexnet"}]}, "offset": 0, "limit": 1}`))),
	} {
		if !strings.Contains(stream, "event: done") {
			t.Errorf("SSE stream while shedding ends without done: %q", stream)
		}
	}
	metrics := read(http.Get(ts.URL + "/metrics"))
	for _, want := range []string{
		"\n" + `delta_http_shed_total{reason="inflight"} 1` + "\n",
		"\ndelta_inflight_in_use 1\n",
		"\ndelta_inflight_capacity 1\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}

	pw.Close()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	read(http.Get(ts.URL + "/v1/devices"))
}

// TestStalledBodyFreesSlot: with -max-inflight 1, a request that sends
// its headers and then stalls its body answers 408 once bodyTimeout has
// passed and gives its slot back, though its client keeps the connection
// open: /healthz reads in_flight 0 and data endpoints answer again.
func TestStalledBodyFreesSlot(t *testing.T) {
	orig := bodyTimeout
	defer func() { bodyTimeout = orig }()
	bodyTimeout = 200 * time.Millisecond

	ts := hardenedServer(t, serverConfig{MaxInFlight: 1})
	pr, pw := io.Pipe()
	defer pw.Close() // never written: the body stalls until the test ends
	type answer struct {
		code int
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", pr)
		if err != nil {
			answered <- answer{err: err}
			return
		}
		resp.Body.Close()
		answered <- answer{code: resp.StatusCode}
	}()
	select {
	case a := <-answered:
		if a.err != nil || a.code != http.StatusRequestTimeout {
			t.Fatalf("stalled body answered %d, %v; want 408", a.code, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled body not answered within 5 s; it still holds its slot")
	}

	var h struct {
		InFlight int `json:"in_flight"`
	}
	if resp := postGet(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || h.InFlight != 0 {
		t.Errorf("/healthz after the 408 = %d, in_flight %d; want 200, 0", resp.StatusCode, h.InFlight)
	}
	if resp := postGet(t, ts.URL+"/v1/devices", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/devices after the 408 = %d, want 200", resp.StatusCode)
	}
}

// TestAuthToken: with -auth-token set, data endpoints demand the bearer
// token (constant-time compared) while /healthz and /metrics stay open.
func TestAuthToken(t *testing.T) {
	ts := hardenedServer(t, serverConfig{AuthToken: "s3cret"})

	get := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get("/v1/devices", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("missing token: status %d, want 401", resp.StatusCode)
	} else if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate")
	}
	if resp := get("/v1/devices", "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong token: status %d, want 401", resp.StatusCode)
	}
	if resp := get("/v1/devices", "s3cret"); resp.StatusCode != http.StatusOK {
		t.Errorf("right token: status %d, want 200", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp := get(path, ""); resp.StatusCode != http.StatusOK {
			t.Errorf("%s without token: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestMetricsEndpoint: /metrics renders the per-route counters, latency
// histograms, and the pipeline / job-store views after live traffic.
func TestMetricsEndpoint(t *testing.T) {
	ts := hardenedServer(t, serverConfig{})
	postJSON(t, ts.URL+"/v1/network", `{"network": "alexnet", "batch": 16}`, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`delta_http_requests_total{route="/v1/network",method="POST",code="200"} 1`,
		`delta_http_request_duration_seconds_bucket{route="/v1/network",le="+Inf"} 1`,
		"delta_http_in_flight_requests",
		"delta_pipeline_cache_misses_total",
		"delta_pipeline_cache_entries",
		"delta_scenario_points_total 1",
		"delta_jobs_stored 0",
		"delta_jobs_capacity 64",
		"delta_jobs_evicted_total 0",
		"# TYPE delta_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHealthReadiness: /healthz reports job-store occupancy and answers
// 503 when every slot is running.
func TestHealthReadiness(t *testing.T) {
	st := newJobStore(jobStoreConfig{MaxJobs: 1})
	t.Cleanup(st.Close)
	ts := httptest.NewServer(newServerWith(delta.NewPipeline(), st, serverConfig{}))
	t.Cleanup(ts.Close)

	var health struct {
		Status string `json:"status"`
		Jobs   struct {
			Stored, Running, Capacity int
		} `json:"jobs"`
	}
	resp := postGet(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("idle health = %d %+v", resp.StatusCode, health)
	}
	if health.Jobs.Capacity != 1 {
		t.Errorf("capacity = %d, want 1", health.Jobs.Capacity)
	}

	// Fill the single slot with a running job: the server is no longer
	// ready for new work and must say so.
	if _, err := st.submit("hog", 1, func(error) {}); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated health status = %d, want 503 (%s)", resp2.StatusCode, body)
	}
	if !strings.Contains(string(body), `"degraded"`) {
		t.Errorf("saturated health body = %s", body)
	}
}

// TestJobStoreFullRetryAfter: a submit against a store full of running
// jobs is an overload refusal like the in-flight gate's: 503 with
// Retry-After.
func TestJobStoreFullRetryAfter(t *testing.T) {
	st := newJobStore(jobStoreConfig{MaxJobs: 1})
	t.Cleanup(st.Close)
	ts := httptest.NewServer(newServerWith(delta.NewPipeline(), st, serverConfig{}))
	t.Cleanup(ts.Close)
	if _, err := st.submit("hog", 1, func(error) {}); err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v2/jobs", multiAxisJob, nil)
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("503 body not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("full-store submit = %d, Retry-After %q; want 503, 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestRequestID: responses carry an X-Request-ID; a client-supplied one is
// echoed back.
func TestRequestID(t *testing.T) {
	ts := hardenedServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no generated X-Request-ID")
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-chosen")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "client-chosen" {
		t.Errorf("X-Request-ID = %q, want the client's", got)
	}
}

// TestRouteLabel pins the cardinality-bounding path collapse.
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/healthz":            "/healthz",
		"/metrics":            "/metrics",
		"/v1/network":         "/v1/network",
		"/v2/jobs":            "/v2/jobs",
		"/v2/jobs/abc123":     "/v2/jobs/{id}",
		"/v2/jobs/abc/events": "/v2/jobs/{id}/events",
		"/v2/jobs/abc/bogus":  "/v2/jobs/{id}",
		"/nonsense":           "other",
		"/v1/bogus":           "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestSSEThroughMiddleware: the middleware stack must not break SSE
// streaming (statusWriter has to pass Flush through).
func TestSSEThroughMiddleware(t *testing.T) {
	ts := hardenedServer(t, serverConfig{SSEKeepAlive: time.Hour})
	sum := submitJob(t, ts, multiAxisJob)
	resp, err := http.Get(ts.URL + "/v2/jobs/" + sum.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(body), "event: result"); got != 8 {
		t.Errorf("streamed %d results through the middleware stack, want 8", got)
	}
}
