package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"delta"
	"delta/internal/sse"
)

// jobTestServer wires a server with a controllable job store.
func jobTestServer(t *testing.T, cfg jobStoreConfig) (*httptest.Server, *jobStore) {
	t.Helper()
	st := newJobStore(cfg)
	t.Cleanup(st.Close)
	ts := httptest.NewServer(newServerWithJobs(delta.NewPipeline(), st))
	t.Cleanup(ts.Close)
	return ts, st
}

// submitJob posts a scenario and decodes the 202 summary.
func submitJob(t *testing.T, ts *httptest.Server, body string) jobSummary {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v2/jobs", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var sum jobSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// jobView is the test-side reading of GET /v2/jobs/{id}: the summary,
// each result as served, and the same results decoded.
type jobView struct {
	jobSummary
	Raw     []json.RawMessage `json:"results"`
	Results []pointResult     `json:"-"`
}

// pollJob polls until the job leaves the running state.
func pollJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var jr jobView
		resp := postGet(t, ts.URL+"/v2/jobs/"+id, &jr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if jr.Status != string(jobRunning) {
			jr.Results = make([]pointResult, len(jr.Raw))
			for i, raw := range jr.Raw {
				if err := json.Unmarshal(raw, &jr.Results[i]); err != nil {
					t.Fatalf("result %d: %v", i, err)
				}
			}
			return jr
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return jobView{}
}

// sameResults reports whether two jobs' results are the same bytes.
func sameResults(a, b []json.RawMessage) bool {
	return slices.EqualFunc(a, b, func(x, y json.RawMessage) bool { return bytes.Equal(x, y) })
}

// jobEvents reads a finished job's whole /events stream.
func jobEvents(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp := postGet(t, ts.URL+"/v2/jobs/"+id+"/events", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postGet(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

const multiAxisJob = `{"scenario": {
  "name": "acceptance",
  "workloads": [{"network": "alexnet"}, {"network": "googlenet"}],
  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
  "batches": [16],
  "models": ["delta", "prior"]
}}`

// TestJobLifecycle submits the acceptance-criteria scenario (2 networks ×
// 2 devices × 2 models), polls to completion, and checks ordering,
// progress, and result contents.
func TestJobLifecycle(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	sum := submitJob(t, ts, multiAxisJob)
	if sum.ID == "" || sum.Total != 8 || sum.Status != string(jobRunning) {
		t.Fatalf("summary = %+v", sum)
	}
	jr := pollJob(t, ts, sum.ID)
	if jr.Status != string(jobDone) {
		t.Fatalf("status = %s (err %q)", jr.Status, jr.Error)
	}
	if jr.Done != 8 || len(jr.Results) != 8 {
		t.Fatalf("done = %d, results = %d", jr.Done, len(jr.Results))
	}
	for i, res := range jr.Results {
		if res.Index != i {
			t.Errorf("result %d has index %d (out of order)", i, res.Index)
		}
		if res.Done != i+1 || res.Total != 8 {
			t.Errorf("result %d progress = %d/%d", i, res.Done, res.Total)
		}
		if res.Error != "" || res.Result == nil || res.Result.TotalSeconds <= 0 {
			t.Errorf("result %d missing payload: %+v", i, res)
		}
	}
	// Spot-check v1/v2 parity: the (alexnet, delta, TITAN Xp) point must
	// match the synchronous /v1/network answer field for field.
	var v1 estimateResponse
	resp := postJSON(t, ts.URL+"/v1/network", `{"network": "alexnet", "batch": 16, "device": "TITAN Xp"}`, &v1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 status = %d", resp.StatusCode)
	}
	v2 := jr.Results[0].Result
	if v2.TotalSeconds != v1.TotalSeconds || len(v2.Layers) != len(v1.Layers) {
		t.Errorf("v2 point diverges from v1: %v vs %v", v2.TotalSeconds, v1.TotalSeconds)
	}
	for i := range v1.Layers {
		if v2.Layers[i] != v1.Layers[i] {
			t.Errorf("layer %d: v2 %+v, v1 %+v", i, v2.Layers[i], v1.Layers[i])
		}
	}

	// A second identical submission recomputes to the same results.
	sum2 := submitJob(t, ts, multiAxisJob)
	jr2 := pollJob(t, ts, sum2.ID)
	if jr2.Status != string(jobDone) || len(jr2.Results) != 8 {
		t.Fatalf("repeat job = %+v", jr2.jobSummary)
	}
	for i := range jr.Results {
		if jr2.Results[i].Result.TotalSeconds != jr.Results[i].Result.TotalSeconds {
			t.Errorf("repeat job result %d diverged", i)
		}
	}
}

// TestJobEventsSSE streams a job's results over SSE and checks frame
// structure, ordering, and the terminal done event.
func TestJobEventsSSE(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	sum := submitJob(t, ts, multiAxisJob)

	resp, err := http.Get(ts.URL + "/v2/jobs/" + sum.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var events []sse.Event
	if err := sse.Parse(resp.Body, func(ev sse.Event) error {
		events = append(events, ev)
		if ev.Type == "done" {
			return sse.Stop
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 9 { // 8 results + done
		t.Fatalf("events = %v", events)
	}
	for i := 0; i < 8; i++ {
		if events[i].Type != "result" {
			t.Errorf("event %d = %q", i, events[i].Type)
		}
		var res pointResult
		if err := json.Unmarshal(events[i].Data, &res); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if res.Index != i {
			t.Errorf("frame %d has index %d (out of order)", i, res.Index)
		}
	}
	var done struct {
		Status string `json:"status"`
		Done   int    `json:"done"`
		Total  int    `json:"total"`
	}
	if err := json.Unmarshal(events[8].Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Status != "done" || done.Done != 8 || done.Total != 8 {
		t.Errorf("done frame = %+v", done)
	}
}

// TestJobEventsWire pins the exact bytes of /v2/jobs/{id}/events: result
// frames carry dense ids counted from the resume point, and the done
// frame carries the result count as its id. Three streams: fresh, resumed
// with Last-Event-ID 3, and resumed past the results so far, where ids
// continue from the result count.
func TestJobEventsWire(t *testing.T) {
	ts, st := jobTestServer(t, jobStoreConfig{})
	point := func(i int) json.RawMessage {
		buf, err := json.Marshal(pointResult{Index: i, Workload: "w", Device: "d", Kind: "analytic", Done: i + 1, Total: 4})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	frame := func(i int) string {
		return fmt.Sprintf("id: %d\nevent: result\ndata: {\"index\":%d,\"workload\":\"w\",\"device\":\"d\",\"kind\":\"analytic\",\"done\":%d,\"total\":4}\n\n", i+1, i, i+1)
	}
	const done = "id: 4\nevent: done\ndata: {\"done\":4,\"error\":\"\",\"status\":\"done\",\"total\":4}\n\n"
	newJob := func(results int) *job {
		_, cancel := context.WithCancelCause(st.base)
		t.Cleanup(func() { cancel(nil) })
		j, err := st.submit("wire", 4, cancel)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < results; i++ {
			j.append(point(i))
		}
		return j
	}
	// stream reads one event stream to its end; then runs once the
	// response headers are in, which the server sends with the first
	// flushed batch, after the stream's first snapshot.
	stream := func(j *job, lastEventID string, then func()) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v2/jobs/"+j.id+"/events", nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		for k, v := range map[string]string{
			"Content-Type": "text/event-stream", "Cache-Control": "no-cache", "X-Accel-Buffering": "no",
		} {
			if got := resp.Header.Get(k); got != v {
				t.Errorf("%s = %q, want %q", k, got, v)
			}
		}
		if then != nil {
			then()
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	finished := newJob(4)
	finished.finish(jobDone, "", st.cfg.now())
	if got, want := stream(finished, "", nil), frame(0)+frame(1)+frame(2)+frame(3)+done; got != want {
		t.Errorf("fresh stream:\n%q\nwant\n%q", got, want)
	}
	if got, want := stream(finished, "3", nil), frame(3)+done; got != want {
		t.Errorf("Last-Event-ID 3:\n%q\nwant\n%q", got, want)
	}
	running := newJob(2)
	got := stream(running, "9", func() {
		running.append(point(2))
		running.append(point(3))
		running.finish(jobDone, "", st.cfg.now())
	})
	if want := frame(2) + frame(3) + done; got != want {
		t.Errorf("Last-Event-ID 9 with 2 results:\n%q\nwant\n%q", got, want)
	}
}

// TestJobCollectPartial: a sweep with one failing point finishes done
// under collect_partial, with the failure recorded per point.
func TestJobCollectPartial(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	body := `{"error_policy": "collect_partial", "scenario": {
	  "workloads": [
	    {"name": "bad", "layers": [
	      {"name": "ok", "ci": 8, "hi": 12, "co": 8, "hf": 3, "pad": 1, "b": 4},
	      {"name": "rect", "ci": 8, "hi": 12, "wi": 12, "co": 8, "hf": 3, "wf": 5, "pad": 2, "b": 4}
	    ]},
	    {"network": "alexnet"}
	  ],
	  "batches": [8],
	  "passes": ["training"]
	}}`
	sum := submitJob(t, ts, body)
	jr := pollJob(t, ts, sum.ID)
	if jr.Status != string(jobDone) {
		t.Fatalf("status = %s (%s)", jr.Status, jr.Error)
	}
	if len(jr.Results) != 2 {
		t.Fatalf("results = %d", len(jr.Results))
	}
	if jr.Results[0].Error == "" || jr.Results[1].Error != "" {
		t.Errorf("per-point errors = %q, %q", jr.Results[0].Error, jr.Results[1].Error)
	}
}

// TestJobFailFast: the same sweep under the default policy fails the job.
func TestJobFailFast(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	body := `{"scenario": {
	  "workloads": [
	    {"name": "bad", "layers": [
	      {"name": "ok", "ci": 8, "hi": 12, "co": 8, "hf": 3, "pad": 1, "b": 4},
	      {"name": "rect", "ci": 8, "hi": 12, "wi": 12, "co": 8, "hf": 3, "wf": 5, "pad": 2, "b": 4}
	    ]},
	    {"network": "alexnet"}
	  ],
	  "batches": [8],
	  "passes": ["training"]
	}}`
	sum := submitJob(t, ts, body)
	jr := pollJob(t, ts, sum.ID)
	if jr.Status != string(jobFailed) || !strings.Contains(jr.Error, "non-square") {
		t.Fatalf("status = %s, err = %q", jr.Status, jr.Error)
	}
	if len(jr.Results) != 1 {
		t.Errorf("fail-fast stored %d results", len(jr.Results))
	}
}

// TestNonFinitePrediction: a device that passes validation but overflows
// the model is an error, never an empty 200. The fail-fast job ends
// failed with the point's error and serves well-formed GET and SSE, and
// /v1/estimate answers 400 with a JSON error.
func TestNonFinitePrediction(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	const dev = `{"base": "V100", "mac_gflops": 1e-300}`
	jr := pollJob(t, ts, submitJob(t, ts, `{"scenario": {"workloads": [{"network": "alexnet"}], "devices": [{"spec": `+dev+`}]}}`).ID)
	if jr.Status != string(jobFailed) || !strings.Contains(jr.Error, "not finite") ||
		len(jr.Results) != 1 || jr.Results[0].Error != jr.Error {
		t.Fatalf("job = %+v, results %+v", jr.jobSummary, jr.Results)
	}
	var events []sse.Event
	if err := sse.Parse(strings.NewReader(jobEvents(t, ts, jr.ID)), func(ev sse.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var done struct{ Status, Error string }
	if len(events) != 2 || events[0].Type != "result" || events[1].Type != "done" ||
		json.Unmarshal(events[1].Data, &done) != nil || done.Status != string(jobFailed) || done.Error != jr.Error {
		t.Errorf("event stream = %q", events)
	}

	resp := postJSON(t, ts.URL+"/v1/estimate", `{"device_spec": `+dev+`,
	  "layers": [{"name": "c", "b": 32, "ci": 96, "hi": 27, "co": 256, "hf": 5, "pad": 2}]}`, nil)
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(e.Error, `layer "c"`) || !strings.Contains(e.Error, "not finite") {
		t.Errorf("/v1/estimate: status %d, error %q (%v)", resp.StatusCode, e.Error, err)
	}
}

// TestJobSimScenario runs a simulation sweep through /v2.
func TestJobSimScenario(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	body := `{"scenario": {
	  "workloads": [{"name": "mini", "layers": [{"ci": 8, "hi": 8, "co": 16, "hf": 3, "pad": 1, "b": 1}]}],
	  "sim_configs": [{"max_waves": 1}]
	}}`
	sum := submitJob(t, ts, body)
	jr := pollJob(t, ts, sum.ID)
	if jr.Status != string(jobDone) || len(jr.Results) != 1 {
		t.Fatalf("job = %+v", jr.jobSummary)
	}
	res := jr.Results[0]
	if res.Kind != "sim" || len(res.Sim) != 1 || res.Sim[0].DRAMBytes <= 0 {
		t.Errorf("sim result = %+v", res)
	}
}

// TestJobBadRequests covers the submission rejection paths.
func TestJobBadRequests(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	cases := []struct{ body, want string }{
		{`{`, "parsing request"},
		{`{}`, "missing scenario"},
		{`{"scenario": {"workloads": []}}`, "no workloads"},
		{`{"scenario": {"workloads": [{"network": "skynet"}]}}`, "skynet"},
		{`{"scenario": {"workloads": [{"network": "alexnet"}]}, "error_policy": "explode"}`, "error_policy"},
		{`{"scenario": {"workloads": [{"network": "alexnet"}], "sim_configs": [{"replay_partitions": 2}]}}`, "replay_partitions"},
		// Cache geometries the simulator cannot build: a 400 at submit,
		// not a 202 followed by a crash in the pipeline goroutine.
		{`{"scenario": {"workloads": [{"network": "alexnet"}], "sim_configs": [{"l2_ways": 100000}]}}`, "L2"},
		{`{"scenario": {"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", "name": "tiny", "l2_size_mb": 0.001}}], "sim_configs": [{}]}}`, "L2"},
		{`{"scenario": {"workloads": [{"network": "alexnet"}], "sim_configs": [{"l1_ways": -1}]}}`, "L1"},
		// An L1 request narrower than a sector once answered 202 and then
		// killed the process with a divide by zero in the coalescer.
		{`{"scenario":{"name":"x","workloads":[{"network":"alexnet"}],"devices":[{"spec":{"base":"TITAN Xp","l1_req_bytes":16}}],"batches":[1],"sim_configs":[{}]}}`, "request 16B"},
	}
	// Devices whose caches would ask the simulator for unbounded memory:
	// a 400 from both the job and the worker endpoint, not an allocation
	// that takes the host down.
	for _, field := range []string{`"l2_size_mb": 1048576`, `"num_sm": 100000000`, `"l1_size_kb_per_sm": 1e9`} {
		sc := `{"workloads": [{"network": "alexnet"}], "devices": [{"spec": {"base": "V100", ` + field + `}}], "sim_configs": [{}]}`
		cases = append(cases, struct{ body, want string }{`{"scenario": ` + sc + `}`, "cache lines"})
		resp := postJSON(t, ts.URL+"/v2/shards", `{"scenario": `+sc+`, "offset": 0, "limit": 1}`, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/v2/shards with %s: status %d, want 400", field, resp.StatusCode)
		}
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v2/jobs", tc.body, nil)
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%q: %v", tc.body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%q: status %d, err %q (want %q)", tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	if resp := postGet(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after bad submits: status %d", resp.StatusCode)
	}
	resp := postGet(t, ts.URL+"/v2/jobs/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing job: status %d", resp.StatusCode)
	}
	resp = postGet(t, ts.URL+"/v2/jobs/nope/bogus", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET bogus resource: status %d", resp.StatusCode)
	}
}

// TestJobDeleteCancels: DELETE removes the job and cancels its context.
func TestJobDeleteCancels(t *testing.T) {
	ts, st := jobTestServer(t, jobStoreConfig{})
	sum := submitJob(t, ts, multiAxisJob)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+sum.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if _, ok := st.get(sum.ID); ok {
		t.Error("job still stored after delete")
	}
	resp2 := postGet(t, ts.URL+"/v2/jobs/"+sum.ID, nil)
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("deleted job still answers %d", resp2.StatusCode)
	}
}

// TestJobStoreBounds: the store evicts finished jobs past TTL, evicts the
// oldest finished job at capacity, and rejects when every slot is running.
func TestJobStoreBounds(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := jobStoreConfig{MaxJobs: 2, TTL: time.Minute, now: func() time.Time { return now }}
	st := newJobStore(cfg)
	defer st.Close()

	j1, err := st.submit("a", 1, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	j1.finish(jobDone, "", now)
	j2, err := st.submit("b", 1, func(error) {})
	if err != nil {
		t.Fatal(err)
	}

	// Store full, j1 finished: a third submit evicts j1.
	j3, err := st.submit("c", 1, func(error) {})
	if err != nil {
		t.Fatalf("submit at capacity with evictable job: %v", err)
	}
	if _, ok := st.get(j1.id); ok {
		t.Error("oldest finished job not evicted at capacity")
	}

	// Both running: reject.
	if _, err := st.submit("d", 1, func(error) {}); err == nil {
		t.Error("submit with all slots running should fail")
	}

	// TTL expiry: finish both, advance past TTL, submit sweeps them out.
	j2.finish(jobDone, "", now)
	j3.finish(jobFailed, "boom", now)
	now = now.Add(2 * time.Minute)
	if _, err := st.submit("e", 1, func(error) {}); err != nil {
		t.Fatalf("submit after TTL: %v", err)
	}
	if _, ok := st.get(j2.id); ok {
		t.Error("TTL-expired job still stored")
	}
	if _, ok := st.get(j3.id); ok {
		t.Error("TTL-expired failed job still stored")
	}
}

// TestJobStoreShutdown: closing the store cancels running jobs' contexts.
func TestJobStoreShutdown(t *testing.T) {
	st := newJobStore(jobStoreConfig{})
	ctx, cancel := context.WithCancel(st.base)
	defer cancel()
	st.Close()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Error("store close did not cancel job context")
	}
}

// TestMethodNotAllowed: every endpoint answers wrong methods with a JSON
// 405 naming the allowed set in the Allow header.
func TestMethodNotAllowed(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	sum := submitJob(t, ts, multiAxisJob)
	cases := []struct {
		method, path string
		wantAllow    string
	}{
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodDelete, "/healthz", "GET"},
		{http.MethodPost, "/v1/devices", "GET"},
		{http.MethodPost, "/v1/networks", "GET"},
		{http.MethodGet, "/v1/estimate", "POST"},
		{http.MethodPut, "/v1/estimate", "POST"},
		{http.MethodGet, "/v1/network", "POST"},
		{http.MethodGet, "/v1/explore", "POST"},
		{http.MethodDelete, "/v2/jobs", "GET, POST"},
		{http.MethodPost, "/v2/jobs/" + sum.ID, "DELETE, GET"},
		{http.MethodPost, "/v2/jobs/" + sum.ID + "/events", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.wantAllow)
		}
		if decErr != nil || e.Error == "" {
			t.Errorf("%s %s: 405 body malformed (%v)", tc.method, tc.path, decErr)
		}
	}
}

// TestOversizeBodyRejected: every body-reading endpoint rejects payloads
// over the request cap with 413 (not a generic 400) instead of buffering
// them.
func TestOversizeBodyRejected(t *testing.T) {
	ts, _ := jobTestServer(t, jobStoreConfig{})
	huge := fmt.Sprintf(`{"network": "alexnet", "batch": 16, "device": %q}`,
		strings.Repeat("x", maxBodyBytes+1024))
	for _, path := range []string{"/v1/estimate", "/v1/network", "/v1/explore", "/v2/jobs"} {
		resp := postJSON(t, ts.URL+path, huge, nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversize: status %d, want 413", path, resp.StatusCode)
		}
	}
	// A merely malformed (not oversized) body still answers 400.
	resp := postJSON(t, ts.URL+"/v1/network", `{`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestRunJobCancelRace: a cancellation landing after the final stream
// update must classify the job as cancelled (from the cancellation cause),
// not report it "done" because the update count reached the total.
func TestRunJobCancelRace(t *testing.T) {
	st := newJobStore(jobStoreConfig{})
	defer st.Close()
	ctx, cancel := context.WithCancelCause(st.base)
	j, err := st.submit("race", 2, cancel)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan delta.StreamUpdate, 2)
	ch <- delta.StreamUpdate{Done: 1, Total: 2}
	ch <- delta.StreamUpdate{Done: 2, Total: 2}
	cancel(errJobDeleted) // DELETE racing in after the last update
	close(ch)

	s := &server{jobs: st}
	st.runners.Add(1)
	s.runJob(ctx, j, ch, delta.StreamFailFast)
	status, errMsg, _, done, _ := j.snapshot(0)
	if status != jobCancelled {
		t.Errorf("status = %s, want cancelled", status)
	}
	if !strings.Contains(errMsg, "cancelled by client") {
		t.Errorf("error = %q, want the DELETE cause", errMsg)
	}
	if done != 2 {
		t.Errorf("done = %d, want 2 (results kept)", done)
	}
}

// TestJobDeleteDuringRunReportsCancelled: the HTTP-level DELETE-vs-
// completion race. Whatever the timing, the terminal state must be
// consistent: either the runner classified "done" strictly before the
// cancel landed (all results present), or the job reads cancelled with
// the client cause — never "done" with a cancellation observed.
func TestJobDeleteDuringRunReportsCancelled(t *testing.T) {
	ts, st := jobTestServer(t, jobStoreConfig{})
	sum := submitJob(t, ts, multiAxisJob)
	j, ok := st.get(sum.ID)
	if !ok {
		t.Fatal("submitted job not in store")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+sum.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		status, errMsg, _, done, _ := j.snapshot(0)
		if status != jobRunning {
			switch status {
			case jobDone:
				// Legitimate only when the sweep fully completed before
				// the cancel was observed.
				if done != sum.Total {
					t.Errorf("done status with %d/%d results after DELETE", done, sum.Total)
				}
			case jobCancelled:
				if !strings.Contains(errMsg, "cancelled by client") {
					t.Errorf("cancelled with cause %q, want the DELETE cause", errMsg)
				}
			default:
				t.Errorf("status = %s after DELETE", status)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job never left running state after DELETE")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobEventsKeepAlive: an idle SSE stream emits comment frames at the
// configured interval (so proxies see traffic) and the proxy-buffering
// opt-out header.
func TestJobEventsKeepAlive(t *testing.T) {
	st := newJobStore(jobStoreConfig{})
	t.Cleanup(st.Close)
	ts := httptest.NewServer(newServerWith(delta.NewPipeline(), st,
		serverConfig{SSEKeepAlive: 20 * time.Millisecond}))
	t.Cleanup(ts.Close)

	// A registered job that never produces updates: the stream idles.
	ctx, cancel := context.WithCancelCause(st.base)
	defer cancel(nil)
	_ = ctx
	j, err := st.submit("idle", 1, cancel)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v2/jobs/" + j.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Accel-Buffering"); got != "no" {
		t.Errorf("X-Accel-Buffering = %q, want no", got)
	}
	reader := bufio.NewReader(resp.Body)
	deadline := time.After(5 * time.Second)
	lines := make(chan string, 16)
	go func() {
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- line
		}
	}()
	seen := 0
	for seen < 2 {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before keep-alives arrived")
			}
			if strings.HasPrefix(line, ": keep-alive") {
				seen++
			}
		case <-deadline:
			t.Fatalf("saw %d keep-alive frames before timeout, want 2", seen)
		}
	}
	// Finishing the job terminates the stream with a done frame.
	j.finish(jobCancelled, "test over", st.cfg.now())
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed without done frame")
			}
			if strings.HasPrefix(line, "event: done") {
				return
			}
		case <-deadline:
			t.Fatal("no done frame after finish")
		}
	}
}
