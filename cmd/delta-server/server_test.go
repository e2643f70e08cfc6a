package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"delta"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(delta.NewPipeline()))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// TestEstimateRoundTrip posts a spec JSON layer list and checks the
// response against the facade evaluated directly: same layer, same device,
// bit-identical seconds.
func TestEstimateRoundTrip(t *testing.T) {
	ts := testServer(t)
	body := `{
	  "device": "TITAN Xp",
	  "layers": [
	    {"name": "conv2", "b": 32, "ci": 96, "hi": 27, "co": 256, "hf": 5, "stride": 1, "pad": 2},
	    {"name": "conv3", "b": 32, "ci": 256, "hi": 13, "co": 384, "hf": 3, "stride": 1, "pad": 1, "count": 2}
	  ]
	}`
	var got estimateResponse
	resp := postJSON(t, ts.URL+"/v1/estimate", body, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got.Model != "delta" || got.Pass != "inference" || got.Device != "TITAN Xp" {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Layers) != 2 {
		t.Fatalf("layers = %d", len(got.Layers))
	}

	l2 := delta.Conv{Name: "conv2", B: 32, Ci: 96, Hi: 27, Wi: 27, Co: 256, Hf: 5, Wf: 5, Stride: 1, Pad: 2}
	l3 := delta.Conv{Name: "conv3", B: 32, Ci: 256, Hi: 13, Wi: 13, Co: 384, Hf: 3, Wf: 3, Stride: 1, Pad: 1}
	want2, err := delta.Estimate(l2, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want3, err := delta.Estimate(l3, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers[0].Seconds != want2.Seconds || got.Layers[0].Bottleneck != want2.Bottleneck.String() {
		t.Errorf("conv2: got %v/%s, want %v/%v",
			got.Layers[0].Seconds, got.Layers[0].Bottleneck, want2.Seconds, want2.Bottleneck)
	}
	if got.Layers[1].Seconds != want3.Seconds {
		t.Errorf("conv3 seconds mismatch")
	}
	if got.Layers[1].Count != 2 {
		t.Errorf("conv3 count = %d, want 2", got.Layers[1].Count)
	}
	if want := want2.Seconds + 2*want3.Seconds; got.TotalSeconds != want {
		t.Errorf("total = %v, want %v", got.TotalSeconds, want)
	}
	if got.Layers[0].L1Bytes <= 0 || got.Layers[0].DRAMBytes <= 0 {
		t.Error("traffic fields missing")
	}
}

// TestNetworkEndpoint resolves a registered network by name on a named
// device and cross-checks the weighted total.
func TestNetworkEndpoint(t *testing.T) {
	ts := testServer(t)
	var got estimateResponse
	resp := postJSON(t, ts.URL+"/v1/network", `{"network": "alexnet", "batch": 32, "device": "v100"}`, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	net, err := delta.NetworkByName("alexnet", 32)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := delta.EstimateAllContext(context.Background(), net.Layers, delta.V100(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := delta.NetworkTime(rs, net.Counts); got.TotalSeconds != want {
		t.Errorf("total = %v, want %v", got.TotalSeconds, want)
	}
	if got.Device != "V100" {
		t.Errorf("device = %q (forgiving name lookup failed)", got.Device)
	}
	total := 0
	for _, c := range got.Bottlenecks {
		total += c
	}
	if total != len(net.Layers) {
		t.Errorf("bottleneck histogram covers %d layers, want %d", total, len(net.Layers))
	}
}

// TestNetworkTrainingPass exercises pass=training end to end.
func TestNetworkTrainingPass(t *testing.T) {
	ts := testServer(t)
	var got estimateResponse
	resp := postJSON(t, ts.URL+"/v1/network", `{"network": "alexnet", "batch": 16, "pass": "training"}`, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got.Pass != "training" {
		t.Fatalf("pass = %q", got.Pass)
	}
	if got.Layers[0].DgradSeconds != 0 {
		t.Error("first layer should skip dgrad")
	}
	if got.Layers[1].DgradSeconds <= 0 || got.Layers[1].WgradSeconds <= 0 {
		t.Error("training breakdown missing")
	}
	net, _ := delta.NetworkByName("alexnet", 16)
	_, want, err := delta.EstimateNetworkTrainingContext(context.Background(), net, delta.TitanXp(), delta.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSeconds != want {
		t.Errorf("training total = %v, want %v", got.TotalSeconds, want)
	}
}

// TestDeviceSpecOverride inherits a custom device from a base via the spec
// codec.
func TestDeviceSpecOverride(t *testing.T) {
	ts := testServer(t)
	var got estimateResponse
	body := `{
	  "network": "alexnet", "batch": 16,
	  "device_spec": {"base": "TITAN Xp", "name": "hypothetical", "dram_bw_gbs": 900}
	}`
	resp := postJSON(t, ts.URL+"/v1/network", body, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got.Device != "hypothetical" {
		t.Errorf("device = %q", got.Device)
	}
}

// TestExploreEndpoint sweeps a small grid and cross-checks against the
// serial facade exploration.
func TestExploreEndpoint(t *testing.T) {
	ts := testServer(t)
	body := `{
	  "network": "alexnet", "batch": 16,
	  "axes": {"mac_per_sm": [1, 2], "mem_bw": [1, 2]},
	  "target": 1.5
	}`
	var got exploreResponse
	resp := postJSON(t, ts.URL+"/v1/explore", body, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(got.Candidates) != 4 {
		t.Fatalf("candidates = %d, want 4", len(got.Candidates))
	}
	net, _ := delta.NetworkByName("alexnet", 16)
	want, err := delta.ExploreContext(context.Background(), net, delta.TitanXp(),
		delta.ExploreAxes{MACPerSM: []float64{1, 2}, MemBW: []float64{1, 2}},
		delta.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Candidates[i].Speedup != want[i].Speedup || got.Candidates[i].Cost != want[i].Cost {
			t.Errorf("candidate %d: got (%v, %v), want (%v, %v)", i,
				got.Candidates[i].Cost, got.Candidates[i].Speedup, want[i].Cost, want[i].Speedup)
		}
	}
	if len(got.Pareto) == 0 {
		t.Error("empty pareto front")
	}
	if got.Cheapest == nil || got.Cheapest.Speedup < 1.5 {
		t.Errorf("cheapest-at-1.5x missing or wrong: %+v", got.Cheapest)
	}
}

// TestListingAndHealth covers the GET endpoints.
func TestListingAndHealth(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		path string
		want string
	}{
		{"/healthz", `"status": "ok"`},
		{"/v1/devices", "TITAN Xp"},
		{"/v1/networks", "resnet152"},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d, body %q", tc.path, resp.StatusCode, body)
		}
	}
}

// TestBadRequests: malformed inputs come back as 400s with JSON errors,
// wrong methods as 405s.
func TestBadRequests(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/estimate", `{`, http.StatusBadRequest},
		{"/v1/estimate", `{"layers": []}`, http.StatusBadRequest},
		{"/v1/estimate", `{"bogus_field": 1}`, http.StatusBadRequest},
		{"/v1/network", `{"network": "skynet"}`, http.StatusBadRequest},
		{"/v1/network", `{}`, http.StatusBadRequest},
		{"/v1/network", `{"network": "alexnet", "device": "TPU"}`, http.StatusBadRequest},
		{"/v1/network", `{"network": "alexnet", "model": "magic"}`, http.StatusBadRequest},
		{"/v1/network", `{"network": "alexnet", "layers": [{"ci": 3}]}`, http.StatusBadRequest},
		{"/v1/explore", `{"network": "alexnet", "batch": -1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != tc.status {
			t.Errorf("POST %s %q: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.status)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("POST %s: error body malformed (%v)", tc.path, err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/estimate: status %d, want 405", resp.StatusCode)
	}
}

// TestMissRateIgnoredForNonPrior pins the pre-scenario /v1 semantics: the
// miss_rate field only parameterizes the prior model and is ignored (not
// validated) for every other model.
func TestMissRateIgnoredForNonPrior(t *testing.T) {
	ts := testServer(t)
	var got estimateResponse
	resp := postJSON(t, ts.URL+"/v1/network", `{"network": "alexnet", "batch": 16, "miss_rate": 2.0}`, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta-model request with out-of-range miss_rate: status %d, want 200", resp.StatusCode)
	}
	var want estimateResponse
	postJSON(t, ts.URL+"/v1/network", `{"network": "alexnet", "batch": 16}`, &want)
	if got.TotalSeconds != want.TotalSeconds {
		t.Errorf("miss_rate changed a delta-model answer: %v vs %v", got.TotalSeconds, want.TotalSeconds)
	}
	resp = postJSON(t, ts.URL+"/v1/network", `{"network": "alexnet", "batch": 16, "model": "prior", "miss_rate": 2.0}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("prior-model request with out-of-range miss_rate: status %d, want 400", resp.StatusCode)
	}
}

// TestExploreRejectsModelFields: /v1/explore cannot honor model/pass/
// miss_rate, so it must refuse them instead of silently running delta.
func TestExploreRejectsModelFields(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{"network": "alexnet", "model": "prior"}`,
		`{"network": "alexnet", "pass": "training"}`,
		`{"network": "alexnet", "miss_rate": 0.5}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/explore", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/explore %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestWriteJSONUnencodable: a value JSON cannot encode answers a JSON 500,
// not its intended status with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("body %q is not a JSON error: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}
