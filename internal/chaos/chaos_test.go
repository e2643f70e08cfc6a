package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseBody writes n SSE result frames plus a done frame, the wire shape
// internal/cluster's worker produces.
func sseBody(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "event: result\nid: %d\ndata: {\"index\": %d, \"payload\": \"p%d\"}\n\n", i, i, i)
	}
	fmt.Fprintf(&b, "event: done\ndata: {\"count\": %d}\n\n", n)
	return b.String()
}

// listenerServer serves /stream (sseBody(frames), one flush per frame)
// and /plain ("ok") through inj's Listener, and returns its base URL.
func listenerServer(t *testing.T, inj *Injector, frames int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stream" {
			io.WriteString(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for _, frame := range strings.SplitAfter(sseBody(frames), "\n\n") {
			if frame == "" {
				continue
			}
			io.WriteString(w, frame)
			fl.Flush()
		}
	})}
	go srv.Serve(inj.Listener(ln))
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// get fetches url on a fresh connection, so a fault that killed one
// request's connection cannot touch the next, and returns the status, the
// body up to where the stream ended, and the read error.
func get(t *testing.T, url string) (int, string, error) {
	t.Helper()
	return fetch(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}, url)
}

// injections captures inj's injection log through Logf, the sink
// delta-server hands log.Printf, and returns a reader for the lines so far.
func injections(inj *Injector) func() []string {
	var mu sync.Mutex
	var lines []string
	inj.Logf(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
}

func fetch(cl *http.Client, url string) (int, string, error) {
	res, err := cl.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return res.StatusCode, string(b), err
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec(`{"seed": 7, "rules": [{"fault": "refuse", "count": 2}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 || len(spec.Rules) != 1 || spec.Rules[0].Fault != FaultRefuse {
		t.Fatalf("parsed %+v", spec)
	}

	// Bare rule-list shorthand.
	spec, err = ParseSpec(`[{"fault": "latency", "latency_ms": 5}]`)
	if err != nil || len(spec.Rules) != 1 {
		t.Fatalf("shorthand: %v %+v", err, spec)
	}

	// @file spelling.
	f := t.TempDir() + "/spec.json"
	os.WriteFile(f, []byte(`{"rules": [{"fault": "cut", "path": "/v2/shards"}]}`), 0o644)
	spec, err = ParseSpec("@" + f)
	if err != nil || spec.Rules[0].Path != "/v2/shards" {
		t.Fatalf("@file: %v %+v", err, spec)
	}

	for _, bad := range []string{
		`{"rules": []}`,
		`{"rules": [{"fault": "nope"}]}`,
		`{"rules": [{"fault": "latency"}]}`,
		`{"rules": [{"fault": "refuse", "prob": 1.5}]}`,
		`@/does/not/exist`,
		`{broken`,
		`{"rules": [{"fault": "refuse"}]} []`,
		// Strict decoding: a misspelled field, and the removed peer
		// selector, would otherwise be a rule that fires everywhere.
		`[{"fault": "cut", "after_frame": 3}]`,
		`{"rules": [{"fault": "refuse", "peer": "18091"}]}`,
		`{"seed": 1, "rules": [{"fault": "refuse"}], "extra": true}`,
		// Removed vocabulary: the status fault, the dial latency site and
		// the for_requests and wall-clock windows.
		`[{"fault": "status", "status": 502}]`,
		`[{"fault": "latency", "where": "dial", "latency_ms": 5}]`,
		`[{"fault": "refuse", "for_requests": 2}]`,
		`[{"fault": "refuse", "after_ms": 100}]`,
		`[{"fault": "refuse", "for_ms": 100}]`,
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// FuzzParseSpec: the -chaos decoder never panics, and a spec it accepts
// re-encodes (json.Marshal) to a document that parses back equal, with
// every rule valid. Inputs naming a file (@path) are skipped, so the
// fuzzer never reads the filesystem.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		if strings.HasPrefix(strings.TrimSpace(in), "@") {
			t.Skip()
		}
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		for i, r := range spec.Rules {
			if err := r.validate(); err != nil {
				t.Fatalf("accepted rule %d is invalid: %v", i, err)
			}
		}
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := ParseSpec(string(b))
		if err != nil {
			t.Fatalf("re-encoded spec %s does not parse: %v", b, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("%s parsed back as %+v, want %+v", b, again, spec)
		}
	})
}

func TestSeedResolution(t *testing.T) {
	if got := Seed(42); got != 42 {
		t.Fatalf("explicit seed: %d", got)
	}
	if got := Seed(0); got != 1 {
		t.Fatalf("fallback seed: %d", got)
	}
}

func TestSchedulingWindows(t *testing.T) {
	inj := MustNew(Spec{Rules: []Rule{
		{Fault: FaultRefuse, AfterRequests: 2, Count: 2},
	}})
	var fired []bool
	for i := 0; i < 6; i++ {
		fired = append(fired, len(inj.plan("/plain")) > 0)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("request %d: fired=%v want %v (%v)", i, fired[i], want[i], fired)
		}
	}
}

func TestSelectorMatching(t *testing.T) {
	inj := MustNew(Spec{Rules: []Rule{
		{Fault: FaultRefuse, Path: "/v2/shards"},
	}})
	if len(inj.plan("/healthz")) != 0 {
		t.Fatal("wrong path matched")
	}
	if len(inj.plan("")) != 0 {
		t.Fatal("path rule matched a request whose path was not sniffed")
	}
	if len(inj.plan("/v2/shards")) != 1 {
		t.Fatal("exact match missed")
	}

	// An empty path matches every request, sniffed or not.
	inj = MustNew(Spec{Rules: []Rule{{Fault: FaultRefuse}}})
	for _, path := range []string{"/healthz", "/v2/shards", ""} {
		if len(inj.plan(path)) != 1 {
			t.Fatalf("pathless rule missed %q", path)
		}
	}
}

func TestSeededReplayIdentical(t *testing.T) {
	run := func() []string {
		inj := MustNew(Spec{Seed: 1234, Rules: []Rule{
			{Fault: FaultRefuse, Prob: 0.5},
			{Fault: FaultLatency, LatencyMS: 5, Prob: 0.3},
		}})
		injected := injections(inj)
		for i := 0; i < 40; i++ {
			inj.plan("/v2/shards")
		}
		return injected()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events fired at all")
	}
	if len(a) != len(b) {
		t.Fatalf("replay lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}

	// A different seed must yield a different schedule.
	inj := MustNew(Spec{Seed: 4321, Rules: []Rule{
		{Fault: FaultRefuse, Prob: 0.5},
		{Fault: FaultLatency, LatencyMS: 5, Prob: 0.3},
	}})
	injected := injections(inj)
	for i := 0; i < 40; i++ {
		inj.plan("/v2/shards")
	}
	c := injected()
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestListenerFaults drives every fault through the Listener: refusal,
// frame-level cut, truncate and corrupt on a matched path, and the
// first-byte and frame latency sites.
func TestListenerFaults(t *testing.T) {
	clean := sseBody(3)
	frames := strings.SplitAfter(clean, "\n\n")

	t.Run("refuse", func(t *testing.T) {
		inj := MustNew(Spec{Rules: []Rule{
			{Fault: FaultRefuse, AfterRequests: 1, Count: 2},
		}})
		injected := injections(inj)
		base := listenerServer(t, inj, 3)
		// Request 1 is clean; requests 2 and 3 die before any response
		// byte; request 4 is clean again, the rule's budget spent.
		for i, refused := range []bool{false, true, true, false} {
			code, body, err := get(t, base+"/plain")
			if refused != (err != nil) || !refused && (code != 200 || body != "ok") {
				t.Fatalf("request %d (refused=%v): %d %q %v", i+1, refused, code, body, err)
			}
		}
		if ev := injected(); len(ev) != 2 || !strings.Contains(ev[0], "#1 refuse path=/plain") ||
			!strings.Contains(ev[1], "#2 refuse path=/plain") {
			t.Fatalf("injections %v", ev)
		}
	})

	for _, tc := range []struct {
		name  string
		rule  Rule
		check func(t *testing.T, body string, err error)
	}{
		{"cut", Rule{Fault: FaultCut, Path: "/stream", AfterFrames: 2}, func(t *testing.T, body string, err error) {
			if err == nil || body != frames[0]+frames[1] {
				t.Fatalf("want 2 whole frames then a dropped connection, got %v:\n%q", err, body)
			}
		}},
		{"truncate", Rule{Fault: FaultTruncate, Path: "/stream", AfterFrames: 1}, func(t *testing.T, body string, err error) {
			if err == nil || !strings.HasPrefix(body, frames[0]) || strings.Count(body, "\n\n") != 1 {
				t.Fatalf("want 1 whole frame then a torn one, got %v:\n%q", err, body)
			}
		}},
		{"corrupt", Rule{Fault: FaultCorrupt, Path: "/stream", AfterFrames: 1}, func(t *testing.T, body string, err error) {
			if err != nil {
				t.Fatalf("corrupted stream did not end cleanly: %v\n%q", err, body)
			}
			if len(body) != len(clean) {
				t.Fatalf("corruption changed length: %d != %d\n%q", len(body), len(clean), body)
			}
			tail := len(frames[0]) + len(frames[1])
			if body[:len(frames[0])] != frames[0] || body[tail:] != clean[tail:] {
				t.Fatalf("frames other than 1 touched:\n%q", body)
			}
			if body[:tail] == clean[:tail] {
				t.Fatal("frame 1 not corrupted")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := MustNew(Spec{Rules: []Rule{tc.rule}})
			injected := injections(inj)
			base := listenerServer(t, inj, 3)
			// The path rule leaves other paths alone.
			if code, body, err := get(t, base+"/plain"); err != nil || code != 200 || body != "ok" {
				t.Fatalf("unmatched path: %d %q %v", code, body, err)
			}
			code, body, err := get(t, base+"/stream")
			if code != 200 {
				t.Fatalf("status %d (%v)", code, err)
			}
			tc.check(t, body, err)
			if ev := injected(); len(ev) != 1 || !strings.Contains(ev[0], tc.name) {
				t.Fatalf("injections %v", ev)
			}
		})
	}

	t.Run("latency_sites", func(t *testing.T) {
		inj := MustNew(Spec{Rules: []Rule{
			{Fault: FaultLatency, Where: "first_byte", LatencyMS: 5, Count: 1},
			{Fault: FaultLatency, Where: "frame", LatencyMS: 3, AfterRequests: 1},
		}})
		var mu sync.Mutex
		var slept []time.Duration
		inj.sleep = func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		}
		base := listenerServer(t, inj, 2)
		for i, want := range [][]time.Duration{
			{5 * time.Millisecond},
			// 2 result frames + 1 done frame, each delayed.
			{3 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond},
		} {
			mu.Lock()
			slept = nil
			mu.Unlock()
			if code, body, err := get(t, base+"/stream"); err != nil || code != 200 || body != sseBody(2) {
				t.Fatalf("request %d: %d %q %v", i, code, body, err)
			}
			mu.Lock()
			got := fmt.Sprint(slept)
			mu.Unlock()
			if got != fmt.Sprint(want) {
				t.Fatalf("request %d slept %s, want %v", i, got, want)
			}
		}
	})

	// A stream rule with no path filters every response; one that is not
	// an event stream passes untouched.
	t.Run("plain_passthrough", func(t *testing.T) {
		base := listenerServer(t, MustNew(Spec{Rules: []Rule{{Fault: FaultCorrupt}}}), 3)
		if code, body, err := get(t, base+"/plain"); err != nil || code != 200 || body != "ok" {
			t.Fatalf("plain response filtered: %d %q %v", code, body, err)
		}
		if _, body, err := get(t, base+"/stream"); err != nil || len(body) != len(clean) || body[:len(frames[0])] == frames[0] {
			t.Fatalf("want frame 0 corrupted and a clean end, got %v:\n%q", err, body)
		}
	})

	// A filtered response still ends, so a kept-alive connection carries
	// the next exchange.
	t.Run("keep_alive", func(t *testing.T) {
		base := listenerServer(t, MustNew(Spec{Rules: []Rule{
			{Fault: FaultCorrupt, Path: "/stream", AfterFrames: 1, Count: 1},
		}}), 3)
		cl := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
		defer cl.CloseIdleConnections()
		var reused []bool
		for i, corrupt := range []bool{true, false} {
			req, _ := http.NewRequest("GET", base+"/stream", nil)
			req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
				GotConn: func(ci httptrace.GotConnInfo) { reused = append(reused, ci.Reused) },
			}))
			res, err := cl.Do(req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			b, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil || len(b) != len(clean) || (string(b) != clean) != corrupt {
				t.Fatalf("request %d (corrupt=%v): %v\n%q", i, corrupt, err, b)
			}
		}
		if fmt.Sprint(reused) != "[false true]" {
			t.Fatalf("connection reuse %v, want [false true]", reused)
		}
	})
}

func TestFrameFilterAcrossChunks(t *testing.T) {
	// A chunked response arriving byte by byte must still have its
	// frames counted and corrupted exactly once, and its closing chunk
	// released.
	ff := &frameFilter{plan: streamPlan{cutAfter: -1, truncAt: -1, corruptAt: 1}, sleep: func(time.Duration) {}}
	in := "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nTransfer-Encoding: chunked\r\n\r\n"
	for _, frame := range strings.SplitAfter(sseBody(3), "\n\n") {
		if frame != "" {
			in += fmt.Sprintf("%x\r\n%s\r\n", len(frame), frame)
		}
	}
	in += "0\r\n\r\n"
	var out []byte
	for i := 0; i < len(in); i++ {
		o, end := ff.process([]byte{in[i]})
		if end {
			t.Fatal("corruption ended the stream")
		}
		out = append(out, o...)
	}
	if string(out) == in {
		t.Fatal("no corruption applied")
	}
	if len(out) != len(in) {
		t.Fatalf("length changed %d -> %d", len(in), len(out))
	}
	diff := 0
	for i := range out {
		if out[i] != in[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want 1", diff)
	}
}
