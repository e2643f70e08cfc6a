package sse

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriterFrames pins the frame bytes and the id obligation the writer
// owns: every result frame carries an id, dense from the resume point,
// and the done frame carries the last result's id (none at zero).
func TestWriterFrames(t *testing.T) {
	for _, tc := range []struct {
		resume, results int
		want            string
	}{
		{0, 0, "event: done\ndata: {\"n\":0}\n\n"},
		{0, 2, "id: 1\nevent: result\ndata: {\"i\":0}\n\n" +
			"id: 2\nevent: result\ndata: {\"i\":1}\n\n" +
			": keep-alive\n\n" +
			"id: 2\nevent: done\ndata: {\"n\":2}\n\n"},
		{5, 1, "id: 6\nevent: result\ndata: {\"i\":0}\n\n" +
			": keep-alive\n\n" +
			"id: 6\nevent: done\ndata: {\"n\":6}\n\n"},
		{3, 0, "id: 3\nevent: done\ndata: {\"n\":3}\n\n"},
	} {
		rec := httptest.NewRecorder()
		sw, err := Start(rec, tc.resume)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.results; i++ {
			if err := sw.Result([]byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				t.Fatal(err)
			}
		}
		if tc.results > 0 {
			if err := sw.KeepAlive(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Done(map[string]int{"n": sw.ID()}); err != nil {
			t.Fatal(err)
		}
		sw.Flush()
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("resume %d, %d results:\n%q\nwant\n%q", tc.resume, tc.results, got, tc.want)
		}
		if !rec.Flushed {
			t.Errorf("resume %d: Flush did not reach the response writer", tc.resume)
		}

		// Every result frame parses back with its dense id.
		next := tc.resume + 1
		if err := Parse(rec.Body, func(ev Event) error {
			if ev.Type == "result" {
				if ev.ID != next {
					t.Errorf("resume %d: result frame id %d, want %d", tc.resume, ev.ID, next)
				}
				next++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriterUnencodable: a done value JSON cannot encode writes nothing,
// and the stream goes on.
func TestWriterUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	sw, err := Start(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Done(func() {}); err == nil {
		t.Fatal("Done accepted a func")
	}
	if err := sw.Result([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Body.String(), "id: 1\nevent: result\ndata: 1\n\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// noFlush is a ResponseWriter that cannot stream.
type noFlush struct{ http.ResponseWriter }

// TestStart: the event-stream headers and a 200 on success; on a writer
// that cannot flush, an error and nothing written.
func TestStart(t *testing.T) {
	rec := httptest.NewRecorder()
	if _, err := Start(rec, 0); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{
		"Content-Type": "text/event-stream", "Cache-Control": "no-cache",
		"Connection": "keep-alive", "X-Accel-Buffering": "no",
	} {
		if got := rec.Header().Get(k); got != v {
			t.Errorf("%s = %q, want %q", k, got, v)
		}
	}
	if rec.Code != http.StatusOK {
		t.Errorf("status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	if _, err := Start(noFlush{rec}, 0); err == nil {
		t.Fatal("Start accepted a writer that cannot flush")
	}
	if len(rec.Header()) != 0 || rec.Body.Len() != 0 {
		t.Errorf("failed Start wrote headers %v, body %q", rec.Header(), rec.Body.String())
	}
}

func TestLastEventID(t *testing.T) {
	for in, want := range map[string]int{
		"": 0, "7": 7, " 12 ": 12, "0": 0, "-3": 0, "x": 0, "1.5": 0,
	} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if in != "" {
			r.Header.Set("Last-Event-ID", in)
		}
		if got := LastEventID(r); got != want {
			t.Errorf("LastEventID(%q) = %d, want %d", in, got, want)
		}
	}
}

// TestParseSSE pins the frame grammar: comments, multi-line data, default
// event type, id tracking, and Stop.
func TestParseSSE(t *testing.T) {
	in := ": keep-alive\n\nid: 3\nevent: result\ndata: {\"a\":1}\n\ndata: x\ndata: y\n\nevent: done\ndata: {}\n\ndata: unread\n\n"
	var evs []Event
	if err := Parse(strings.NewReader(in), func(ev Event) error {
		evs = append(evs, ev)
		if ev.Type == "done" {
			return Stop
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	if evs[0].ID != 3 || evs[0].Type != "result" || string(evs[0].Data) != `{"a":1}` {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Type != "message" || string(evs[1].Data) != "x\ny" {
		t.Errorf("event 1 = %+v", evs[1])
	}

	abort := errors.New("abort")
	if err := Parse(strings.NewReader(in), func(Event) error { return abort }); !errors.Is(err, abort) {
		t.Errorf("emit error: Parse returned %v", err)
	}
}

// encode writes ev in the wire grammar Parse reads.
func encode(w io.Writer, ev Event) {
	if ev.ID > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.ID)
	}
	fmt.Fprintf(w, "event: %s\n", ev.Type)
	for _, line := range strings.Split(string(ev.Data), "\n") {
		fmt.Fprintf(w, "data: %s\n", line)
	}
	fmt.Fprint(w, "\n")
}

// FuzzParseSSE: the parser never panics on arbitrary bytes, and the
// frames it returns, re-encoded, parse back to the same frames.
func FuzzParseSSE(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		collect := func(dst *[]Event) func(Event) error {
			return func(ev Event) error { *dst = append(*dst, ev); return nil }
		}
		var evs []Event
		_ = Parse(bytes.NewReader(in), collect(&evs))
		var buf bytes.Buffer
		for _, ev := range evs {
			encode(&buf, ev)
		}
		var again []Event
		if err := Parse(bytes.NewReader(buf.Bytes()), collect(&again)); err != nil {
			t.Fatalf("re-encoded frames do not parse: %v\n%q", err, buf.Bytes())
		}
		if len(again) != len(evs) {
			t.Fatalf("%d frames parsed back, want %d\n%q", len(again), len(evs), buf.Bytes())
		}
		for i := range evs {
			if again[i].ID != evs[i].ID || again[i].Type != evs[i].Type || !bytes.Equal(again[i].Data, evs[i].Data) {
				t.Fatalf("frame %d: %+v parsed back as %+v", i, evs[i], again[i])
			}
		}
	})
}
