package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// newClient returns an HTTP client that keeps its connections alive
// between ops and asks for uncompressed answers.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableCompression: true}}
}

// post sends body and returns the status and the full response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// get fetches url and returns the status and the full body.
func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// jobRun is one /v2 job as the client saw it.
type jobRun struct {
	submit []byte // 202 answer
	events []byte // the whole SSE stream, terminal done frame included
}

// runJob submits a scenario job and reads its SSE stream to the end. The
// server closes the stream right after the terminal done frame, so EOF
// marks the op's end. Spans: server.submit and server.sse under parent.
func runJob(ctx context.Context, c *http.Client, base string, body []byte, tr *tracer, opID int, parent int64) (jobRun, error) {
	var jr jobRun
	end := tr.start("server.submit", opID, parent)
	status, raw, err := post(ctx, c, base+"/v2/jobs", body)
	end()
	jr.submit = raw
	if err != nil {
		return jr, err
	}
	if status != http.StatusAccepted {
		return jr, fmt.Errorf("submit: status %d: %s", status, firstLine(raw))
	}
	var sum struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(raw, &sum); err != nil || sum.EventsURL == "" {
		return jr, fmt.Errorf("submit: no events_url in %s", firstLine(raw))
	}
	end = tr.start("server.sse", opID, parent)
	status, jr.events, err = get(ctx, c, base+sum.EventsURL)
	end()
	if err != nil {
		return jr, err
	}
	if status != http.StatusOK {
		return jr, fmt.Errorf("events: status %d: %s", status, firstLine(jr.events))
	}
	return jr, nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// sseFrame is one Server-Sent-Events frame.
type sseFrame struct {
	id    int
	event string
	data  []byte
}

// parseSSE splits a stream into frames, skipping comment-only frames.
func parseSSE(raw []byte) ([]sseFrame, error) {
	var out []sseFrame
	for _, block := range bytes.Split(raw, []byte("\n\n")) {
		if len(bytes.TrimSpace(block)) == 0 {
			continue
		}
		var f sseFrame
		any := false
		for _, line := range bytes.Split(block, []byte("\n")) {
			k, v, ok := bytes.Cut(line, []byte(": "))
			switch {
			case len(line) > 0 && line[0] == ':':
				continue
			case !ok:
				return nil, fmt.Errorf("malformed SSE line %q", firstLine(line))
			case string(k) == "id":
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return nil, fmt.Errorf("SSE id %q: %w", v, err)
				}
				f.id = n
			case string(k) == "event":
				f.event = string(v)
			case string(k) == "data":
				f.data = v
			default:
				return nil, fmt.Errorf("unknown SSE field %q", k)
			}
			any = true
		}
		if any {
			out = append(out, f)
		}
	}
	return out, nil
}

// scrape reads a server's /metrics as a map from series (name plus label
// set, as printed) to value.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	status, raw, err := get(ctx, c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// routeSeries names a histogram series of the request-duration family.
func routeSeries(suffix, route string) string {
	return "delta_http_request_duration_seconds_" + suffix + `{route="` + route + `"}`
}

// diff returns after[k] - before[k] (absent series read as 0).
func diff(before, after map[string]float64, k string) float64 { return after[k] - before[k] }

// sumPrefix sums every series whose printed name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
