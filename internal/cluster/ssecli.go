// SSE client: the coordinator's half of the shard stream protocol. One
// Stream call POSTs a shard request and delivers the frames internal/sse
// parses, in order, transparently reconnecting dropped connections with
// the standard Last-Event-ID header (the worker skips the results already
// delivered, so the caller sees every frame exactly once). Reconnects use
// jittered exponential backoff and give up after a bounded number of
// consecutive failures without progress.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"delta/internal/sse"
)

// Client streams SSE responses with automatic resume over
// http.DefaultClient, which sets no client-level timeout: streams are
// long-lived, so the Stream context bounds an attempt. The zero value is
// usable; fields tune the reconnect policy.
type Client struct {
	// Token, when set, is sent as a bearer Authorization header.
	Token string

	// Retries caps consecutive failed attempts without progress (an
	// attempt that delivers at least one frame resets the count).
	// Default 4.
	Retries int

	// Backoff is the initial reconnect delay (default 100ms), doubled per
	// consecutive failure up to 2s, with ±50% jitter.
	Backoff time.Duration
}

// errEmit marks an abort requested by the caller's emit function: terminal,
// never retried, unwrapped before returning.
type errEmit struct{ err error }

func (e errEmit) Error() string { return e.err.Error() }

// BadFrameError marks a frame whose payload failed validation —
// unparseable JSON, an out-of-order index — the stream analogue of a
// corrupt WAL record. Returned from an emit callback, it is treated as a
// connection-level fault rather than a caller abort: the client drops the
// connection and reconnects with Last-Event-ID pointing at the last GOOD
// frame (a corrupt frame never advances the resume id), so the worker
// re-serves a clean copy. Persistent corruption with no progress in
// between exhausts Retries like any other connection failure.
type BadFrameError struct{ Err error }

func (e BadFrameError) Error() string { return e.Err.Error() }
func (e BadFrameError) Unwrap() error { return e.Err }

// Stream POSTs body (application/json) to url and delivers each SSE frame
// to emit, in order, each exactly once across reconnects. It returns nil
// after emitting a frame whose Type is "done" (the protocol's terminal
// frame), and an error when the context ends, emit fails, the server
// answers a non-retryable status, or reconnect attempts are exhausted.
func (c *Client) Stream(ctx context.Context, url string, body []byte, emit func(sse.Event) error) error {
	retries := c.Retries
	if retries <= 0 {
		retries = 4
	}
	base := c.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}

	lastID, fails := 0, 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed, done, err := c.attempt(ctx, url, body, lastID, &lastID, emit)
		if done {
			return nil
		}
		var ee errEmit
		if errors.As(err, &ee) {
			return ee.err
		}
		if progressed {
			fails = 0
		}
		fails++
		lastErr = err
		var te terminalErr
		if errors.As(err, &te) {
			return fmt.Errorf("cluster: sse: %s: %w", url, err)
		}
		if fails > retries {
			return fmt.Errorf("cluster: sse: %s: giving up after %d attempt(s): %w", url, fails, lastErr)
		}
		// Capped, jittered exponential backoff; the jitter keeps a fleet
		// of coordinators from thundering back in lockstep after a shared
		// outage.
		if !sleepCtx(ctx, backoffFor(base, 2*time.Second, fails)) {
			return ctx.Err()
		}
	}
}

// terminalErr marks a server answer that retrying cannot improve (4xx
// other than timeout/too-many-requests).
type terminalErr struct{ msg string }

func (e terminalErr) Error() string { return e.msg }

// attempt runs one connection: POST, parse frames, track the resume id.
func (c *Client) attempt(ctx context.Context, url string, body []byte, resumeID int, lastID *int, emit func(sse.Event) error) (progressed, done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if resumeID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(resumeID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 &&
			resp.StatusCode != http.StatusRequestTimeout && resp.StatusCode != http.StatusTooManyRequests {
			return false, false, terminalErr{err.Error()}
		}
		return false, false, err
	}
	perr := sse.Parse(resp.Body, func(ev sse.Event) error {
		// Emit first: the resume id and progress advance only past frames
		// the caller accepted, so a frame rejected as corrupt is re-served
		// on reconnect instead of silently skipped.
		if err := emit(ev); err != nil {
			var bf BadFrameError
			if errors.As(err, &bf) {
				return err // reconnect and resume from the last good frame
			}
			return errEmit{err}
		}
		if ev.ID > 0 {
			*lastID = ev.ID
		}
		progressed = true
		if ev.Type == "done" {
			done = true
			return sse.Stop
		}
		return nil
	})
	if done {
		return progressed, true, nil
	}
	if perr == nil {
		// Clean EOF without a done frame: the server (or a proxy) closed
		// the stream mid-shard; reconnect and resume.
		perr = errors.New("stream ended before done frame")
	}
	return progressed, false, perr
}
