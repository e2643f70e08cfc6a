// Worker side of the shard protocol: an http.Handler for POST /v2/shards.
// The request body is a spec shard document ({scenario, offset, limit});
// the response is an internal/sse stream of `event: result` frames — one
// per point of the window, in expansion order, each id counting results
// delivered within the shard — closed by a terminal `event: done` frame.
// A reconnecting coordinator sends Last-Event-ID to skip the results it
// already holds; because the evaluator's offset+limit window is
// bit-identical to the same slice of a full run, resumed shards never
// recompute or diverge.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"delta/internal/pipeline"
	"delta/internal/spec"
	"delta/internal/sse"
)

// wireResult is the data payload of one `event: result` frame.
type wireResult struct {
	// Index is the point's global position in expansion order.
	Index int `json:"index"`

	// Error is the point's evaluation error ("" on success). Workers
	// always sweep collect-partial; the coordinator applies the job's
	// error policy at merge time so the merged stream matches a
	// single-node run of either policy.
	Error string `json:"error,omitempty"`

	// Payload is the rendered point result (the handler's Render output),
	// opaque to the protocol.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// wireDone is the data payload of the terminal `event: done` frame.
type wireDone struct {
	// Count is the number of results delivered for the shard window,
	// Last-Event-ID skips included.
	Count int `json:"count"`

	// Error reports a worker-side infrastructure failure (not a point
	// evaluation error); the coordinator fails the attempt and retries.
	Error string `json:"error,omitempty"`
}

// ShardHandler serves the worker half of distributed sweeps. Wire it at
// POST /v2/shards behind the server's usual auth middleware.
type ShardHandler struct {
	// Eval runs the shard's points; required.
	Eval *pipeline.Evaluator

	// Render encodes one stream update as the result frame's payload;
	// required. delta-server passes the encoder its job records use, so a
	// distributed job stores the bytes a single node would.
	Render func(pipeline.StreamUpdate) (json.RawMessage, error)

	// KeepAlive is the idle comment-frame interval (default 15s).
	KeepAlive time.Duration

	// MaxBody bounds the request body (default 1 MiB).
	MaxBody int64
}

func (h *ShardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		shardError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	maxBody := h.MaxBody
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	sh, err := spec.ReadShard(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		code := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			code = http.StatusRequestEntityTooLarge
		}
		shardError(w, code, err)
		return
	}
	// A Last-Event-ID past the window resumes at its end.
	skip := min(sse.LastEventID(r), sh.Limit)
	// Always collect-partial: the coordinator owns the error policy and
	// applies it to the merged in-order stream, so a fail-fast sweep still
	// matches single-node output even when the failing point's shard runs
	// on a different worker than later points.
	ch, err := h.Eval.Stream(r.Context(), sh.Scenario,
		pipeline.WithOffset(sh.Offset+skip),
		pipeline.WithLimit(sh.Limit-skip),
		pipeline.WithErrorPolicy(pipeline.CollectPartial))
	if err != nil {
		shardError(w, http.StatusBadRequest, err)
		return
	}
	sw, err := sse.Start(w, skip)
	if err != nil {
		shardError(w, http.StatusInternalServerError, err)
		return
	}
	sw.Flush()

	keepAlive := h.KeepAlive
	if keepAlive <= 0 {
		keepAlive = 15 * time.Second
	}
	ticker := time.NewTicker(keepAlive)
	defer ticker.Stop()

	for {
		select {
		case upd, open := <-ch:
			if !open {
				if r.Context().Err() != nil {
					return // client gone; no terminal frame
				}
				_ = sw.Done(wireDone{Count: sw.ID()})
				sw.Flush()
				return
			}
			res := wireResult{Index: upd.Point.Index}
			if upd.Err != nil {
				res.Error = upd.Err.Error()
			}
			payload, err := h.Render(upd)
			var data []byte
			if err == nil {
				res.Payload = payload
				data, err = json.Marshal(res)
			}
			if err != nil {
				// Rendering is infrastructure, not evaluation: report
				// through the done frame so the coordinator retries the
				// attempt instead of recording a bogus point.
				_ = sw.Done(wireDone{Count: sw.ID(), Error: err.Error()})
				sw.Flush()
				return
			}
			if err := sw.Result(data); err != nil {
				return
			}
			sw.Flush()
		case <-ticker.C:
			if err := sw.KeepAlive(); err != nil {
				return
			}
			sw.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// shardError answers a pre-stream failure in the server's JSON error shape.
func shardError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
