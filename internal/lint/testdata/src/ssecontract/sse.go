// Package goldensse is the ssecontract analyzer's golden corpus: a
// hand-rolled event stream, internal/sse handlers that violate each
// obligation the analyzer checks, one that honors both, and the client
// shape that must not count as a handler at all.
package goldensse

import (
	"fmt"
	"net/http"

	"delta/internal/sse"
)

// HandRolled writes the wire format itself, bypassing the writer that
// gives every result frame its id.
func HandRolled(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/event-stream") // want `HandRolled sets a text/event-stream Content-Type by hand: serve the stream through internal/sse`
	fmt.Fprintf(w, "data: %s\n\n", "hello")
}

// NoFlush selects on the request context but never flushes, so frames
// sit in the response buffer.
func NoFlush(w http.ResponseWriter, r *http.Request) { // want `SSE handler NoFlush never calls Flush`
	sw, err := sse.Start(w, sse.LastEventID(r))
	if err != nil {
		return
	}
	for i := 0; ; i++ {
		select {
		case <-r.Context().Done():
			return
		default:
		}
		if sw.Result([]byte(fmt.Sprint(i))) != nil {
			return
		}
	}
}

// NoDone flushes every frame but never watches the request context, so
// an abandoned client leaks the stream goroutine.
func NoDone(w http.ResponseWriter, r *http.Request) { // want `SSE handler NoDone never waits on ctx\.Done`
	sw, err := sse.Start(w, sse.LastEventID(r))
	if err != nil {
		return
	}
	for i := 0; ; i++ {
		if sw.Result([]byte(fmt.Sprint(i))) != nil {
			return
		}
		sw.Flush()
	}
}

// Good honors the whole contract.
func Good(w http.ResponseWriter, r *http.Request) {
	sw, err := sse.Start(w, sse.LastEventID(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ctx := r.Context()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		default:
		}
		if sw.Result([]byte(fmt.Sprint(i))) != nil {
			return
		}
		sw.Flush()
	}
}

// Subscribe is the client side: setting Accept on an outgoing request
// does not make this function a handler, so no clause applies.
func Subscribe(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	return http.DefaultClient.Do(req)
}
