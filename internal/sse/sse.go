// Package sse is delta's one implementation of the Server-Sent-Events
// wire format: the writer behind every event-stream handler (the /v2 job
// stream and the worker's /v2/shards stream) and the parser behind the
// fleet's shard client.
//
// A stream is a sequence of frames, each ended by a blank line:
//
//	id: 3
//	event: result
//	data: {"index":2,...}
//
// The writer owns frame ids. Result frames carry dense ids counted from
// the resume point the writer was started at, so every result frame has
// one, and a reconnecting client that sends the last id it holds as the
// standard Last-Event-ID header gets the stream from the next result on,
// with nothing replayed or skipped. The terminal done frame carries the
// result count as its id. Idle streams send `: keep-alive` comment frames
// so proxies with idle timeouts do not reap them.
//
// Result frames carry JSON their caller encoded, written verbatim, so a
// job stream re-serves stored bytes to every subscriber without encoding
// them again; the writer marshals only the done frame.
package sse

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Start begins an event stream on w: it checks that w can flush, sets the
// event-stream headers and writes the 200 status. The stream's result
// frames are numbered from resume+1. On error Start has written nothing,
// so the caller answers in its own error shape. Start does not flush:
// when frames leave the process is the caller's choice (Writer.Flush).
func Start(w http.ResponseWriter, resume int) (*Writer, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, errors.New("streaming unsupported")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	// Tell buffering reverse proxies (nginx and friends) to pass frames
	// through as they arrive instead of batching the stream.
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	return &Writer{w: w, f: f, id: resume}, nil
}

// Writer writes the frames of one event stream.
type Writer struct {
	w  io.Writer
	f  http.Flusher
	id int // id of the last result frame written, or the resume point
}

// ID returns the id of the last result frame written (the resume point
// before any): the number of results the client holds.
func (sw *Writer) ID() int { return sw.id }

// Result writes data verbatim as an `event: result` frame carrying the
// next id. The caller encodes: data is one line of JSON, such as
// json.Marshal returns, so it fits the frame's single `data:` line.
func (sw *Writer) Result(data []byte) error {
	if err := sw.frame(sw.id+1, "result", data); err != nil {
		return err
	}
	sw.id++
	return nil
}

// Done writes v as the terminal JSON `event: done` frame, whose id is the
// last result's (none when the client holds no result).
func (sw *Writer) Done(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return sw.frame(sw.id, "done", data)
}

// KeepAlive writes a comment frame, which clients skip.
func (sw *Writer) KeepAlive() error {
	_, err := io.WriteString(sw.w, ": keep-alive\n\n")
	return err
}

// Flush sends the frames written so far to the client.
func (sw *Writer) Flush() { sw.f.Flush() }

func (sw *Writer) frame(id int, event string, data []byte) error {
	if id > 0 {
		_, err := fmt.Fprintf(sw.w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
		return err
	}
	_, err := fmt.Fprintf(sw.w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// LastEventID returns the resume point a reconnecting client sent in the
// Last-Event-ID header, or 0 when the header is absent, non-numeric or
// not positive: an id this package did not mint falls back to a full
// replay, which is always safe.
func LastEventID(r *http.Request) int {
	n, err := strconv.Atoi(strings.TrimSpace(r.Header.Get("Last-Event-ID")))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Event is one parsed frame.
type Event struct {
	// ID is the frame's `id:` value (0 when the frame carried none).
	ID int

	// Type is the frame's `event:` value ("message" when absent).
	Type string

	// Data is the frame's payload (multiple `data:` lines joined by \n).
	Data []byte
}

// Stop, returned by Parse's emit function, ends parsing without reading
// the stream to its close; Parse then returns nil.
var Stop = errors.New("sse: stop")

// Parse reads frames from r and hands each complete one to emit. Comment
// lines (leading ':') are skipped; a blank line dispatches the
// accumulated frame. It returns nil on EOF or when emit returns Stop,
// emit's error when it aborts otherwise, or the read error.
func Parse(r io.Reader, emit func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var (
		ev      Event
		data    []string
		hasData bool
	)
	flush := func() error {
		if !hasData {
			ev = Event{}
			return nil
		}
		if ev.Type == "" {
			ev.Type = "message"
		}
		ev.Data = []byte(strings.Join(data, "\n"))
		err := emit(ev)
		ev, data, hasData = Event{}, nil, false
		return err
	}
	for sc.Scan() {
		// ScanLines drops one CR of a CRLF ending; trim any left so a value
		// never ends in CR, which would not survive a write and re-read.
		line := strings.TrimRight(sc.Text(), "\r")
		switch {
		case line == "":
			if err := flush(); err != nil {
				if errors.Is(err, Stop) {
					return nil
				}
				return err
			}
		case strings.HasPrefix(line, ":"):
			// comment / keep-alive
		default:
			field, value, _ := strings.Cut(line, ":")
			value = strings.TrimPrefix(value, " ")
			switch field {
			case "id":
				if n, err := strconv.Atoi(value); err == nil && n > 0 {
					ev.ID = n
				}
			case "event":
				ev.Type = value
			case "data":
				data = append(data, value)
				hasData = true
			}
		}
	}
	return sc.Err()
}
