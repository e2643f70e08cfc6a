package chaos

import (
	"bytes"
	"net"
	"time"
)

// Listener wraps base so accepted connections pass through the
// injector's rules. Rules are evaluated per HTTP request: the request
// line is sniffed from the inbound bytes — including follow-up requests
// on a kept-alive connection — so faults can target /v2/shards without
// touching /healthz probes.
func (inj *Injector) Listener(base net.Listener) net.Listener {
	return &listener{inj: inj, base: base}
}

type listener struct {
	inj  *Injector
	base net.Listener
}

func (l *listener) Addr() net.Addr { return l.base.Addr() }
func (l *listener) Close() error   { return l.base.Close() }

func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.base.Accept()
	if err != nil {
		return nil, err
	}
	// No fault applies before the first request is sniffed.
	return &chaosConn{Conn: conn, inj: l.inj, plan: splitFaults(nil)}, nil
}

// streamPlan is the resolution of all faults fired for one exchange into
// one action set, applied in precedence order: refuse > latency > stream
// surgery.
type streamPlan struct {
	refuse    bool
	firstByte time.Duration
	frameLat  time.Duration
	cutAfter  int // complete frames delivered before the cut; -1 = off
	truncAt   int // frame index delivered torn; -1 = off
	corruptAt int // frame index with a flipped payload byte; -1 = off
}

func splitFaults(faults []Rule) streamPlan {
	p := streamPlan{cutAfter: -1, truncAt: -1, corruptAt: -1}
	for _, f := range faults {
		switch f.Fault {
		case FaultRefuse:
			p.refuse = true
		case FaultLatency:
			d := time.Duration(f.LatencyMS) * time.Millisecond
			if f.Where == "frame" {
				p.frameLat += d
			} else { // "", "first_byte"
				p.firstByte += d
			}
		case FaultCut:
			p.cutAfter = f.AfterFrames
		case FaultTruncate:
			p.truncAt = f.AfterFrames
		case FaultCorrupt:
			p.corruptAt = f.AfterFrames
		}
	}
	return p
}

// filter builds the SSE-frame surgeon for this plan, or nil when the plan
// needs none.
func (p streamPlan) filter(sleep func(time.Duration)) *frameFilter {
	if p.frameLat == 0 && p.cutAfter < 0 && p.truncAt < 0 && p.corruptAt < 0 {
		return nil
	}
	return &frameFilter{plan: p, sleep: sleep}
}

// frameFilter performs frame surgery on one outbound HTTP response
// carrying SSE frames. It buffers bytes until a frame terminator ("\n\n")
// completes a frame, then releases the frame — possibly delayed,
// corrupted, torn, or followed by a cut. The response head is held with
// the first frame (its "\r\n\r\n" contains no "\n\n"); a response whose
// head does not announce text/event-stream passes through untouched, and
// the chunked body's closing "0\r\n\r\n" releases whatever is still held.
type frameFilter struct {
	plan  streamPlan
	sleep func(time.Duration)

	buf    []byte // bytes of the (incomplete) current frame
	frames int    // complete frames released so far
	head   bool   // the response head has been read
	pass   bool   // not an event stream: bytes pass untouched
	ended  bool   // a cut or torn frame already ended the stream
}

// process pushes bytes through the filter and returns what may go out.
// end reports that a cut or torn frame ended the stream: out holds its
// final bytes, and later calls release nothing.
func (ff *frameFilter) process(in []byte) (out []byte, end bool) {
	if ff.ended {
		return nil, true
	}
	if ff.pass {
		return in, false
	}
	ff.buf = append(ff.buf, in...)
	if !ff.head {
		i := bytes.Index(ff.buf, []byte("\r\n\r\n"))
		if i < 0 {
			return nil, false
		}
		ff.head = true
		if !bytes.Contains(bytes.ToLower(ff.buf[:i]), []byte("\ncontent-type: text/event-stream")) {
			ff.pass = true
			out, ff.buf = ff.buf, nil
			return out, false
		}
	}
	for {
		i := indexFrameEnd(ff.buf)
		if i < 0 {
			if bytes.HasSuffix(ff.buf, []byte("0\r\n\r\n")) {
				out, ff.buf = append(out, ff.buf...), nil
			}
			return out, false
		}
		frame := ff.buf[:i]
		ff.buf = ff.buf[i:]
		if ff.frames == ff.plan.cutAfter {
			ff.ended = true
			return out, true
		}
		if ff.plan.frameLat > 0 {
			ff.sleep(ff.plan.frameLat)
		}
		if ff.frames == ff.plan.truncAt {
			ff.ended = true
			return append(out, frame[:len(frame)/2]...), true
		}
		if ff.frames == ff.plan.corruptAt && len(frame) >= 6 {
			// Flip a byte just inside the payload tail (before the
			// "\n\n" terminator), leaving the frame grammar intact but
			// the JSON inside it broken.
			frame = append([]byte(nil), frame...)
			frame[len(frame)-4] ^= 0x20
		}
		out = append(out, frame...)
		ff.frames++
	}
}

// indexFrameEnd returns the index just past the first "\n\n" in b, or -1.
func indexFrameEnd(b []byte) int {
	for i := 0; i+1 < len(b); i++ {
		if b[i] == '\n' && b[i+1] == '\n' {
			return i + 2
		}
	}
	return -1
}

// chaosConn applies stream plans to one accepted connection. Each
// sniffed HTTP request line starts a fresh exchange: the rules are
// planned for it, and the write-side frame filter restarts so frame
// indices are per-response.
type chaosConn struct {
	net.Conn
	inj  *Injector
	plan streamPlan // current exchange's plan

	responded bool // first write of the current exchange already seen
	filter    *frameFilter
}

func (c *chaosConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && looksLikeRequest(p[:n]) {
		c.plan = splitFaults(c.inj.plan(sniffPath(p[:n])))
		c.responded = false
		c.filter = nil
		if c.plan.refuse {
			c.Conn.Close()
			return 0, net.ErrClosed
		}
	}
	return n, err
}

func (c *chaosConn) Write(p []byte) (int, error) {
	if !c.responded {
		c.responded = true
		if c.plan.firstByte > 0 {
			c.inj.doSleep(c.plan.firstByte)
		}
		c.filter = c.plan.filter(c.inj.doSleep)
	}
	if c.filter == nil {
		return c.Conn.Write(p)
	}
	out, end := c.filter.process(p)
	if len(out) > 0 {
		if _, werr := c.Conn.Write(out); werr != nil {
			return 0, werr
		}
	}
	if end {
		// Cut or torn frame: drop the connection under the server's
		// feet. Report p as written so the handler fails on a later
		// write, like a real half-broken socket.
		c.Conn.Close()
	}
	return len(p), nil
}

// looksLikeRequest reports whether a read chunk begins with an HTTP
// request line — how each new exchange on a (possibly kept-alive)
// connection announces itself.
func looksLikeRequest(b []byte) bool {
	for _, m := range [...]string{"GET ", "POST ", "PUT ", "HEAD ", "DELETE ", "PATCH ", "OPTIONS "} {
		if len(b) >= len(m) && string(b[:len(m)]) == m {
			return true
		}
	}
	return false
}

// sniffPath extracts the request path from an HTTP/1.x request line
// ("POST /v2/shards HTTP/1.1\r\n...") when the whole line sits in the
// first read; returns "" otherwise.
func sniffPath(b []byte) string {
	sp1 := -1
	for i, c := range b {
		if c == '\r' || c == '\n' {
			return ""
		}
		if c != ' ' {
			continue
		}
		if sp1 < 0 {
			sp1 = i
			continue
		}
		if b[sp1+1] != '/' {
			return ""
		}
		return string(b[sp1+1 : i])
	}
	return ""
}
