package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	server   string // delta-server binary
	self     string // this binary, re-run as the sim-l2sweep child
	dir      string // per-run directory for process logs and the span dump
}

// setups is how many times an untraced run sets the system up; setup_s is
// the median. The traced run sets up once.
const setups = 3

// outcome is what a run measured.
type outcome struct {
	attempted, failed int
	errs              []string

	setups []float64 // seconds per setup
	opMs   []float64 // timed-phase op latencies
	points int       // verified points of the timed phase
	wall   float64   // timed-phase seconds
	rssMB  float64

	layers map[string]float64 // traced run only
	info   map[string]any     // reported, never gated
}

func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 5 {
			o.errs = append(o.errs, err.Error())
		}
	}
}

// workload describes a server workload: its op generator, warm-up size,
// points per op, and the system under test it starts. One op is in flight
// at a time.
type workload struct {
	gen    func(seed int64) func(i int) op // generator factory
	warmup int
	points int
	start  func(ctx context.Context, rc runConfig, c *http.Client) (*sut, error)
	// maxRate bounds the ops per second a run can complete.
	maxRate float64
	// replays caps how many traced ops are replayed in-process, the first
	// memoReplays of them also through fresh and memo-less pipelines.
	replays, memoReplays int
}

// sut is the set of server processes under test; ops go to procs[0].
type sut struct {
	procs []*proc
}

func (s *sut) base() string { return "http://" + s.procs[0].addr }

// stop kills every process and reports whether any left a stray behind.
func (s *sut) stop() (stray bool) {
	for _, p := range s.procs {
		if p.stop() {
			stray = true
		}
	}
	return stray
}

// rssMB sums the processes' peak resident sets.
func (s *sut) rssMB() (float64, error) {
	var sum float64
	for _, p := range s.procs {
		v, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// scrapeAll reads /metrics of every process, as one traced span each.
func (s *sut) scrapeAll(ctx context.Context, c *http.Client, tr *tracer, opID int) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(s.procs))
	for i, p := range s.procs {
		end := tr.start("server.scrape", opID, 0)
		m, err := scrape(ctx, c, "http://"+p.addr)
		end()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		out[i] = m
	}
	return out, nil
}

// startServers launches delta-server processes and waits until each
// answers /healthz. flags[i] are the extra flags of process i; a flag
// value "{peers}" is replaced by the URLs of the processes started before.
func startServers(ctx context.Context, rc runConfig, c *http.Client, names []string, flags [][]string) (*sut, error) {
	s := &sut{}
	var urls []string
	for i, name := range names {
		fl := append([]string(nil), flags[i]...)
		for j, f := range fl {
			if f == "{peers}" {
				fl[j] = strings.Join(urls, ",")
			}
		}
		p, err := startServer(ctx, c, name, rc.dir, rc.server, fl...)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.procs = append([]*proc{p}, s.procs...)
		urls = append(urls, "http://"+p.addr)
	}
	return s, nil
}

// opRecord is one op as the client ran it.
type opRecord struct {
	o    op
	ms   float64
	err  error
	job  jobRun
	read int // bytes read, kept after the answers are dropped
	// Traced runs scrape every process before and after the op.
	before, after []map[string]float64
}

// do runs one op against the front server.
func (s *sut) do(ctx context.Context, c *http.Client, o op, tr *tracer) opRecord {
	rec := opRecord{o: o}
	root := tr.reserve()
	t := time.Now()
	rec.job, rec.err = runJob(ctx, c, s.base(), o.body, tr, o.index, root)
	rec.ms = msSince(t)
	rec.read = len(rec.job.submit) + len(rec.job.events)
	tr.record(root, "op", o.index, 0, t, time.Now())
	return rec
}

// phase is a sequence of ops run back to back.
type phase struct {
	ops         []opRecord
	wall        time.Duration
	first, last []map[string]float64 // scrapes around a traced phase
}

// runOps runs ops at(first), at(first+1), ... back to back until n ops ran
// (n > 0) or d elapsed (the op in flight at the deadline finishes). A
// non-nil tracer records spans and scrapes every process around each op.
func (s *sut) runOps(ctx context.Context, c *http.Client, at func(int) op, first, n int, d time.Duration, tr *tracer) (phase, error) {
	var ph phase
	var err error
	if tr != nil {
		if ph.first, err = s.scrapeAll(ctx, c, tr, -1); err != nil {
			return ph, err
		}
	}
	t0 := time.Now()
	more := func(k int) bool {
		if n > 0 {
			return k < n
		}
		return time.Since(t0) < d
	}
	for k := 0; more(k); k++ {
		o := at(first + k)
		var before []map[string]float64
		if tr != nil {
			if before, err = s.scrapeAll(ctx, c, tr, o.index); err != nil {
				return ph, err
			}
		}
		rec := s.do(ctx, c, o, tr)
		if tr != nil {
			rec.before = before
			if rec.after, err = s.scrapeAll(ctx, c, tr, o.index); err != nil {
				return ph, err
			}
		}
		ph.ops = append(ph.ops, rec)
	}
	ph.wall = time.Since(t0)
	if tr != nil {
		if ph.last, err = s.scrapeAll(ctx, c, tr, -1); err != nil {
			return ph, err
		}
	}
	return ph, nil
}
