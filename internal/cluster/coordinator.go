// Coordinator side of distributed sweeps: expand the scenario once, split
// the point index space into dense shards, queue them, and let one runner
// per peer pull the queue head whenever it is free. Each attempt streams
// its shard's results back over SSE into a merger that restores exact
// scenario.Expand order.
//
// One rule covers load balance, stragglers and failures. A runner that
// finds the queue empty takes the back half of the in-flight shard with
// the most undelivered points; a one-point remainder is run again instead,
// the first copy to finish wins and the other is cancelled. A failed
// attempt puts its undelivered remainder back at the queue head, charged
// against the shard's attempt budget, and the peer that failed it may not
// take it back while another peer has not failed it yet. Attempts always start at the
// shard's delivered high-water mark, so no point is skipped and none
// reaches the result twice.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"delta/internal/obs"
	"delta/internal/pipeline"
	"delta/internal/scenario"
	"delta/internal/spec"
	"delta/internal/sse"
)

// Fleet metric names, package-level constants by house rule (delta-vet's
// metrichygiene analyzer): one greppable block for the whole
// delta_cluster_ namespace.
const (
	metricShards   = "delta_cluster_shards_total"
	metricRetries  = "delta_cluster_shard_retries_total"
	metricInFlight = "delta_cluster_shards_in_flight"
	metricMerged   = "delta_cluster_points_merged_total"
	metricMergeLag = "delta_cluster_merge_lag"
	metricPeerUp   = "delta_cluster_peer_up"
	metricHedged   = "delta_cluster_hedged_shards_total"
	metricSplits   = "delta_cluster_shard_splits_total"
)

// metricShards status values: an attempt that delivered its window, one
// that failed, and one that lost to a re-run of the same window.
const (
	statusDone      = "done"
	statusFailed    = "failed"
	statusCancelled = "cancelled"
)

// Fixed dispatch policy. A sweep is queued as shardsPerPeer dense shards
// per peer, capped at the point count; one shard per peer measured no
// faster on perfbench's fleet-sim workload (2 vCPUs, 10 paired runs). A
// runner backs off at most maxBackoff after consecutive failed attempts,
// and a /healthz probe waits at most healthTimeout.
const (
	shardsPerPeer = 4
	maxBackoff    = 5 * time.Second
	healthTimeout = 2 * time.Second
)

// Metrics is the fleet's instrumentation; register with NewMetrics and
// share one instance across sweeps.
type Metrics struct {
	Shards   *obs.CounterVec // metricShards{peer,status}
	Retries  *obs.Counter    // metricRetries
	InFlight *obs.Gauge      // metricInFlight
	Merged   *obs.Counter    // metricMerged
	MergeLag *obs.Gauge      // metricMergeLag
	PeerUp   *obs.GaugeVec   // metricPeerUp{peer}
	Hedged   *obs.Counter    // metricHedged
	Splits   *obs.Counter    // metricSplits
}

// NewMetrics registers the fleet series on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Shards:   r.CounterVec(metricShards, "Finished shard attempts by peer and outcome (done, failed, cancelled).", "peer", "status"),
		Retries:  r.Counter(metricRetries, "Failed shard remainders put back on the queue."),
		InFlight: r.Gauge(metricInFlight, "Shard attempts currently streaming from peers."),
		Merged:   r.Counter(metricMerged, "Scenario points merged into coordinator results."),
		MergeLag: r.Gauge(metricMergeLag, "Points received out of order, buffered awaiting the in-order merge."),
		PeerUp:   r.GaugeVec(metricPeerUp, "Last observed peer reachability (1 ready, 0 unreachable or degraded).", "peer"),
		Hedged:   r.Counter(metricHedged, "One-point shard remainders re-run on a second peer."),
		Splits:   r.Counter(metricSplits, "In-flight shards whose back half an idle peer took over."),
	}
}

// Config wires a Coordinator; Peers is required, everything else defaults.
type Config struct {
	// Peers are the workers' base URLs (e.g. http://host:8080).
	Peers []string

	// ShardTimeout bounds one shard attempt end to end (default 10m).
	ShardTimeout time.Duration

	// RetryBackoff paces a runner after its n-th consecutive failed
	// attempt: RetryBackoff (default 250ms) doubled n-1 times, capped at
	// maxBackoff, jittered ±50%.
	RetryBackoff time.Duration

	// Token authenticates against the workers' bearer-auth middleware.
	Token string

	// Client tunes the per-attempt SSE reconnect policy; zero values take
	// the Client defaults.
	ClientRetries int
	ClientBackoff time.Duration

	// Metrics records fleet series; nil records into a private registry.
	Metrics *Metrics
	Log     *log.Logger
}

// Coordinator fans scenario sweeps out across a worker fleet.
type Coordinator struct {
	cfg Config
}

// New validates the config and applies defaults.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no peers")
	}
	peers := make([]string, len(cfg.Peers))
	for i, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer %d", i)
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		peers[i] = p
	}
	cfg.Peers = peers
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Minute
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(obs.NewRegistry())
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	return &Coordinator{cfg: cfg}, nil
}

// Peers returns the normalized peer URLs.
func (c *Coordinator) Peers() []string { return append([]string(nil), c.cfg.Peers...) }

// Update is one merged per-point result, delivered in expansion order.
type Update struct {
	// Index is the point's position in expansion order (dense from the
	// sweep's offset).
	Index int

	// Err is the point's evaluation error ("" on success).
	Err string

	// Payload is the worker-rendered result as its frame carried it: the
	// bytes the same point renders single-node, unless the frame broke
	// them across several data lines.
	Payload json.RawMessage
}

// Sweep describes one distributed run.
type Sweep struct {
	// Doc is the scenario document forwarded verbatim to workers.
	Doc json.RawMessage

	// Scenario is the same document resolved locally — the coordinator
	// expands it once for the point count, and trusts workers to expand
	// identically (scenario.Expand is deterministic).
	Scenario scenario.Scenario

	// Offset resumes a sweep: points before it are already merged
	// (len of the durable results), so only [Offset, Size()) is dispatched.
	Offset int

	// Policy is applied to the merged in-order stream: FailFast stops
	// emitting at the first erroring point exactly like a single-node
	// fail-fast sweep; CollectPartial delivers every point.
	Policy pipeline.ErrorPolicy
}

// Sentinel causes: the run context's completion causes, and the emit
// abort that ends an attempt at the split point of its shortened shard.
var (
	errSweepDone    = errors.New("cluster: sweep complete")
	errSweepStopped = errors.New("cluster: sweep stopped at failing point")
	errSplitEnd     = errors.New("cluster: shard ends at split point")
)

// shard is one dense window [off, end) of the sweep. A split lowers end
// and queues the back half as a new shard; next is the first point no
// attempt has delivered to the merger yet.
type shard struct {
	idx, off, end, next int

	fails    int    // failed attempts, charged against the attempt budget
	failedBy []bool // per peer: an attempt on this window failed there
	attempts int    // dispatches, numbering attempts in the requeue log
	running  []*attempt
	done     bool
}

// mayTake reports whether peer may run s: not once it has failed s, while
// another peer has not failed it yet.
func (s *shard) mayTake(peer int) bool {
	if !s.failedBy[peer] {
		return true
	}
	for _, failed := range s.failedBy {
		if !failed {
			return false
		}
	}
	return true
}

// attempt is one peer's stream of a shard's window [from, to).
type attempt struct {
	s        *shard
	peer, no int
	from, to int
	ctx      context.Context
	cancel   context.CancelFunc
}

// sweep is one Run's dispatch state. mu guards the queue and every shard;
// the merger has its own lock and is never called with mu held.
type sweep struct {
	c      *Coordinator
	sw     Sweep
	m      *merger
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu      sync.Mutex
	queue   []*shard      // waiting shards, head first
	shards  []*shard      // every shard, by index
	pending int           // shards not yet done
	wake    chan struct{} // closed by notify when take may find new work
}

// Run executes the sweep, delivering merged updates in expansion order via
// emit (called serially). It returns nil when the sweep completes or stops
// at a failing point under FailFast — point errors ride in the updates —
// and an error only for coordination failures: context cancellation, an
// emit error, or a shard exhausting its attempt budget.
func (c *Coordinator) Run(ctx context.Context, sw Sweep, emit func(Update) error) error {
	points, err := sw.Scenario.Expand()
	if err != nil {
		return err
	}
	size := len(points)
	offset := max(sw.Offset, 0)
	if offset >= size {
		return nil
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	st := &sweep{
		c: c, sw: sw, ctx: runCtx, cancel: cancel, wake: make(chan struct{}),
		m: &merger{
			next: offset, total: size, buf: make(map[int]Update),
			emit: emit, failFast: sw.Policy == pipeline.FailFast,
			stop: func() { cancel(errSweepStopped) }, metrics: c.cfg.Metrics,
		},
	}
	for _, r := range scenario.SplitSpan(offset, size-offset, len(c.cfg.Peers)*shardsPerPeer) {
		st.shards = append(st.shards, &shard{
			idx: len(st.shards), off: r.Offset, end: r.End(), next: r.Offset,
			failedBy: make([]bool, len(c.cfg.Peers)),
		})
	}
	st.queue = append(st.queue, st.shards...)
	st.pending = len(st.shards)

	var wg sync.WaitGroup
	for peer := range c.cfg.Peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.run(peer)
		}()
	}
	wg.Wait() // runners return once runCtx ends

	cause := context.Cause(runCtx)
	switch {
	case errors.Is(cause, errSweepDone), errors.Is(cause, errSweepStopped):
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		return cause
	}
}

// run is one peer's runner: it takes work until the sweep ends, and after
// its n-th consecutive failed attempt waits out backoff n first.
func (st *sweep) run(peer int) {
	fails := 0
	for {
		a, wake := st.take(peer)
		if a == nil {
			select {
			case <-wake:
				continue
			case <-st.ctx.Done():
				return
			}
		}
		switch st.finish(a, st.stream(a)) {
		case statusDone:
			fails = 0
		case statusFailed:
			fails++
			if !sleepCtx(st.ctx, backoffFor(st.c.cfg.RetryBackoff, maxBackoff, fails)) {
				return
			}
		}
	}
}

// take starts peer's next attempt: the first queued shard it may run, else
// the back half of the in-flight shard with the most undelivered points,
// else a re-run of a one-point remainder. With nothing to take it returns
// a channel that closes when that may have changed.
func (st *sweep) take(peer int) (*attempt, <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, s := range st.queue {
		if s.mayTake(peer) {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return st.start(s, peer), nil
		}
	}
	var big *shard
	for _, s := range st.shards {
		if len(s.running) == 1 && s.end > s.next && s.mayTake(peer) &&
			(big == nil || s.end-s.next > big.end-big.next) {
			big = s
		}
	}
	switch {
	case big == nil:
		return nil, st.wake
	case big.end-big.next == 1:
		st.c.cfg.Metrics.Hedged.Inc()
		return st.start(big, peer), nil
	}
	// The running attempt keeps the front half: it is already computing
	// its next point.
	mid := big.next + (big.end-big.next+1)/2
	back := &shard{
		idx: len(st.shards), off: mid, end: big.end, next: mid,
		fails: big.fails, failedBy: append([]bool(nil), big.failedBy...),
	}
	big.end = mid
	st.shards = append(st.shards, back)
	st.pending++
	st.c.cfg.Metrics.Splits.Inc()
	return st.start(back, peer), nil
}

// start opens peer's attempt on s's undelivered window. Callers hold st.mu.
func (st *sweep) start(s *shard, peer int) *attempt {
	s.attempts++
	a := &attempt{s: s, peer: peer, no: s.attempts, from: s.next, to: s.end}
	a.ctx, a.cancel = context.WithTimeout(st.ctx, st.c.cfg.ShardTimeout)
	s.running = append(s.running, a)
	st.c.cfg.Metrics.InFlight.Inc()
	st.notify()
	return a
}

// advance notes that a has delivered every point before next, and reports
// whether a split has ended a's shard there, short of a's request.
func (st *sweep) advance(a *attempt, next int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	a.s.next = max(a.s.next, next)
	return next >= a.s.end && a.s.end < a.to
}

// finish settles a and returns its outcome: done, failed, cancelled when
// a re-run of the same window won, or "" when the sweep ended first.
func (st *sweep) finish(a *attempt, err error) string {
	a.cancel()
	st.mu.Lock()
	defer st.mu.Unlock()
	s, mt := a.s, st.c.cfg.Metrics
	for i, r := range s.running {
		if r == a {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	mt.InFlight.Dec()
	st.notify()
	peer := peerLabel(st.c.cfg.Peers[a.peer])
	switch {
	case s.done:
		mt.Shards.With(peer, statusCancelled).Inc()
		return statusCancelled
	case st.ctx.Err() != nil:
		return ""
	case err == nil:
		s.done = true
		for _, r := range s.running {
			r.cancel()
		}
		mt.Shards.With(peer, statusDone).Inc()
		mt.PeerUp.With(peer).Set(1)
		if st.pending--; st.pending == 0 {
			st.cancel(errSweepDone)
		}
		return statusDone
	}

	s.fails++
	s.failedBy[a.peer] = true
	mt.Shards.With(peer, statusFailed).Inc()
	mt.PeerUp.With(peer).Set(0)
	var ee errEmit
	switch {
	case errors.As(err, &ee):
		st.cancel(fmt.Errorf("cluster: merging shard %d: %w", s.idx, ee.err))
	case len(s.running) > 0:
		// A re-run still streams the window.
	case s.fails >= max(3, len(st.c.cfg.Peers)+1):
		// The budget lets every peer fail the shard once.
		st.cancel(fmt.Errorf("cluster: shard %d [%d,%d) failed after %d attempt(s), last on %s: %w",
			s.idx, s.off, s.end, s.fails, peer, err))
	default:
		mt.Retries.Inc()
		st.c.cfg.Log.Printf("cluster: shard %d attempt %d on %s failed (%v); requeued", s.idx, a.no, peer, err)
		st.queue = append([]*shard{s}, st.queue...)
	}
	return statusFailed
}

// notify wakes the runners waiting in take. Callers hold st.mu.
func (st *sweep) notify() {
	close(st.wake)
	st.wake = make(chan struct{})
}

// stream runs one attempt: POST the window to the peer's /v2/shards and
// merge result frames as they arrive. It returns nil once the shard's
// window, which a split may have shortened, is delivered.
func (st *sweep) stream(a *attempt) error {
	c := st.c
	body, err := json.Marshal(spec.ShardSpec{Scenario: st.sw.Doc, Offset: a.from, Limit: a.to - a.from})
	if err != nil {
		return errEmit{err} // malformed sweep doc: retrying cannot help
	}
	cli := &Client{Token: c.cfg.Token, Retries: c.cfg.ClientRetries, Backoff: c.cfg.ClientBackoff}
	next, doneCount := a.from, 0
	err = cli.Stream(a.ctx, c.cfg.Peers[a.peer]+"/v2/shards", body, func(ev sse.Event) error {
		switch ev.Type {
		case "result":
			var res wireResult
			if uerr := json.Unmarshal(ev.Data, &res); uerr != nil {
				return BadFrameError{fmt.Errorf("cluster: bad result frame: %w", uerr)}
			}
			if res.Index != next {
				return BadFrameError{fmt.Errorf("cluster: shard %d: point %d out of order (want %d)", a.s.idx, res.Index, next)}
			}
			if merr := st.m.deliver(Update{Index: res.Index, Err: res.Error, Payload: res.Payload}); merr != nil {
				return merr
			}
			next++
			if st.advance(a, next) {
				return errSplitEnd
			}
		case "done":
			var d wireDone
			if uerr := json.Unmarshal(ev.Data, &d); uerr != nil {
				return BadFrameError{fmt.Errorf("cluster: bad done frame: %w", uerr)}
			}
			if d.Error != "" {
				return fmt.Errorf("cluster: worker failed shard: %s", d.Error)
			}
			doneCount = d.Count
		}
		return nil
	})
	switch {
	case errors.Is(err, errSplitEnd):
		return nil
	case err != nil:
		return err
	case next != a.to || doneCount != a.to-a.from:
		// The done frame counts this attempt's window, not the shard's.
		return fmt.Errorf("cluster: shard %d short: got %d of %d point(s) (done frame said %d)",
			a.s.idx, next-a.from, a.to-a.from, doneCount)
	}
	return nil
}

// peerLabel is the metric and log label for a peer URL (scheme stripped to
// bound label churn across config styles).
func peerLabel(u string) string {
	if _, rest, ok := strings.Cut(u, "://"); ok {
		return rest
	}
	return u
}

// merger folds concurrent shard results back into expansion order: updates
// buffer until their index is next, then emit in order. Stale duplicates
// (reconnect replays racing an advanced resume offset, or both copies of a
// re-run point) are dropped; under FailFast the first erroring in-order
// point stops the sweep exactly where a single-node fail-fast stream
// would.
type merger struct {
	mu       sync.Mutex
	next     int
	total    int
	buf      map[int]Update
	emit     func(Update) error
	failFast bool
	stopped  bool
	stop     func()
	metrics  *Metrics
}

func (m *merger) deliver(u Update) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped || u.Index < m.next {
		return nil
	}
	if _, dup := m.buf[u.Index]; dup {
		return nil
	}
	m.buf[u.Index] = u
	for {
		nu, ok := m.buf[m.next]
		if !ok {
			break
		}
		delete(m.buf, m.next)
		if err := m.emit(nu); err != nil {
			m.stopped = true
			return errEmit{err}
		}
		m.next++
		if m.metrics != nil {
			m.metrics.Merged.Inc()
		}
		if nu.Err != "" && m.failFast {
			m.stopped = true
			m.stop()
			break
		}
	}
	if m.metrics != nil {
		m.metrics.MergeLag.Set(int64(len(m.buf)))
	}
	return nil
}

// PeerStatus is one peer's probed health.
type PeerStatus struct {
	Peer string `json:"peer"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

// PeerHealth probes every peer's /healthz concurrently (each bounded by
// healthTimeout) and updates the per-peer reachability gauge. A peer is OK
// only on HTTP 200 — reachable-but-degraded workers count against quorum.
// Only /healthz is probed: a peer whose /v2/shards fails still reads as
// up; the shard queue routes around it.
func (c *Coordinator) PeerHealth(ctx context.Context) []PeerStatus {
	out := make([]PeerStatus, len(c.cfg.Peers))
	var wg sync.WaitGroup
	for i, peerURL := range c.cfg.Peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := PeerStatus{Peer: peerLabel(peerURL)}
			pctx, cancel := context.WithTimeout(ctx, healthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, peerURL+"/healthz", nil)
			if err == nil {
				var resp *http.Response
				resp, err = http.DefaultClient.Do(req)
				if err == nil {
					if resp.StatusCode == http.StatusOK {
						st.OK = true
					} else {
						st.Err = fmt.Sprintf("status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
			if err != nil {
				st.Err = err.Error()
			}
			up := int64(0)
			if st.OK {
				up = 1
			}
			c.cfg.Metrics.PeerUp.With(st.Peer).Set(up)
			out[i] = st
		}()
	}
	wg.Wait()
	return out
}

// Quorum reports whether a majority (n/2+1) of probed peers are OK.
func Quorum(sts []PeerStatus) bool {
	up := 0
	for _, st := range sts {
		if st.OK {
			up++
		}
	}
	return up >= len(sts)/2+1
}
