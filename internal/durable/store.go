package durable

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Job statuses as persisted. They mirror the server's job states; the
// store keeps its own strings so it stays importable without a cycle.
const (
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// FsyncMode selects how eagerly WAL appends reach stable storage.
type FsyncMode int

const (
	// FsyncInterval syncs on a background ticker (the default): a crash
	// loses at most one interval of appended records, and the append hot
	// path never waits on the disk.
	FsyncInterval FsyncMode = iota

	// FsyncAlways syncs after every append: nothing acknowledged is ever
	// lost, at the cost of one fsync per lifecycle record.
	FsyncAlways

	// FsyncNever leaves flushing to the OS page cache.
	FsyncNever
)

// ParseFsyncMode maps the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync mode %q (want always, interval, or never)", s)
}

// JobState is one job's persisted state: the submit-time identity (enough
// to re-expand and resume the sweep), the results appended so far in
// expansion order, and the terminal status once reached.
type JobState struct {
	ID       string          `json:"id"`
	Name     string          `json:"name,omitempty"`
	Total    int             `json:"total"`
	Created  time.Time       `json:"created"`
	Scenario json.RawMessage `json:"scenario,omitempty"`
	Policy   string          `json:"policy,omitempty"`

	Status   string    `json:"status"`
	Error    string    `json:"error,omitempty"`
	Finished time.Time `json:"finished,omitempty"`

	// Results holds the rendered point payloads, dense in expansion
	// order: len(Results) is the resume offset.
	Results []json.RawMessage `json:"results,omitempty"`
}

// StoreOptions configures Open; zero values take the defaults.
type StoreOptions struct {
	Fsync         FsyncMode
	FsyncInterval time.Duration // default 100ms (FsyncInterval mode only)

	// CompactEvery triggers a snapshot + WAL truncation after this many
	// appended records (default 4096; <0 disables auto-compaction).
	CompactEvery int

	// Log receives replay and compaction notices; nil means log.Default().
	Log *log.Logger
}

// StoreStats is a point-in-time view of the store's activity counters.
type StoreStats struct {
	Records      uint64 // records appended this process
	Compactions  uint64 // snapshots written
	ReplayedJobs int    // jobs recovered at Open
	TornBytes    int64  // bytes dropped from the WAL tail at Open
}

// Store is the WAL-backed job store: an in-memory state map kept in sync
// with an append-only log, compacted into an atomic snapshot file. All
// methods are safe for concurrent use.
type Store struct {
	dir  string
	opts StoreOptions
	log  *log.Logger

	mu       sync.Mutex
	jobs     map[string]*JobState
	wal      *os.File
	walSize  int64
	sinceCmp int // records since last compaction
	closed   bool

	records     atomic.Uint64
	compactions atomic.Uint64
	replayed    int
	tornBytes   int64

	stopSync chan struct{}
	syncDone chan struct{}
}

const (
	walName      = "wal.log"
	snapshotName = "snapshot.json"
)

// Open loads (or initializes) the durable job store in dir: the snapshot
// is read first, the WAL replayed on top, and a torn or corrupt WAL tail
// is truncated away with a logged notice. The directory is created if
// missing.
func Open(dir string, opts StoreOptions) (*Store, error) { //lint:ignore ctxflow the Store owns its fsync loop; Close stops it
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 4096
	}
	logger := opts.Log
	if logger == nil {
		logger = log.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating data dir: %w", err)
	}
	s := &Store{
		dir: dir, opts: opts, log: logger,
		jobs:     make(map[string]*JobState),
		stopSync: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayAndOpenWAL(); err != nil {
		return nil, err
	}
	s.replayed = len(s.jobs)
	if opts.Fsync == FsyncInterval {
		go s.syncLoop()
	} else {
		close(s.syncDone)
	}
	return s, nil
}

// loadSnapshot reads snapshot.json if present. A corrupt snapshot is a
// hard error: the WAL after it was truncated at the last compaction, so
// silently starting empty would discard every job. The operator can move
// the file aside to accept the loss explicitly.
func (s *Store) loadSnapshot() error {
	buf, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("durable: reading snapshot: %w", err)
	}
	var snap struct {
		Jobs []*JobState `json:"jobs"`
	}
	if err := json.Unmarshal(buf, &snap); err != nil {
		return fmt.Errorf("durable: corrupt snapshot %s (move it aside to start empty): %w",
			filepath.Join(s.dir, snapshotName), err)
	}
	for _, js := range snap.Jobs {
		s.jobs[js.ID] = js
	}
	return nil
}

// replayAndOpenWAL applies the log over the snapshot state, truncates any
// torn tail, and leaves the file open for appending.
func (s *Store) replayAndOpenWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("durable: opening WAL: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("durable: stat WAL: %w", err)
	}
	valid, dropped, err := replayWAL(f, info.Size(), s.apply)
	if err != nil {
		f.Close()
		return err
	}
	if dropped > 0 {
		s.log.Printf("durable: dropping %d torn/corrupt byte(s) from WAL tail (keeping %d-byte valid prefix)",
			dropped, valid)
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return fmt.Errorf("durable: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return fmt.Errorf("durable: seeking WAL: %w", err)
	}
	s.wal, s.walSize, s.tornBytes = f, valid, dropped
	return nil
}

// apply folds one replayed record into the state map. Records referencing
// unknown jobs (evicted before the crash, or written after a racing
// delete) are skipped, not errors — the log is allowed to be ahead of the
// state it reaches.
func (s *Store) apply(rec walRecord) error {
	switch rec.T {
	case recSubmit:
		s.jobs[rec.Job] = &JobState{
			ID: rec.Job, Name: rec.Name, Total: rec.Total,
			Created:  time.Unix(0, rec.CreatedUnix).UTC(),
			Scenario: rec.Scenario, Policy: rec.Policy,
			Status: StatusRunning,
		}
	case recResult:
		js, ok := s.jobs[rec.Job]
		if !ok {
			return nil
		}
		switch {
		case rec.Seq == len(js.Results):
			js.Results = append(js.Results, rec.Payload)
		case rec.Seq < len(js.Results):
			// Duplicate append (a crash between WAL write and ack): the
			// first copy wins, results stay dense.
		default:
			// A gap would break the resume-offset contract; keep the
			// prefix and let re-evaluation fill the rest.
			s.log.Printf("durable: job %s result seq %d after %d results; ignoring gap",
				rec.Job, rec.Seq, len(js.Results))
		}
	case recFinish:
		js, ok := s.jobs[rec.Job]
		if !ok {
			return nil
		}
		if js.Status == StatusRunning {
			js.Status, js.Error = rec.Status, rec.Error
			js.Finished = time.Unix(0, rec.FinishedUnix).UTC()
		}
	case recEvict:
		delete(s.jobs, rec.Job)
	default:
		// Unknown record types are skipped: a newer writer's, so a
		// downgraded binary can still read its successor's log, and the
		// "shard" records older coordinators wrote.
		s.log.Printf("durable: skipping unknown WAL record type %q", rec.T)
	}
	return nil
}

// Jobs returns the persisted jobs sorted by creation time (oldest first),
// each a deep-enough copy that callers can hold them across appends.
func (s *Store) Jobs() []*JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobState, 0, len(s.jobs))
	for _, js := range s.jobs {
		c := *js
		c.Results = append([]json.RawMessage(nil), js.Results...)
		out = append(out, &c)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// append writes one record to the WAL (and mirrors it into the in-memory
// state) under the store lock.
func (s *Store) append(rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("durable: encoding WAL record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	frame := appendFrame(nil, payload)
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("durable: appending WAL record: %w", err)
	}
	s.walSize += int64(len(frame))
	if s.opts.Fsync == FsyncAlways {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("durable: fsync WAL: %w", err)
		}
	}
	if err := s.apply(rec); err != nil {
		return err
	}
	s.records.Add(1)
	s.sinceCmp++
	if s.opts.CompactEvery > 0 && s.sinceCmp >= s.opts.CompactEvery {
		if err := s.compactLocked(); err != nil {
			// Compaction failure is not fatal to the append — the WAL
			// already holds the record — but is worth a loud notice.
			s.log.Printf("durable: auto-compaction failed: %v", err)
		}
	}
	return nil
}

// RecordSubmit persists a newly accepted job.
func (s *Store) RecordSubmit(id, name string, total int, created time.Time, scenario json.RawMessage, policy string) error {
	return s.append(walRecord{
		T: recSubmit, Job: id, Name: name, Total: total,
		CreatedUnix: created.UnixNano(), Scenario: scenario, Policy: policy,
	})
}

// RecordResult persists one streamed point result. Seq must be the
// result's dense position (the job's current result count).
func (s *Store) RecordResult(id string, seq int, payload json.RawMessage) error {
	return s.append(walRecord{T: recResult, Job: id, Seq: seq, Payload: payload})
}

// RecordFinish persists a job's terminal transition.
func (s *Store) RecordFinish(id, status, errMsg string, at time.Time) error {
	return s.append(walRecord{
		T: recFinish, Job: id, Status: status, Error: errMsg,
		FinishedUnix: at.UnixNano(),
	})
}

// RecordEvict removes a job's durable state (TTL/capacity eviction or a
// client DELETE); compaction then drops it from the snapshot too.
func (s *Store) RecordEvict(id string) error {
	return s.append(walRecord{T: recEvict, Job: id})
}

// Compact writes an atomic snapshot of the current state and truncates
// the WAL, bounding replay time and disk use.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	jobs := make([]*JobState, 0, len(s.jobs))
	for _, js := range s.jobs {
		jobs = append(jobs, js)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	buf, err := json.Marshal(struct {
		Jobs []*JobState `json:"jobs"`
	}{jobs})
	if err != nil {
		return fmt.Errorf("durable: encoding snapshot: %w", err)
	}
	final := filepath.Join(s.dir, snapshotName)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	_, werr := f.Write(buf)
	if werr == nil && s.opts.Fsync != FsyncNever {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: writing snapshot: %w", werr)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: publishing snapshot: %w", err)
	}
	// The WAL shrinks only after the snapshot is durably in place: a
	// crash between the two replays a WAL whose records are already in
	// the snapshot, which apply tolerates (duplicates are no-ops).
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("durable: truncating WAL after snapshot: %w", err)
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("durable: seeking WAL after snapshot: %w", err)
	}
	s.walSize, s.sinceCmp = 0, 0
	s.compactions.Add(1)
	return nil
}

// syncLoop is the FsyncInterval flusher.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				_ = s.wal.Sync()
			}
			s.mu.Unlock()
		case <-s.stopSync:
			return
		}
	}
}

// Close compacts one final time (the clean-shutdown snapshot) and closes
// the WAL. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.compactLocked()
	s.closed = true
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.mu.Unlock()
	close(s.stopSync)
	<-s.syncDone
	return err
}

// Stats returns the store's activity counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Records:      s.records.Load(),
		Compactions:  s.compactions.Load(),
		ReplayedJobs: s.replayed,
		TornBytes:    s.tornBytes,
	}
}
