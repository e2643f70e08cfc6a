// Durability glue: wires the /v2 job store to internal/durable. With
// -data-dir set, every job lifecycle edge (submit, point result, terminal
// status, eviction) is appended to a write-ahead log; at startup,
// persisted jobs are reloaded and half-finished sweeps resume from their
// last completed point. Without -data-dir the durability pointer stays
// nil and every hook below is a no-op, so the in-memory behavior (and its
// responses) are untouched.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"time"

	"delta"
	"delta/internal/durable"
	"delta/internal/spec"
)

// durability wraps the WAL-backed store. All record methods are
// nil-receiver-safe: a nil *durability is the in-memory configuration.
type durability struct {
	store *durable.Store
	log   *log.Logger
}

// openDurability opens the job store in dir.
func openDurability(dir string, storeOpts durable.StoreOptions, logger *log.Logger) (*durability, error) {
	if logger == nil {
		logger = log.Default()
	}
	storeOpts.Log = logger
	st, err := durable.Open(dir, storeOpts)
	if err != nil {
		return nil, err
	}
	return &durability{store: st, log: logger}, nil
}

// recordSubmit persists a newly accepted job (called with the raw
// scenario document so a restart can re-expand it).
func (d *durability) recordSubmit(j *job, scenario json.RawMessage, policy string) {
	if d == nil {
		return
	}
	if err := d.store.RecordSubmit(j.id, j.name, j.total, j.created, scenario, policy); err != nil {
		d.log.Printf("delta-server: persisting job %s submit: %v", j.id, err)
	}
}

// recordResult persists one rendered point result at its dense position.
// The store keeps res itself, so the job record and the durable state
// share one copy of the bytes.
func (d *durability) recordResult(id string, seq int, res json.RawMessage) {
	if d == nil {
		return
	}
	if err := d.store.RecordResult(id, seq, res); err != nil {
		d.log.Printf("delta-server: persisting job %s result %d: %v", id, seq, err)
	}
}

// recordFinish persists a job's terminal transition. Shutdown
// cancellations never reach here: the job must stay "running" durably so
// the next process resumes it (see runJob).
func (d *durability) recordFinish(id string, status jobStatus, errMsg string, at time.Time) {
	if d == nil {
		return
	}
	if err := d.store.RecordFinish(id, string(status), errMsg, at); err != nil {
		d.log.Printf("delta-server: persisting job %s finish: %v", id, err)
	}
}

// recordEvict truncates a job's durable state (TTL/capacity eviction or a
// client DELETE discarding it).
func (d *durability) recordEvict(id string) {
	if d == nil {
		return
	}
	if err := d.store.RecordEvict(id); err != nil {
		d.log.Printf("delta-server: evicting job %s from durable store: %v", id, err)
	}
}

// storeStats is the nil-safe metrics view.
func (d *durability) storeStats() durable.StoreStats {
	if d == nil || d.store == nil {
		return durable.StoreStats{}
	}
	return d.store.Stats()
}

// close compacts the store into a clean snapshot.
func (d *durability) close() {
	if d == nil {
		return
	}
	if err := d.store.Close(); err != nil {
		d.log.Printf("delta-server: closing durable store: %v", err)
	}
}

// resumeJobs reloads persisted jobs into the in-memory store and
// relaunches half-finished sweeps from their last completed point.
// Finished jobs are restored as-is (TTL eviction applies from their
// original finish time); running jobs re-expand their scenario — the
// deterministic scenario.Expand order is the contract that makes
// "skip the first len(results) points" resume exactly where the previous
// process stopped. It returns the restored and resumed counts.
func (s *server) resumeJobs() (restored, resumed int) {
	d := s.jobs.durable
	if d == nil {
		return 0, 0
	}
	for _, js := range d.store.Jobs() {
		// The job adopts the persisted bytes as renderPoint wrote them:
		// the WAL checks every frame's CRC and JSON at replay, and the
		// snapshot is decoded whole.
		results := js.Results
		j := &job{
			id: js.ID, name: js.Name, total: js.Total, created: js.Created,
			notify:  make(chan struct{}),
			results: results,
			cancel:  func(error) {},
		}
		if js.Status != durable.StatusRunning {
			j.status, j.errMsg, j.finished = jobStatus(js.Status), js.Error, js.Finished
			s.jobs.adopt(j)
			restored++
			continue
		}

		// A half-finished sweep: adopt it as running, then either finish
		// it from the recovered state or resume the stream.
		policy := delta.StreamFailFast
		if js.Policy == "collect_partial" {
			policy = delta.StreamCollectPartial
		}
		ctx, cancel := context.WithCancelCause(s.jobs.base)
		j.status, j.cancel = jobRunning, cancel
		j.onFinish = func() { s.jobs.running.Add(-1) }
		s.jobs.adopt(j)

		finishNow := func(status jobStatus, msg string) {
			now := s.jobs.cfg.now()
			j.finish(status, msg, now)
			d.recordFinish(j.id, status, msg, now)
			cancel(nil)
		}
		// A fail-fast sweep whose last persisted result errored was
		// crashing between that append and its finish record: classify it
		// now instead of re-running anything. The stream stops at its
		// first error, so only the last result can hold one.
		if policy == delta.StreamFailFast && len(results) > 0 {
			var last struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(results[len(results)-1], &last); err != nil {
				last.Error = fmt.Sprintf("resume: decoding result %d: %v", len(results)-1, err)
			}
			if last.Error != "" {
				finishNow(jobFailed, last.Error)
				continue
			}
		}
		if len(results) >= js.Total {
			// Crashed after the last point, before the finish record.
			finishNow(jobDone, "")
			continue
		}
		sc, err := spec.ReadScenario(bytes.NewReader(js.Scenario))
		if err != nil {
			finishNow(jobFailed, fmt.Sprintf("resume: re-expanding scenario: %v", err))
			continue
		}
		if got := sc.Size(); got != js.Total {
			// The registries changed shape across the restart; resuming
			// by offset would mislabel points. Refuse loudly.
			finishNow(jobFailed, fmt.Sprintf("resume: scenario now expands to %d points, job recorded %d", got, js.Total))
			continue
		}
		if err := s.launch(ctx, j, js.Scenario, sc, len(results), policy); err != nil {
			finishNow(jobFailed, fmt.Sprintf("resume: %v", err))
			continue
		}
		resumed++
	}
	if restored+resumed > 0 {
		d.log.Printf("delta-server: durable store: restored %d finished job(s), resumed %d running job(s)", restored, resumed)
	}
	return restored, resumed
}
