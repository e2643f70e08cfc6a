// Coordinator-mode glue: with -coordinator -peers, /v2 job sweeps are
// sharded across a fleet of delta-server workers (internal/cluster) and
// the merged per-point stream is drained into the same job record a
// single-node sweep fills. Workers encode points with renderPoint and the
// coordinator stores their bytes, so a distributed job's results —
// payloads, ordering, progress counts — are byte-identical to running the
// sweep on one node.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"delta"
	"delta/internal/cluster"
)

// runClusterJob drains a distributed sweep into the job record, the
// coordinator-mode counterpart of runJob. The coordinator merges worker
// shard streams back into expansion order, so appends land exactly as the
// single-node stream would deliver them, and a fail-fast merger stops
// emitting at the failing point, so the stored prefix matches a
// single-node run.
func (s *server) runClusterJob(ctx context.Context, j *job, doc json.RawMessage, sc delta.Scenario, offset int, policy delta.StreamErrorPolicy) {
	defer s.jobs.runners.Done()
	defer j.cancel(nil)
	var firstErr string
	runErr := s.coord.Run(ctx, cluster.Sweep{
		Doc: doc, Scenario: sc, Offset: offset, Policy: policy,
	}, func(u cluster.Update) error {
		// Compacting checks the peer's bytes and keeps each stored result
		// on one SSE data line, however the worker's frame broke it.
		var buf bytes.Buffer
		if err := json.Compact(&buf, u.Payload); err != nil {
			return fmt.Errorf("worker result %d: %w", u.Index, err)
		}
		res := json.RawMessage(buf.Bytes())
		s.jobs.durable.recordResult(j.id, j.append(res), res)
		if firstErr == "" {
			firstErr = u.Err
		}
		return nil
	})
	s.finishJob(ctx, j, runErr, firstErr, policy)
}

// parsePeersFlag resolves -peers: a comma-separated list of worker base
// URLs, or @file with one peer per line (blank lines and # comments
// skipped).
func parsePeersFlag(v string) ([]string, error) {
	v = strings.TrimSpace(v)
	sep := ","
	if name, ok := strings.CutPrefix(v, "@"); ok {
		buf, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		v, sep = string(buf), "\n"
	}
	var peers []string
	for _, p := range strings.Split(v, sep) {
		if p = strings.TrimSpace(p); p != "" && !strings.HasPrefix(p, "#") {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil, errors.New("no workers named")
	}
	return peers, nil
}
