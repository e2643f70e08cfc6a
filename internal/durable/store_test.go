package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testStore(t *testing.T, dir string, opts StoreOptions) *Store {
	t.Helper()
	if opts.Log == nil {
		opts.Log = log.New(os.Stderr, "", 0)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func payload(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"index":%d,"value":"point-%d"}`, i, i))
}

// writeJob records a submit plus n results for job id.
func writeJob(t *testing.T, s *Store, id string, total, results int) {
	t.Helper()
	if err := s.RecordSubmit(id, "job-"+id, total, time.Unix(1000, 0), json.RawMessage(`{"workloads":[]}`), "fail_fast"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < results; i++ {
		if err := s.RecordResult(id, i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreRoundTrip: submit/result/finish records survive a close and
// reopen byte-for-byte, through both the WAL and the compacted snapshot.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir, StoreOptions{})
	writeJob(t, s, "a", 4, 2)
	if err := s.RecordFinish("b-missing", StatusDone, "", time.Unix(2000, 0)); err != nil {
		t.Fatal(err) // unknown job: accepted and ignored
	}
	writeJob(t, s, "b", 3, 3)
	if err := s.RecordFinish("b", StatusDone, "", time.Unix(2000, 0)); err != nil {
		t.Fatal(err)
	}

	check := func(s *Store, phase string) {
		t.Helper()
		jobs := s.Jobs()
		if len(jobs) != 2 {
			t.Fatalf("%s: %d jobs, want 2", phase, len(jobs))
		}
		byID := map[string]*JobState{}
		for _, js := range jobs {
			byID[js.ID] = js
		}
		a, b := byID["a"], byID["b"]
		if a == nil || b == nil {
			t.Fatalf("%s: jobs = %+v", phase, jobs)
		}
		if a.Status != StatusRunning || a.Total != 4 || len(a.Results) != 2 {
			t.Errorf("%s: job a = %+v", phase, a)
		}
		if string(a.Results[1]) != string(payload(1)) {
			t.Errorf("%s: job a result 1 = %s", phase, a.Results[1])
		}
		if b.Status != StatusDone || len(b.Results) != 3 {
			t.Errorf("%s: job b = %+v", phase, b)
		}
		if b.Finished.UnixNano() != time.Unix(2000, 0).UnixNano() {
			t.Errorf("%s: job b finished = %v", phase, b.Finished)
		}
	}
	check(s, "live")

	// Reopen without a clean close: pure WAL replay (the copy simulates a
	// crash — no final snapshot was written).
	s.mu.Lock()
	s.wal.Sync()
	s.mu.Unlock()
	replay := testStore(t, copyDir(t, dir), StoreOptions{})
	check(replay, "wal-replay")
	if replay.Stats().ReplayedJobs != 2 {
		t.Errorf("replayed jobs = %d", replay.Stats().ReplayedJobs)
	}

	// Clean close writes a snapshot; reopening replays from it.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := testStore(t, dir, StoreOptions{})
	check(reopened, "snapshot")
}

// copyDir clones a store directory so a live store's files can be
// replayed independently (simulating a crash: no Close, no final
// snapshot).
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStoreEvict: evicted jobs disappear from replayed state and from the
// next snapshot.
func TestStoreEvict(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir, StoreOptions{})
	writeJob(t, s, "gone", 2, 2)
	writeJob(t, s, "kept", 2, 1)
	if err := s.RecordEvict("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := testStore(t, dir, StoreOptions{})
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != "kept" {
		t.Fatalf("jobs after evict = %+v", jobs)
	}
}

// TestStoreTornTail: a WAL truncated mid-record (kill -9 during append)
// replays the valid prefix, reports the dropped bytes, and the reopened
// store keeps appending cleanly.
func TestStoreTornTail(t *testing.T) {
	for _, mode := range []corruptMode{corruptTruncate, corruptFlip} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			dir := t.TempDir()
			s := testStore(t, dir, StoreOptions{Fsync: FsyncAlways})
			writeJob(t, s, "j", 5, 3) // records 0..3: submit + 3 results
			// Simulate the crash: no Close (no snapshot), corrupt the last
			// record (index 3 = result seq 2).
			s.mu.Lock()
			s.wal.Close()
			s.closed = true
			s.mu.Unlock()
			if err := corruptWAL(filepath.Join(dir, walName), 3, mode); err != nil {
				t.Fatal(err)
			}

			var logged strings.Builder
			s2 := testStore(t, dir, StoreOptions{Log: log.New(&logged, "", 0)})
			jobs := s2.Jobs()
			if len(jobs) != 1 || jobs[0].Status != StatusRunning {
				t.Fatalf("jobs = %+v", jobs)
			}
			if len(jobs[0].Results) != 2 {
				t.Fatalf("results after torn tail = %d, want 2 (prefix)", len(jobs[0].Results))
			}
			if s2.Stats().TornBytes <= 0 {
				t.Error("torn bytes not reported")
			}
			if !strings.Contains(logged.String(), "torn/corrupt") {
				t.Errorf("torn tail not logged: %q", logged.String())
			}
			// The store keeps working: the lost record's slot is refillable
			// at the same seq (resume re-evaluates from the prefix).
			if err := s2.RecordResult("j", 2, payload(2)); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3 := testStore(t, dir, StoreOptions{})
			if got := len(s3.Jobs()[0].Results); got != 3 {
				t.Errorf("results after refill = %d, want 3", got)
			}
		})
	}
}

// TestStoreCompaction: auto-compaction truncates the WAL, and replay
// from snapshot+empty WAL matches the pre-compaction state.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir, StoreOptions{CompactEvery: 5})
	writeJob(t, s, "c", 10, 8) // 9 records: compacts at 5
	if s.Stats().Compactions == 0 {
		t.Fatal("no auto-compaction after CompactEvery records")
	}
	// The WAL holds only the records appended since the last compaction.
	s.mu.Lock()
	walSize := s.walSize
	s.mu.Unlock()
	if walSize == 0 || walSize > 4*1024 {
		t.Errorf("post-compaction WAL size = %d, want small non-zero tail", walSize)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := testStore(t, dir, StoreOptions{})
	jobs := s2.Jobs()
	if len(jobs) != 1 || len(jobs[0].Results) != 8 {
		t.Fatalf("post-compaction state = %+v", jobs)
	}
}

// TestStoreDuplicateAndGapSeqs: duplicate result seqs are no-ops and
// gapped seqs are dropped, so Results stays dense (the resume contract).
func TestStoreDuplicateAndGapSeqs(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, dir, StoreOptions{})
	writeJob(t, s, "d", 5, 2)
	if err := s.RecordResult("d", 1, json.RawMessage(`{"dup":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordResult("d", 4, json.RawMessage(`{"gap":true}`)); err != nil {
		t.Fatal(err)
	}
	js := s.Jobs()[0]
	if len(js.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(js.Results))
	}
	if string(js.Results[1]) != string(payload(1)) {
		t.Errorf("duplicate overwrote result: %s", js.Results[1])
	}
}

// TestParseFsyncMode covers the flag mapping.
func TestParseFsyncMode(t *testing.T) {
	for in, want := range map[string]FsyncMode{
		"": FsyncInterval, "interval": FsyncInterval,
		"always": FsyncAlways, "never": FsyncNever,
	} {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Error("bad mode accepted")
	}
}

// TestStoreReopensParentShardRecords: a data dir written by a release
// whose coordinator logged shard records (a "shards" object in a snapshot
// job, "shard" frames in the WAL) reopens with every job, result and
// status intact, skips each shard frame with one logged line, and the
// next snapshot carries no shard state.
func TestStoreReopensParentShardRecords(t *testing.T) {
	dir := t.TempDir()
	snap := `{"jobs":[{"id":"snap","name":"job-snap","total":2,"created":"2026-10-01T00:00:00Z",` +
		`"scenario":{"workloads":[]},"policy":"fail_fast","status":"done","finished":"2026-10-01T00:01:00Z",` +
		`"results":[{"index":0,"value":"point-0"},{"index":1,"value":"point-1"}],` +
		`"shards":{"0":{"offset":0,"count":2,"peer":"w1:8080","attempts":1,"status":"done"}}}]}`
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	var wal []byte
	for _, rec := range []string{
		`{"t":"submit","job":"wal","name":"job-wal","total":3,"created":1000000000000,"scenario":{"workloads":[]},"policy":"collect_partial"}`,
		`{"t":"shard","job":"wal","status":"dispatched","count":2,"peer":"w1:8080","attempt":1}`,
		`{"t":"shard","job":"wal","status":"dispatched","shard":1,"offset":2,"count":1,"peer":"w2:8080","attempt":1}`,
		`{"t":"result","job":"wal","payload":{"index":0,"value":"point-0"}}`,
		`{"t":"shard","job":"wal","status":"failed","shard":1,"offset":2,"count":1,"peer":"w2:8080","attempt":1}`,
		`{"t":"result","job":"wal","seq":1,"payload":{"index":1,"value":"point-1"}}`,
		`{"t":"shard","job":"wal","status":"done","count":2,"peer":"w1:8080","attempt":1}`,
	} {
		wal = appendFrame(wal, []byte(rec))
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged strings.Builder
	s := testStore(t, dir, StoreOptions{Log: log.New(&logged, "", 0)})
	if n := strings.Count(logged.String(), `skipping unknown WAL record type "shard"`); n != 4 {
		t.Errorf("logged %d skipped shard records, want 4:\n%s", n, logged.String())
	}
	check := func(s *Store, phase string) {
		t.Helper()
		jobs := s.Jobs()
		if len(jobs) != 2 {
			t.Fatalf("%s: %d jobs, want 2", phase, len(jobs))
		}
		for _, js := range jobs {
			want := map[string]struct {
				status string
				total  int
			}{"snap": {StatusDone, 2}, "wal": {StatusRunning, 3}}[js.ID]
			if js.Status != want.status || js.Total != want.total || len(js.Results) != 2 {
				t.Errorf("%s: job %s = %s, total %d, %d results; want %s, %d, 2",
					phase, js.ID, js.Status, js.Total, len(js.Results), want.status, want.total)
			}
			for i, r := range js.Results {
				if string(r) != string(payload(i)) {
					t.Errorf("%s: job %s result %d = %s", phase, js.ID, i, r)
				}
			}
		}
	}
	check(s, "reopened")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(buf), `"shards"`) {
		t.Errorf("snapshot still carries shard state:\n%s", buf)
	}
	check(testStore(t, dir, StoreOptions{}), "snapshot")
}

// corruptMode selects how corruptWAL damages the target record.
type corruptMode int

const (
	// corruptTruncate cuts the file mid-record (a torn append).
	corruptTruncate corruptMode = iota

	// corruptFlip flips one payload byte, leaving the stored CRC stale.
	corruptFlip
)

// corruptWAL damages the WAL at path: record is the 0-based frame index to
// hit. Truncation cuts the file partway into that record; flipping inverts
// a payload byte so the CRC check fails. Both leave every earlier record
// intact, which is exactly the prefix recovery must keep.
func corruptWAL(path string, record int, mode corruptMode) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("opening WAL to corrupt: %w", err)
	}
	defer f.Close()

	// Walk frames to the target record's offset and length.
	var offset int64
	var hdr [frameHeaderLen]byte
	for i := 0; ; i++ {
		if _, err := f.ReadAt(hdr[:], offset); err != nil {
			return fmt.Errorf("WAL has no record %d (walked %d)", record, i)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if i == record {
			if n == 0 {
				return fmt.Errorf("record %d has empty payload; nothing to corrupt", record)
			}
			switch mode {
			case corruptTruncate:
				// Keep the header and half the payload: a classic torn
				// append.
				return f.Truncate(offset + frameHeaderLen + n/2)
			case corruptFlip:
				var b [1]byte
				at := offset + frameHeaderLen + n/2
				if _, err := f.ReadAt(b[:], at); err != nil {
					return fmt.Errorf("reading byte to flip: %w", err)
				}
				b[0] ^= 0xFF
				if _, err := f.WriteAt(b[:], at); err != nil {
					return fmt.Errorf("flipping WAL byte: %w", err)
				}
				return nil
			}
			return fmt.Errorf("unknown corrupt mode %d", mode)
		}
		offset += frameHeaderLen + n
	}
}
