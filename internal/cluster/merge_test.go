// Adversarial completion-order tests for the merger: whatever order
// shards (and re-run duplicates of their points) finish in, the emitted
// stream is the dense in-order point sequence, each point exactly once.
package cluster

import (
	"encoding/json"
	"fmt"
	"testing"
)

func mergeHarness(total int) (*merger, *[]Update, *bool) {
	var out []Update
	stopped := false
	m := &merger{
		next: 0, total: total, buf: make(map[int]Update),
		emit: func(u Update) error { out = append(out, u); return nil },
		stop: func() { stopped = true },
	}
	return m, &out, &stopped
}

func upd(i int) Update {
	return Update{Index: i, Payload: json.RawMessage(fmt.Sprintf(`{"p":%d}`, i))}
}

func checkDense(t *testing.T, out []Update, total int) {
	t.Helper()
	if len(out) != total {
		t.Fatalf("emitted %d updates, want %d", len(out), total)
	}
	for i, u := range out {
		if u.Index != i {
			t.Fatalf("emitted index %d at position %d (disorder, duplicate, or gap)", u.Index, i)
		}
		if string(u.Payload) != fmt.Sprintf(`{"p":%d}`, i) {
			t.Fatalf("point %d payload rewritten: %s", i, u.Payload)
		}
	}
}

// TestMergerReversedCompletion: every point arrives in strictly reverse
// order — nothing emits until the first point lands, then everything
// flushes in order.
func TestMergerReversedCompletion(t *testing.T) {
	m, out, _ := mergeHarness(16)
	for i := 15; i >= 1; i-- {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
		if len(*out) != 0 {
			t.Fatalf("emitted %d updates before index 0 arrived", len(*out))
		}
	}
	if err := m.deliver(upd(0)); err != nil {
		t.Fatal(err)
	}
	checkDense(t, *out, 16)
}

// TestMergerInterleavedShards: three shards' points interleave arbitrarily.
func TestMergerInterleavedShards(t *testing.T) {
	m, out, _ := mergeHarness(12)
	// Shards [0,4) [4,8) [8,12) delivering round-robin from the back of
	// each window, then the fronts.
	order := []int{3, 7, 11, 2, 6, 10, 1, 5, 9, 8, 4, 0}
	for _, i := range order {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkDense(t, *out, 12)
}

// TestMergerHedgedDuplicates: a window arrives twice — once from a
// straggling original attempt, once from the re-run (hedge) — partially
// interleaved and racing the merge cursor. Every duplicate is dropped,
// whether it is still buffered (same index waiting) or already emitted
// (index below the cursor).
func TestMergerHedgedDuplicates(t *testing.T) {
	m, out, _ := mergeHarness(8)
	// Original attempt of shard [4,8) delivers 4,5 out of order.
	for _, i := range []int{5, 4} {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Shard [0,4) completes: cursor sweeps through the buffered 4,5.
	for _, i := range []int{0, 1, 2, 3} {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The hedge re-delivers the whole window [4,8): 4,5 are stale
	// (below the cursor), 6,7 are fresh.
	for _, i := range []int{4, 5, 6, 7} {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The original straggler limps in with 6,7 after the hedge won: both
	// already emitted.
	for _, i := range []int{6, 7} {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkDense(t, *out, 8)
}

// TestMergerBufferedDuplicate: duplicates of a point still waiting in the
// out-of-order buffer are dropped (first delivery wins).
func TestMergerBufferedDuplicate(t *testing.T) {
	m, out, _ := mergeHarness(3)
	if err := m.deliver(upd(2)); err != nil {
		t.Fatal(err)
	}
	dup := upd(2)
	dup.Payload = json.RawMessage(`{"p":"impostor"}`)
	if err := m.deliver(dup); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 0} {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkDense(t, *out, 3)
}

// TestMergerFailFastAdversarial: under FailFast an erroring point stops
// the stream at exactly that point even when later points arrived first —
// and deliveries after the stop are swallowed.
func TestMergerFailFastAdversarial(t *testing.T) {
	m, out, stopped := mergeHarness(8)
	m.failFast = true
	// Later points (beyond the failure) arrive before the failing point.
	for _, i := range []int{7, 6, 5, 4, 3} {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	bad := upd(2)
	bad.Err = "boom"
	for _, i := range []int{0, 1} {
		if err := m.deliver(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.deliver(bad); err != nil {
		t.Fatal(err)
	}
	if !*stopped {
		t.Fatal("fail-fast stop not invoked")
	}
	if len(*out) != 3 || (*out)[2].Err != "boom" {
		t.Fatalf("emitted %d updates, want exactly [0,1,2] with the error on 2", len(*out))
	}
	// A hedge duplicate of the failing point and fresh later points after
	// the stop change nothing.
	if err := m.deliver(bad); err != nil {
		t.Fatal(err)
	}
	if err := m.deliver(upd(3)); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 3 {
		t.Fatalf("post-stop deliveries emitted; %d updates", len(*out))
	}
}
