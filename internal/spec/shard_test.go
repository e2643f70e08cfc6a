package spec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const shardScenarioDoc = `{
  "workloads": [{"network": "alexnet"}, {"network": "googlenet"}],
  "devices": [{"name": "TITAN Xp"}, {"name": "V100"}],
  "batches": [16],
  "models": ["delta", "prior"]
}`

func TestReadShard(t *testing.T) {
	doc := `{"scenario": ` + shardScenarioDoc + `, "offset": 3, "limit": 4}`
	sh, err := ReadShard(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Offset != 3 || sh.Limit != 4 {
		t.Errorf("window = [%d,+%d), want [3,+4)", sh.Offset, sh.Limit)
	}
	if got := sh.Scenario.Size(); got != 8 {
		t.Errorf("resolved scenario size = %d, want 8", got)
	}
}

func TestReadShardRejects(t *testing.T) {
	for _, tc := range []struct{ name, doc, want string }{
		{"missing scenario", `{"offset": 0, "limit": 1}`, "missing scenario"},
		{"negative offset", `{"scenario": ` + shardScenarioDoc + `, "offset": -1, "limit": 1}`, "negative offset"},
		{"negative limit", `{"scenario": ` + shardScenarioDoc + `, "offset": 0, "limit": -1}`, "negative limit"},
		{"window past end", `{"scenario": ` + shardScenarioDoc + `, "offset": 6, "limit": 3}`, "exceeds scenario point count"},
		{"offset past end", `{"scenario": ` + shardScenarioDoc + `, "offset": 9, "limit": 0}`, "exceeds scenario point count"},
		{"unknown field", `{"scenario": ` + shardScenarioDoc + `, "offset": 0, "limit": 1, "bogus": 1}`, "bogus"},
		{"bad scenario", `{"scenario": {"workloads": []}, "offset": 0, "limit": 0}`, "workload"},
	} {
		_, err := ReadShard(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestReadShardFullWindow: a window covering the whole scenario (and the
// empty window at the very end) is valid — the degenerate shapes the
// coordinator emits for tiny fleets.
func TestReadShardFullWindow(t *testing.T) {
	for _, doc := range []string{
		`{"scenario": ` + shardScenarioDoc + `, "offset": 0, "limit": 8}`,
		`{"scenario": ` + shardScenarioDoc + `, "offset": 8, "limit": 0}`,
	} {
		if _, err := ReadShard(strings.NewReader(doc)); err != nil {
			t.Errorf("valid shard rejected: %v\n%s", err, doc)
		}
	}
}

// FuzzReadShard: ReadShard never panics; an accepted shard's window lies
// inside its scenario, and re-encoding the accepted document reads back
// the same window.
func FuzzReadShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		sh, err := ReadShard(bytes.NewReader(doc))
		if err != nil {
			return
		}
		size, err := sh.Scenario.SizeChecked()
		if err != nil {
			t.Fatalf("accepted a shard whose scenario has no point count: %v", err)
		}
		if sh.Offset < 0 || sh.Limit < 0 || sh.Offset > size || sh.Limit > size-sh.Offset {
			t.Fatalf("accepted window [%d,+%d) outside %d point(s)", sh.Offset, sh.Limit, size)
		}
		var raw ShardSpec
		if err := json.NewDecoder(bytes.NewReader(doc)).Decode(&raw); err != nil {
			t.Fatalf("accepted document does not decode: %v", err)
		}
		re, err := json.Marshal(ShardSpec{Scenario: raw.Scenario, Offset: sh.Offset, Limit: sh.Limit})
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadShard(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded shard rejected: %v\n%s", err, re)
		}
		if back.Offset != sh.Offset || back.Limit != sh.Limit || back.Scenario.Size() != size {
			t.Fatalf("re-encoded shard reads back as [%d,+%d) of %d, want [%d,+%d) of %d",
				back.Offset, back.Limit, back.Scenario.Size(), sh.Offset, sh.Limit, size)
		}
	})
}
