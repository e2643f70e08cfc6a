package delta

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeBaselineMatchesBench: every row of README.md's "Recorded
// baseline" table names a benchmark BENCH_sim.json records and agrees with
// it — ns/op, allocs/op and the reported metric, each at the precision the
// table prints — so the table cannot drift from the artifact again.
func TestReadmeBaselineMatchesBench(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Benchmarks map[string]struct {
			NsPerOp     float64            `json:"ns_per_op"`
			AllocsPerOp int64              `json:"allocs_per_op"`
			Metrics     map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "Recorded baseline")
	if !ok {
		t.Fatal(`README.md has no "Recorded baseline" table`)
	}
	nsPer := map[string]float64{"µs": 1e3, "ms": 1e6, "s": 1e9}
	rows := 0
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if rows > 0 {
				break // end of the table
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if len(cells) != 4 {
			t.Fatalf("malformed row %q", line)
		}
		if cells[0] == "benchmark" || strings.HasPrefix(cells[0], "---") {
			continue
		}
		rows++
		name := cells[0]
		b, ok := bench.Benchmarks[name]
		if !ok {
			t.Errorf("%s: no such benchmark in BENCH_sim.json", name)
			continue
		}
		num, unit, _ := strings.Cut(cells[1], " ")
		if div, ok := nsPer[unit]; !ok || !printedMatches(num, b.NsPerOp/div) {
			t.Errorf("%s ns/op: README %q, BENCH_sim.json %.0f ns", name, cells[1], b.NsPerOp)
		}
		if allocs := strings.ReplaceAll(cells[2], ",", ""); allocs != strconv.FormatInt(b.AllocsPerOp, 10) {
			t.Errorf("%s allocs/op: README %q, BENCH_sim.json %d", name, cells[2], b.AllocsPerOp)
		}
		num, unit, _ = strings.Cut(cells[3], " ")
		scale := 1.0
		if k, ok := strings.CutSuffix(num, "k"); ok {
			num, scale = k, 1e3
		}
		if v, ok := b.Metrics[unit]; !ok || !printedMatches(num, v/scale) {
			t.Errorf("%s metric: README %q, BENCH_sim.json %q = %v", name, cells[3], unit, v)
		}
	}
	if rows == 0 {
		t.Fatal("README.md's Recorded baseline table has no rows")
	}
}

// printedMatches reports whether v, rounded to as many decimals as the
// printed number s carries, reads exactly s.
func printedMatches(s string, v float64) bool {
	decimals := 0
	if _, frac, ok := strings.Cut(s, "."); ok {
		decimals = len(frac)
	}
	return strconv.FormatFloat(v, 'f', decimals, 64) == s
}
