package engine

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"delta/internal/gpu"
	"delta/internal/layers"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.json from the current engine")

const goldenPath = "testdata/golden_results.json"

// goldenCase names one (device, layer, config) cell of the equivalence
// corpus; the map key is its string form.
func goldenKey(device string, layer string, ci int) string {
	return fmt.Sprintf("%s/%s/cfg%d", device, layer, ci)
}

// TestGoldenResults pins the serial engine's full Result — every counter,
// byte total, and cache stat — for the corpus, against values recorded from
// the engine before the hot-path overhaul (shift/mask caches, tile-stream
// memoization, pooled state). Any optimization that perturbs a counter
// bit-identically fails here, not just serial-vs-parallel consistency.
//
// Regenerate (only when a semantic change is intended) with:
//
//	go test ./internal/sim/engine -run TestGoldenResults -update
func TestGoldenResults(t *testing.T) {
	type cell struct {
		key string
		l   layers.Conv
		cfg Config
	}
	var cells []cell
	for _, d := range []gpu.Device{gpu.TitanXp(), gpu.V100()} {
		for _, l := range equivCorpus {
			for ci, cfg := range equivConfigs(d) {
				cfg.Workers = 1
				cells = append(cells, cell{goldenKey(d.Name, l.Name, ci), l, cfg})
			}
		}
	}
	// The cells are independent serial runs: spread them over GOMAXPROCS
	// goroutines instead of running the whole corpus on one CPU.
	rs := make([]Result, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rs[i], errs[i] = Run(cells[i].l, cells[i].cfg)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	results := map[string]Result{}
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.key, errs[i])
		}
		results[c.key] = rs[i]
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(results))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	want := map[string]Result{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(results) {
		t.Fatalf("golden has %d cases, corpus has %d", len(want), len(results))
	}
	for k, w := range want {
		got, ok := results[k]
		if !ok {
			t.Errorf("%s: missing from corpus", k)
			continue
		}
		if got != w {
			t.Errorf("%s: diverged from pre-overhaul engine:\n got %+v\nwant %+v", k, got, w)
		}
	}
}
