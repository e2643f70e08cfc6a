package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRefusesToOverwriteBaseline: an -o that names the -check-against
// baseline, under any spelling, exits 2 before a benchmark runs and leaves
// the baseline as it was.
func TestRefusesToOverwriteBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_sim.json")
	orig := []byte(`{"benchmarks": {}}` + "\n")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	alias := filepath.Join(dir, ".", "..", filepath.Base(dir), "BENCH_sim.json")
	if code := run([]string{"-o", alias, "-check-against", path}); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Errorf("baseline rewritten:\n%s", got)
	}
}
