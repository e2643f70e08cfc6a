package report

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "layer", "bytes", "ratio")
	tb.AddRow("conv1", 1024.0, 1.05)
	tb.AddRow("conv2_long_name", 2048.0, 0.98)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "conv2_long_name") {
		t.Errorf("render missing content:\n%s", out)
	}
	// Header separator present.
	if !strings.Contains(out, "-----") {
		t.Errorf("no separator:\n%s", out)
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
	// Columns aligned: every line has the ratio column at the same offset.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestRenderCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2.5)
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "a,b\n1,2.5\n" {
		t.Errorf("CSV = %q", got)
	}

	// Cells that hold the separator, a quote, a newline or a leading space
	// round-trip through a CSV reader with one field count per record.
	tb = NewTable("", "option", "configuration", "speedup")
	tb.AddRow(1, "2x SM, 1.5x L2/DRAM BW", 1.918)
	tb.AddRow("conv1, 3x3", `say "hi"`, "two\nlines")
	tb.AddRow(" lead", "", "-")
	b.Reset()
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("reading %q: %v", b.String(), err)
	}
	want := [][]string{
		{"option", "configuration", "speedup"},
		{"1", "2x SM, 1.5x L2/DRAM BW", "1.918"},
		{"conv1, 3x3", `say "hi"`, "two\nlines"},
		{" lead", "", "-"},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("CSV %q read back as %q, want %q", b.String(), recs, want)
	}
}

func TestBytes(t *testing.T) {
	cases := map[float64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.123); got != "12.3%" {
		t.Errorf("Pct = %q", got)
	}
}
