package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// update rewrites the golden files from the live commands:
//
//	go test ./cmd/delta -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// readme is the repository README, whose examples the tests run and parse.
func readme(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readmeSweep writes README's example sweep.json into a temporary
// directory and returns its path.
func readmeSweep(t *testing.T) string {
	t.Helper()
	_, doc, ok := strings.Cut(readme(t), "cat > sweep.json <<'EOF'\n")
	doc, _, ok2 := strings.Cut(doc, "\nEOF\n")
	if !ok || !ok2 {
		t.Fatal("README.md has no sweep.json heredoc")
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// elapsed matches the wall time an experiments header ends with.
var elapsed = regexp.MustCompile(`(?m)^(### .*) \(\d+\.\ds\)$`)

// TestGolden pins, byte for byte, the stdout of README's CLI examples and
// of each output form. The goldens were recorded from the binaries these
// commands replaced, so re-record one with -update only for a deliberate
// output change.
func TestGolden(t *testing.T) {
	sweep := readmeSweep(t)
	cases := []struct {
		name string
		args []string
	}{
		{"layer", []string{"-gpu", "TITAN Xp", "-b", "256", "-ci", "256", "-hw", "13", "-co", "384", "-f", "3", "-s", "1", "-p", "1"}},
		{"resnet152_v100", []string{"-gpu", "V100", "-net", "resnet152"}},
		{"vgg16_train", []string{"-net", "vgg16", "-train"}},
		{"vgg16_train_csv", []string{"-net", "vgg16", "-train", "-csv"}},
		{"vgg16_roofline", []string{"-net", "vgg16", "-model", "roofline"}},
		{"vgg16_roofline_csv", []string{"-net", "vgg16", "-model", "roofline", "-csv"}},
		{"vgg16_prior", []string{"-net", "vgg16", "-model", "prior", "-missrate", "1.0"}},
		{"scenario", []string{"-scenario", sweep}},
		{"scenario_csv", []string{"-scenario", sweep, "-csv"}},
		{"layers", []string{"-layers", "testdata/layers.json"}},
		{"explore_resnet152", []string{"explore", "-net", "resnet152", "-target", "4.0"}},
		{"explore_alexnet", []string{"explore", "-net", "alexnet", "-b", "32", "-target", "2.0"}},
		{"sim", []string{"sim", "-b", "4", "-ci", "192", "-hw", "28", "-co", "96", "-f", "3"}},
		{"sim_verify", []string{"sim", "-b", "4", "-ci", "192", "-hw", "28", "-co", "96", "-f", "3", "-workers", "4", "-verify"}},
		{"sim_timing", []string{"sim", "-b", "2", "-ci", "64", "-hw", "14", "-co", "64", "-f", "3", "-workers", "2", "-verify", "-timing"}},
		{"experiments_list", []string{"experiments", "-list"}},
		{"experiments_fig16", []string{"experiments", "-run", "fig16"}},
		{"experiments_tab1", []string{"experiments", "-run", "tab1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			got := elapsed.ReplaceAll(stdout.Bytes(), []byte("$1"))
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// TestExitCodes: -h exits 0, a failed command 1 with "<command>: <err>",
// and every usage error 2 before anything runs — a bad flag, an unknown
// subcommand, a word left after the flags, or -layers with -net.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of delta:"},
		{[]string{"explore", "-h"}, 0, "Usage of delta explore:"},
		{[]string{"sim", "-help"}, 0, "-verify"},
		{[]string{"experiments", "-h"}, 0, "-csvdir"},

		{[]string{"-gpu", "K80"}, 1, "delta: "},
		{[]string{"-net", "vgg16", "-train", "-model", "prior"}, 1, "delta: -train models the delta training step"},
		{[]string{"-layers", "testdata/missing.json"}, 1, "delta: open testdata/missing.json"},
		{[]string{"-scenario", "testdata/missing.json"}, 1, "delta: open testdata/missing.json"},
		{[]string{"explore", "-net", "lenet"}, 1, "delta explore: "},
		{[]string{"sim", "-gpu", "K80"}, 1, "delta sim: "},
		{[]string{"experiments", "-run", "fig99"}, 1, "delta experiments: "},

		{[]string{"-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{[]string{"sim", "-b", "four"}, 2, `invalid value "four" for flag -b`},
		{[]string{"vgg16"}, 2, `delta: unknown subcommand "vgg16"; subcommands: explore, sim, experiments`},
		{[]string{"experiment", "-run", "fig11"}, 2, `delta: unknown subcommand "experiment"`},
		{[]string{"-net", "vgg16", "extra"}, 2, `delta: unexpected argument "extra"; subcommands: explore, sim, experiments`},
		{[]string{"experiments", "fig11"}, 2, `delta experiments: unexpected argument "fig11"`},
		{[]string{"sim", "extra"}, 2, `delta sim: unexpected argument "extra"`},
		{[]string{"explore", "sim"}, 2, `delta explore: unexpected argument "sim"`},
		{[]string{"-gpu", "V100", "explore"}, 2, "delta: the subcommand comes first: delta explore [flags]"},
		{[]string{"-layers", "testdata/layers.json", "-net", "vgg16"}, 2, "delta: specify either -layers or -net, not both"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("delta %q: exit %d, stderr %q; want exit %d, stderr containing %q",
				tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
		if tc.code == 2 && stdout.Len() > 0 {
			t.Errorf("delta %q: usage error wrote stdout %q", tc.args, stdout.String())
		}
	}
}

// TestLayersFileBatch: a -layers file carries its own mini-batch, so no
// table titles it with -b's value.
func TestLayersFileBatch(t *testing.T) {
	for _, args := range [][]string{
		{"-layers", "testdata/layers.json", "-b", "64"},
		{"-layers", "testdata/layers.json", "-train"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("delta %q: exit %d: %s", args, code, stderr.String())
		}
		title, _, _ := strings.Cut(stdout.String(), "\n")
		if !strings.HasSuffix(title, "testdata/layers.json on TITAN Xp (B=-)") {
			t.Errorf("delta %q: title %q", args, title)
		}
	}
}

// TestReadmeExamplesParse: every `go run ./cmd/delta ...` line in README.md
// names a known subcommand and only flags that command defines, and each
// subcommand has an example, so the docs cannot drift from the CLI.
func TestReadmeExamplesParse(t *testing.T) {
	seen := map[string]bool{}
	for _, line := range strings.Split(readme(t), "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "go run ./cmd/delta ")
		if !ok {
			continue
		}
		cmd, _, _ := strings.Cut(rest, " #")
		var args []string
		for i, part := range strings.Split(cmd, `"`) {
			if i%2 == 1 {
				args = append(args, part) // a quoted argument
			} else {
				args = append(args, strings.Fields(part)...)
			}
		}
		name, _, err := parse(args, io.Discard)
		if err != nil {
			t.Errorf("README example %q: %v", line, err)
		}
		seen[name] = true
	}
	for _, name := range []string{"delta", "delta explore", "delta sim", "delta experiments"} {
		if !seen[name] {
			t.Errorf("README.md has no `go run ./cmd/delta` example of %s", name)
		}
	}
}

// TestFlagDefaults: every command keeps the flag names and defaults of the
// binary it replaced.
func TestFlagDefaults(t *testing.T) {
	want := map[string]map[string]string{
		"": {
			"gpu": "TITAN Xp", "net": "", "layers": "", "device": "", "scenario": "",
			"b": "256", "ci": "256", "hw": "13", "co": "384", "f": "3", "s": "1", "p": "1",
			"csv": "false", "train": "false", "model": "delta", "missrate": "1",
		},
		"explore": {"gpu": "TITAN Xp", "net": "resnet152", "b": "256", "target": "0", "workers": "0"},
		"sim": {
			"gpu": "TITAN Xp", "b": "4", "ci": "192", "hw": "28", "co": "96", "f": "3", "s": "1", "p": "1",
			"skippad": "false", "timing": "false", "workers": "0", "rowmajor": "false", "maxwaves": "0", "verify": "false",
		},
		"experiments": {
			"list": "false", "run": "all", "batch": "256", "simbatch": "4", "timingbatch": "32",
			"quick": "false", "csvdir": "",
		},
	}
	for sub, flags := range want {
		cmd, ok := subcommands[sub]
		if sub == "" {
			cmd, ok = predictCmd, true
		}
		if !ok {
			t.Errorf("no subcommand %q", sub)
			continue
		}
		fs := flag.NewFlagSet(sub, flag.ContinueOnError)
		cmd(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !reflect.DeepEqual(got, flags) {
			t.Errorf("delta %s flags = %v, want %v", sub, got, flags)
		}
	}
	if len(subcommands) != len(want)-1 {
		t.Errorf("%d subcommands, want %d", len(subcommands), len(want)-1)
	}
}
