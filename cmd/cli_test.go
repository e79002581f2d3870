// Package cmd_test pins the console output of the five job CLIs
// (espresso, espresso-sim, espresso-analyze, espresso-chaos,
// espresso-trace) against golden files in testdata/. Each binary is
// built once, run from the repository root with its default flags, with
// each checked-in job config where it takes -job, and with -h; wall-clock
// durations are masked, so every remaining byte — selected shapes,
// predicted iteration times, Gantt rows, flag lists — must match.
//
// Regenerate after an intended output change with
//
//	go test ./cmd -run TestCLIGolden -update
package cmd_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// dur matches one Go time.Duration string (18µs, 7.351ms, 1m2.5s).
const dur = `[0-9][0-9.hm]*(?:ns|µs|ms|s)`

// wallClock lists the outputs measured on the host's clock rather than
// the simulation's; each is replaced by a fixed token.
var wallClock = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`(selected strategy in )` + dur + `:`), "${1}<wall>:"},
	{regexp.MustCompile(`(selection time: +)` + dur), "${1}<wall>"},
	// espresso-trace's host compression profile rows.
	{regexp.MustCompile(`(?m)^( +[0-9]+) +` + dur + ` +` + dur + `( +[0-9]+)$`), "$1 <wall> <wall>$2"},
	// flag's usage header names the binary's build path.
	{regexp.MustCompile(`(?m)^Usage of .*:$`), "Usage:"},
}

func mask(out []byte) []byte {
	for _, w := range wallClock {
		out = w.re.ReplaceAll(out, []byte(w.repl))
	}
	return out
}

var cliCases = []struct {
	bin  string
	args []string
}{
	{"espresso", nil},
	{"espresso", []string{"-job", "configs/bert_nvlink.json"}},
	{"espresso", []string{"-job", "configs/lstm_pcie.json"}},
	{"espresso", []string{"-job", "configs/custom_model.json"}},
	{"espresso", []string{"-h"}},
	{"espresso-sim", nil},
	{"espresso-sim", []string{"-job", "configs/bert_nvlink.json"}},
	{"espresso-sim", []string{"-job", "configs/lstm_pcie.json"}},
	{"espresso-sim", []string{"-job", "configs/custom_model.json"}},
	{"espresso-sim", []string{"-h"}},
	{"espresso-analyze", nil},
	{"espresso-analyze", []string{"-h"}},
	{"espresso-chaos", nil},
	{"espresso-chaos", []string{"-h"}},
	{"espresso-trace", nil},
	{"espresso-trace", []string{"-h"}},
}

// goldenName derives a case's golden file: espresso-sim + [-job
// configs/lstm_pcie.json] -> espresso-sim_lstm_pcie.golden.
func goldenName(bin string, args []string) string {
	name := bin
	for _, a := range args {
		if a == "-job" {
			continue
		}
		name += "_" + strings.TrimSuffix(strings.TrimLeft(filepath.Base(a), "-"), ".json")
	}
	return filepath.Join("testdata", name+".golden")
}

func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs five binaries, including two zoo-model selections")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./espresso", "./espresso-sim", "./espresso-analyze", "./espresso-chaos", "./espresso-trace")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range cliCases {
		golden := goldenName(tc.bin, tc.args)
		t.Run(filepath.Base(golden), func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, tc.bin), tc.args...)
			cmd.Dir = ".." // job configs resolve against the repository root
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\n%s", tc.bin, tc.args, err, stderr.Bytes())
			}
			got := stdout.Bytes()
			if len(tc.args) == 1 && tc.args[0] == "-h" {
				got = stderr.Bytes() // flag prints usage to stderr
			}
			got = mask(got)
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %v: output differs from %s\n%s", tc.bin, tc.args, golden, firstDiff(got, want))
			}
		})
	}
}

// firstDiff reports the first differing line of got against want.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return ""
}
