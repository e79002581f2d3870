// Package cmd_test drives the espresso binary end to end and pins its
// console output against golden files in testdata/. The binary is built
// once and run from the repository root: the job subcommands (select,
// sim, analyze, chaos, trace) with their default flags and each
// checked-in job config where they take -job, the others on a small
// fixed input, and every one with -h. Wall-clock durations are masked,
// so every remaining byte — selected shapes, predicted iteration times,
// Gantt rows, flag lists — must match.
//
// Regenerate after an intended output change with
//
//	go test ./cmd -run TestCLIGolden -update
package cmd_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
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
	// trace's host compression profile rows.
	{regexp.MustCompile(`(?m)^( +[0-9]+) +` + dur + ` +` + dur + `( +[0-9]+)$`), "$1 <wall> <wall>$2"},
	// bench's per-experiment header and verify's total.
	{regexp.MustCompile(`(?m)^(===== [a-z0-9]+ \()` + dur + `(\) =====)$`), "${1}<wall>$2"},
	{regexp.MustCompile(`(?m)^(elapsed: )` + dur + `$`), "${1}<wall>"},
	// flag's usage header names the subcommand.
	{regexp.MustCompile(`(?m)^Usage of .*:$`), "Usage:"},
}

func mask(out []byte) []byte {
	for _, w := range wallClock {
		out = w.re.ReplaceAll(out, []byte(w.repl))
	}
	return out
}

// cliCases lists each run and its golden file, testdata/<name>.golden.
// The names keep the tools' former binary names (espresso for select,
// espresso-sim for sim, ...), so each golden's history and test name
// survive the move to subcommands.
var cliCases = []struct {
	name string
	args []string
}{
	{"espresso", []string{"select"}},
	{"espresso_bert_nvlink", []string{"select", "-job", "configs/bert_nvlink.json"}},
	{"espresso_lstm_pcie", []string{"select", "-job", "configs/lstm_pcie.json"}},
	{"espresso_custom_model", []string{"select", "-job", "configs/custom_model.json"}},
	{"espresso_h", []string{"select", "-h"}},
	{"espresso-sim", []string{"sim"}},
	{"espresso-sim_bert_nvlink", []string{"sim", "-job", "configs/bert_nvlink.json"}},
	{"espresso-sim_lstm_pcie", []string{"sim", "-job", "configs/lstm_pcie.json"}},
	{"espresso-sim_custom_model", []string{"sim", "-job", "configs/custom_model.json"}},
	{"espresso-sim_h", []string{"sim", "-h"}},
	{"espresso-analyze", []string{"analyze"}},
	{"espresso-analyze_h", []string{"analyze", "-h"}},
	{"espresso-chaos", []string{"chaos"}},
	{"espresso-chaos_h", []string{"chaos", "-h"}},
	{"espresso-trace", []string{"trace"}},
	{"espresso-trace_h", []string{"trace", "-h"}},
	{"espresso-bench_table1", []string{"bench", "-experiment", "table1"}},
	{"espresso-bench_h", []string{"bench", "-h"}},
	{"espresso-verify", []string{"verify", "-cases", "20", "-seed", "1"}},
	{"espresso-verify_h", []string{"verify", "-h"}},
	{"espresso-benchgate", []string{"benchgate",
		"-baseline", "cmd/testdata/benchgate_baseline.txt", "-current", "cmd/testdata/benchgate_current.txt"}},
	{"espresso-benchgate_h", []string{"benchgate", "-h"}},
	{"espresso-load_h", []string{"load", "-h"}},
	{"espresso-serve_h", []string{"serve", "-h"}},
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the binary espressoBin built.
func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// espressoBin builds cmd/espresso once per test process and returns the
// binary's path.
func espressoBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the espresso binary")
	}
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "espresso-cli"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir, "./espresso").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, "espresso")
}

// espresso runs the binary from the repository root, where job configs
// and fixtures resolve, and returns its stdout and stderr.
func espresso(t *testing.T, args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(espressoBin(t), args...)
	cmd.Dir = ".."
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

func TestCLIGolden(t *testing.T) {
	espressoBin(t)
	for _, tc := range cliCases {
		golden := filepath.Join("testdata", tc.name+".golden")
		t.Run(filepath.Base(golden), func(t *testing.T) {
			got, stderr, err := espresso(t, tc.args...)
			if err != nil {
				t.Fatalf("espresso %v: %v\n%s", tc.args, err, stderr)
			}
			if tc.args[len(tc.args)-1] == "-h" {
				got = stderr // flag prints usage to stderr
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
				t.Errorf("espresso %v: output differs from %s\n%s", tc.args, golden, firstDiff(got, want))
			}
		})
	}
}

// TestUsage checks that a missing or unknown subcommand prints the
// subcommand list to stderr and exits 2.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}, {"-h"}} {
		_, stderr, err := espresso(t, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("espresso %v: err = %v, want exit status 2", args, err)
		}
		for _, c := range []string{"select", "sim", "analyze", "chaos", "trace", "bench", "benchgate", "load", "serve", "verify"} {
			if !regexp.MustCompile(`(?m)^  ` + c + ` `).Match(stderr) {
				t.Errorf("espresso %v: usage does not list %q:\n%s", args, c, stderr)
			}
		}
	}
}

// TestChaosRejectsNaNSeverity checks that a NaN severity fails with the
// range error instead of reaching the re-selection.
func TestChaosRejectsNaNSeverity(t *testing.T) {
	_, stderr, err := espresso(t, "chaos", "-severities", "NaN")
	if err == nil {
		t.Fatal("espresso chaos -severities NaN succeeded")
	}
	if !bytes.Contains(stderr, []byte(`bad severity \"NaN\" (want >= 1)`)) {
		t.Fatalf("stderr lacks the severity range error:\n%s", stderr)
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
