package main

// This file implements the benchmark regression gate: a parser for `go
// test -bench` output and a benchstat-style comparison against a
// checked-in baseline. Two quantities are gated separately because they
// fail differently across machines:
//
//   - ns/op is hardware-dependent — CI runners and the machine that
//     recorded the baseline differ, so the wall-clock gate takes an
//     explicit tolerance (strict when comparing on one machine, loose
//     across fleets);
//   - allocs/op is deterministic for a deterministic benchmark, so any
//     growth is a real regression regardless of hardware. This is the
//     gate that protects the allocation-free selection hot path.

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"espresso/internal/logx"
)

// runBenchgate compares `go test -bench` output against a checked-in
// baseline and fails (exit 1) on regression, with one tolerance for
// ns/op and one for allocs/op. Baseline benchmarks missing from the
// current run also fail, so a deleted benchmark cannot silently retire
// its gate.
//
//	go test -bench 'Selection|Timeline' -benchmem -run '^$' . > bench.txt
//	espresso benchgate -current bench.txt -max-slowdown 0.15 -max-alloc-growth 0.0
func runBenchgate(fs *flag.FlagSet, args []string) {
	baselinePath := fs.String("baseline", "cmd/espresso/testdata/bench-baseline.txt", "baseline `file` (go test -bench output)")
	currentPath := fs.String("current", "-", "current `file` (go test -bench output), - for stdin")
	maxSlowdown := fs.Float64("max-slowdown", 0.15, "allowed fractional ns/op growth; negative disables the wall-clock gate")
	maxAllocGrowth := fs.Float64("max-alloc-growth", 0.0, "allowed fractional allocs/op growth; negative disables the allocation gate")
	parse(fs, args)

	base, err := parseBenchFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := parseBenchFile(*currentPath)
	if err != nil {
		fatal(err)
	}
	if len(base) == 0 {
		fatal(fmt.Errorf("baseline %s contains no benchmark results", *baselinePath))
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("current run contains no benchmark results"))
	}

	gate := BenchGate{MaxSlowdown: *maxSlowdown, MaxAllocGrowth: *maxAllocGrowth}
	deltas, missing := gate.Compare(base, cur)
	WriteBenchReport(os.Stdout, deltas, missing)
	if BenchRegressed(deltas, missing) {
		logx.Fatal(log, "benchmark gate failed", "baseline", *baselinePath)
	}
	fmt.Println("benchgate: ok")
}

// parseBenchFile parses one `go test -bench` output file; - is stdin.
func parseBenchFile(path string) ([]BenchResult, error) {
	if path == "-" {
		return ParseBench(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseBench(f)
}

// BenchResult is one parsed benchmark measurement.
type BenchResult struct {
	// Name is the benchmark name with the -<cpus> suffix stripped, so
	// results match across GOMAXPROCS settings.
	Name string
	// Iters is the measured iteration count.
	Iters int64
	// NsPerOp is wall-clock time per operation.
	NsPerOp float64
	// BytesPerOp and AllocsPerOp are -1 when the benchmark did not
	// report memory statistics.
	BytesPerOp  float64
	AllocsPerOp float64
}

// benchLine matches e.g. "BenchmarkFoo-8  100  123 ns/op  4 B/op  1 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// cpuSuffix strips the trailing -N GOMAXPROCS marker from a bench name.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// ParseBench reads `go test -bench` output and returns the parsed
// results in input order. Non-benchmark lines (ok/PASS/pkg headers) are
// ignored. A benchmark appearing multiple times keeps its last
// measurement, mirroring -count behavior closely enough for a gate.
func ParseBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	byName := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad iteration count in %q: %w", sc.Text(), err)
		}
		res := BenchResult{
			Name:        cpuSuffix.ReplaceAllString(m[1], ""),
			Iters:       iters,
			NsPerOp:     -1,
			BytesPerOp:  -1,
			AllocsPerOp: -1,
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad measurement in %q: %w", sc.Text(), err)
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if res.NsPerOp < 0 {
			return nil, fmt.Errorf("benchgate: benchmark line without ns/op: %q", sc.Text())
		}
		if i, dup := byName[res.Name]; dup {
			out[i] = res
		} else {
			byName[res.Name] = len(out)
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// BenchDelta compares one benchmark between baseline and current.
type BenchDelta struct {
	Name string
	Base BenchResult
	Cur  BenchResult
	// TimeRatio is Cur.NsPerOp / Base.NsPerOp (1.0 = unchanged).
	TimeRatio float64
	// AllocRatio is the allocs/op ratio, or 1.0 when either side did
	// not report memory statistics. A baseline of 0 allocs/op with a
	// non-zero current is reported as +Inf.
	AllocRatio float64
	// Regressed marks deltas that violated the gate's tolerances, and
	// Reason says which tolerance.
	Regressed bool
	Reason    string
}

// BenchGate holds the comparison tolerances.
type BenchGate struct {
	// MaxSlowdown is the allowed fractional ns/op growth, e.g. 0.15
	// fails anything more than 15% slower than its baseline. Negative
	// disables the wall-clock gate.
	MaxSlowdown float64
	// MaxAllocGrowth is the allowed fractional allocs/op growth.
	// Negative disables the allocation gate. A baseline of 0 allocs/op
	// admits no growth at all (any allocation on a zero-alloc path is a
	// regression, whatever the fraction).
	MaxAllocGrowth float64
}

// Compare evaluates current against baseline under the gate and returns
// one delta per benchmark present in both sets (ordered by name) plus
// the list of baseline benchmarks missing from current — a silently
// dropped benchmark must fail the gate, or renames would mask
// regressions.
func (g BenchGate) Compare(baseline, current []BenchResult) (deltas []BenchDelta, missing []string) {
	cur := make(map[string]BenchResult, len(current))
	for _, c := range current {
		cur[c.Name] = c
	}
	for _, b := range baseline {
		c, ok := cur[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		d := BenchDelta{Name: b.Name, Base: b, Cur: c, TimeRatio: 1, AllocRatio: 1}
		if b.NsPerOp > 0 {
			d.TimeRatio = c.NsPerOp / b.NsPerOp
		}
		switch {
		case b.AllocsPerOp < 0 || c.AllocsPerOp < 0:
			// Either side lacks -benchmem stats: no alloc verdict.
		case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
			d.AllocRatio = inf
		case b.AllocsPerOp > 0:
			d.AllocRatio = c.AllocsPerOp / b.AllocsPerOp
		}
		if g.MaxSlowdown >= 0 && d.TimeRatio > 1+g.MaxSlowdown {
			d.Regressed = true
			d.Reason = fmt.Sprintf("%.2fx slower than baseline (gate %.0f%%)", d.TimeRatio, 100*g.MaxSlowdown)
		}
		if g.MaxAllocGrowth >= 0 && d.AllocRatio > 1+g.MaxAllocGrowth {
			d.Regressed = true
			if d.Reason != "" {
				d.Reason += "; "
			}
			if d.AllocRatio == inf {
				d.Reason += fmt.Sprintf("allocates %.0f/op on a zero-alloc baseline", d.Cur.AllocsPerOp)
			} else {
				d.Reason += fmt.Sprintf("%.2fx more allocs/op than baseline (gate %.0f%%)", d.AllocRatio, 100*g.MaxAllocGrowth)
			}
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(a, b int) bool { return deltas[a].Name < deltas[b].Name })
	sort.Strings(missing)
	return deltas, missing
}

var inf = math.Inf(1)

// WriteBenchReport renders the comparison as an aligned table.
func WriteBenchReport(w io.Writer, deltas []BenchDelta, missing []string) {
	fmt.Fprintf(w, "%-44s %14s %14s %8s %10s  %s\n",
		"benchmark", "base ns/op", "cur ns/op", "time", "allocs", "verdict")
	for _, d := range deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSED: " + d.Reason
		}
		alloc := "n/a"
		if d.Base.AllocsPerOp >= 0 && d.Cur.AllocsPerOp >= 0 {
			alloc = fmt.Sprintf("%.0f→%.0f", d.Base.AllocsPerOp, d.Cur.AllocsPerOp)
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %7.2fx %10s  %s\n",
			d.Name, d.Base.NsPerOp, d.Cur.NsPerOp, d.TimeRatio, alloc, verdict)
	}
	for _, name := range missing {
		fmt.Fprintf(w, "%-44s MISSING from current run\n", name)
	}
}

// BenchRegressed reports whether the comparison should fail the gate:
// any regressed delta, or any baseline benchmark missing from current.
func BenchRegressed(deltas []BenchDelta, missing []string) bool {
	if len(missing) > 0 {
		return true
	}
	for _, d := range deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}
