package main

import (
	"os"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: espresso
cpu: some CPU @ 2.0GHz
BenchmarkTimelineDerivation-8   	    5000	    250000 ns/op	       0 B/op	       0 allocs/op
BenchmarkOptionEnumeration-4    	   20000	     60000 ns/op	   12000 B/op	     150 allocs/op
BenchmarkSelectionBERT          	      10	 110000000 ns/op
PASS
ok  	espresso	3.456s
`

func TestParseBench(t *testing.T) {
	res, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("parsed %d results, want 3", len(res))
	}
	d := res[0]
	if d.Name != "BenchmarkTimelineDerivation" {
		t.Errorf("cpu suffix not stripped: %q", d.Name)
	}
	if d.Iters != 5000 || d.NsPerOp != 250000 || d.AllocsPerOp != 0 || d.BytesPerOp != 0 {
		t.Errorf("bad first result: %+v", d)
	}
	if res[1].AllocsPerOp != 150 {
		t.Errorf("allocs/op = %v, want 150", res[1].AllocsPerOp)
	}
	if res[2].AllocsPerOp != -1 || res[2].BytesPerOp != -1 {
		t.Errorf("missing memory stats should parse as -1: %+v", res[2])
	}
}

func TestParseBenchKeepsLastDuplicate(t *testing.T) {
	in := "BenchmarkX-8 10 100 ns/op\nBenchmarkX-8 10 200 ns/op\n"
	res, err := ParseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].NsPerOp != 200 {
		t.Fatalf("duplicate handling: %+v", res)
	}
}

func TestBenchGateCompare(t *testing.T) {
	base := []BenchResult{
		{Name: "BenchmarkFast", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "BenchmarkSlow", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 1000, AllocsPerOp: -1},
	}
	cur := []BenchResult{
		// 10% slower: inside the gate.
		{Name: "BenchmarkFast", NsPerOp: 1100, AllocsPerOp: 0},
		// 20% slower: outside the gate.
		{Name: "BenchmarkSlow", NsPerOp: 1200, AllocsPerOp: 100},
	}
	gate := BenchGate{MaxSlowdown: 0.15, MaxAllocGrowth: 0}
	deltas, missing := gate.Compare(base, cur)
	if len(deltas) != 2 {
		t.Fatalf("deltas: %+v", deltas)
	}
	if deltas[0].Name != "BenchmarkFast" || deltas[0].Regressed {
		t.Errorf("BenchmarkFast should pass: %+v", deltas[0])
	}
	if !deltas[1].Regressed {
		t.Errorf("BenchmarkSlow should fail the 15%% gate: %+v", deltas[1])
	}
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Errorf("missing = %v, want [BenchmarkGone]", missing)
	}
	if !BenchRegressed(deltas, missing) {
		t.Error("gate should fail on regression + missing benchmark")
	}
}

func TestBenchGateZeroAllocBaseline(t *testing.T) {
	base := []BenchResult{{Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 0}}
	cur := []BenchResult{{Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 2}}
	// Even a generous growth fraction admits no allocations on a
	// zero-alloc baseline.
	deltas, _ := BenchGate{MaxSlowdown: -1, MaxAllocGrowth: 10}.Compare(base, cur)
	if !deltas[0].Regressed {
		t.Fatalf("allocating on a zero-alloc baseline must regress: %+v", deltas[0])
	}
}

func TestBenchGateDisabledGates(t *testing.T) {
	base := []BenchResult{{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: 1}}
	cur := []BenchResult{{Name: "BenchmarkX", NsPerOp: 1000, AllocsPerOp: 50}}
	deltas, missing := BenchGate{MaxSlowdown: -1, MaxAllocGrowth: -1}.Compare(base, cur)
	if BenchRegressed(deltas, missing) {
		t.Fatalf("disabled gates must pass everything: %+v", deltas)
	}
}

// TestCheckedInBaselineParses guards the committed baseline file: the CI
// gate reads it, so it must stay parseable and non-empty.
func TestCheckedInBaselineParses(t *testing.T) {
	f, err := os.Open("testdata/bench-baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := ParseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("checked-in baseline has no benchmark results")
	}
	for _, r := range res {
		if r.AllocsPerOp < 0 {
			t.Errorf("%s lacks -benchmem stats; the allocation gate needs them", r.Name)
		}
	}
}
