package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// seq returns 1, 2, ..., n.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		want  quantile
		about string
	}{
		{200, 0.9, quantile{Value: 180, P: 0.9, N: 200}, "p90 with 20 samples beyond it"},
		{100, 0.9, quantile{Value: 90, P: 0.9, N: 100}, "p90 with exactly 10 beyond it"},
		{50, 0.9, quantile{Value: 40, P: 0.8, N: 50}, "lowered to p80, the highest with 10 beyond"},
		{11, 0.9, quantile{Value: 1, P: 1.0 / 11, N: 11}, "only the minimum has 10 beyond it"},
		{6, 0.9, quantile{Value: 6, P: 1, N: 6}, "too few samples: the maximum"},
		{0, 0.9, quantile{}, "no samples"},
	} {
		got := tail(seq(c.n), c.p)
		if got != c.want {
			t.Errorf("%s: tail(1..%d, %v) = %+v, want %+v", c.about, c.n, c.p, got, c.want)
		}
		if c.want.P < 1 && c.n > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < tailMinBeyond {
				t.Errorf("%s: only %d samples beyond the reported value", c.about, beyond)
			}
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "op_ms.p90", "core.evals.bert-base", "9lives"} {
		if !validName(name) {
			t.Errorf("validName(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"", ".hidden", "-x", "a b", "core/evals", "µs", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("validName(%q) = true, want false", name)
		}
	}
	cat := mustCatalog(t)
	seen := map[string]bool{}
	for _, group := range [][]metricDef{cat.EndToEnd, cat.WorkloadMetrics, cat.PerLayer} {
		for _, d := range group {
			if !validName(d.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %q is defined twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %q: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range cat.PerLayer {
		for _, m := range d.Moves {
			wl, name, ok := strings.Cut(m, ":")
			if !ok || !seen[name] || (wl != "*" && workloads[wl] == nil) {
				t.Errorf("per-layer metric %q moves unknown %q", d.Name, m)
			}
		}
	}
}

func mustCatalog(t *testing.T) *catalog {
	t.Helper()
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// BENCHMARK.json at the repository root is metrics.json's contract
// subset: the same workloads and metrics, in the same order.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	cat := mustCatalog(t)
	if len(bj.Workloads) != len(cat.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.json %d", len(bj.Workloads), len(cat.Workloads))
	}
	for i, w := range bj.Workloads {
		if w != cat.Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %+v, metrics.json %+v", i, w, cat.Workloads[i])
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.json %d", kind, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.json %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, cat.EndToEnd)
	var layer []metricDef
	for _, d := range cat.PerLayer {
		layer = append(layer, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	same("per_layer", bj.PerLayer, layer)
	for _, d := range cat.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// Every workload emits every metric it names, on a short traced run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload")
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	cat := mustCatalog(t)
	for _, w := range cat.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, rec, err := bench(cat, w.Name, 3, 0.5, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(cat.PerLayer) {
				t.Errorf("traced run emitted %d metrics, want the %d per-layer ones", len(out.Metrics), len(cat.PerLayer))
			}
			for _, d := range cat.PerLayer {
				if m, ok := out.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer %s: got %+v", d.Name, m)
				}
			}
			for _, d := range cat.EndToEnd {
				if v, ok := rec.Metrics[d.Name]; !ok || !(v.Value > 0) {
					t.Errorf("end-to-end %s: got %+v, want a positive value", d.Name, v)
				}
			}
			for _, d := range cat.WorkloadMetrics {
				if d.Workload != w.Name && d.Workload != "*" {
					continue
				}
				if _, ok := rec.Metrics[d.Name]; !ok {
					t.Errorf("workload metric %s missing", d.Name)
				}
			}
			if _, err := os.Stat(outDir + "/trace-" + w.Name + "-seed3.json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
