// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the run's correctness, operation counts
// and metrics:
//
//	perfbench --workload table5|serve-mix|dataplane --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 the workload runs twice, untraced and then
// traced with a span around every call into a layer, and the metrics are
// the per-layer ones plus the tracing overhead. metrics.json lists every
// metric, its unit, and which end-to-end metric each layer metric moves.
// Run it through run.sh, which builds it from the checkout.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

//go:embed metrics.json
var catalogJSON []byte

// catalog is metrics.json: the workloads and every metric the benchmark
// emits.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd        []metricDef `json:"end_to_end"`
	WorkloadMetrics []metricDef `json:"workload_metrics"`
	PerLayer        []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Bound    float64  `json:"bound,omitempty"`
	Means    string   `json:"means,omitempty"`
	Workload string   `json:"workload,omitempty"`
	Moves    []string `json:"moves,omitempty"`
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &c, nil
}

// outDir holds the result records and span files a run leaves behind.
const outDir = ".bench_out"

// state is a set-up workload, ready to measure.
type state interface {
	// measure runs the workload's timed loop for the given time; tr is
	// nil for the untraced pass.
	measure(seconds float64, tr *tracer) (*pass, error)
	// layers computes the per-layer metrics after the traced pass.
	layers(tr *tracer, traced *pass) (map[string]float64, error)
	close() error
}

// workloads maps a workload name to its set-up function.
var workloads = map[string]func(seed uint64) (state, error){
	"table5":    setupTable5,
	"serve-mix": setupServeMix,
	"dataplane": setupDataplane,
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
var setupRounds = map[string]int{"table5": 15, "serve-mix": 15, "dataplane": 5}

// pass is one measured loop.
type pass struct {
	attempted, failed int
	ops               int                   // operations the latency samples cover
	busy              float64               // measured seconds the ops took
	lat               []float64             // per-operation latency, ms
	cpu               time.Duration         // process CPU time the ops took
	vsFP32            []float64             // per selection: predicted F(S) over FP32's
	named             map[string]namedValue // the workload's own headline metrics
	// Go runtime deltas over the loop.
	mallocs, allocBytes uint64
	gcFrac              float64
}

// namedValue is a metric's value and unit, with the sample count and
// percentile behind it where it has them.
type namedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P     float64 `json:"p,omitempty"`
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
}

// secPerOp is the headline the tracing overhead compares.
func (p *pass) secPerOp() float64 { return p.busy / float64(max(p.ops, 1)) }

// endToEnd fills the generic end-to-end metrics from the pass.
func (p *pass) endToEnd(out map[string]float64) {
	out["ops_per_s"] = float64(p.ops) / p.busy
	out["op_ms.p50"] = median(p.lat)
	out["op_ms.p90"] = tail(p.lat, 0.9).Value
	out["cpu_ms_per_op"] = ms(p.cpu) / float64(max(p.ops, 1))
	out["pred_iter_vs_fp32"] = mean(p.vsFP32)
}

var gcMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// measured wraps a pass with the Go runtime's allocation and GC deltas.
func measured(st state, seconds float64, tr *tracer) (*pass, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 := append([]metrics.Sample(nil), gcMetrics...)
	metrics.Read(g0)
	p, err := st.measure(seconds, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	g1 := append([]metrics.Sample(nil), gcMetrics...)
	metrics.Read(g1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if total := g1[1].Value.Float64() - g0[1].Value.Float64(); total > 0 {
		p.gcFrac = (g1[0].Value.Float64() - g0[0].Value.Float64()) / total
	}
	return p, nil
}

// output is the result line.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]namedValue `json:"metrics"`
}

// record is the full result a run saves under outDir: the seed, every
// metric (headline ones included) and the per-layer self times.
type record struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]namedValue `json:"metrics"`
	SelfTimes []layerTime           `json:"self_times,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: table5, serve-mix or dataplane")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured time per pass (table5 always runs one full pass)")
	traceFlag := flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	// One core: on a 2-vCPU VM whose cores other tenants share, two busy
	// cores made serve-mix throughput vary 2.3x from run to run, one 5%.
	runtime.GOMAXPROCS(1)
	cat, err := loadCatalog()
	if err != nil {
		return err
	}
	out, _, err := bench(cat, *workload, *seed, *seconds, *traceFlag == 1, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.Failed > 0 {
		return errors.New("correctness checks failed")
	}
	return nil
}

// bench sets the workload up, measures it and, when traced, measures it
// again with spans on. It prints progress and every metric to w, saves
// the full record and span files under outDir, and returns the result
// line and the record.
func bench(cat *catalog, workload string, seed uint64, seconds float64, traced bool, w io.Writer) (*output, *record, error) {
	if seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	setup, ok := workloads[workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown --workload %q", workload)
	}
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n",
		workload, seed, seconds, traced, runtime.GOMAXPROCS(0))

	// Set up several times and keep the last state.
	var st state
	var setups []float64
	for i := 0; i < setupRounds[workload]; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, err
			}
			st = nil // let the collector reuse its memory in the next set-up
		}
		t0 := time.Now()
		var err error
		if st, err = setup(seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	base, err := measured(st, seconds, nil)
	if err != nil {
		return nil, nil, err
	}
	attempted, failed := base.attempted, base.failed
	e2e := map[string]float64{"setup_s": median(setups), "peak_rss_mb": peakRSSMB()}
	base.endToEnd(e2e)

	rec := &record{Workload: workload, Seed: seed, Seconds: seconds, Trace: traced, Metrics: map[string]namedValue{}}
	for _, d := range cat.EndToEnd {
		rec.Metrics[d.Name] = namedValue{Value: e2e[d.Name], Unit: d.Unit}
	}
	q := tail(base.lat, 0.9)
	rec.Metrics["op_ms.p90"] = namedValue{Value: q.Value, Unit: rec.Metrics["op_ms.p90"].Unit, N: q.N, P: q.P}
	for name, v := range base.named {
		rec.Metrics[name] = v
	}
	rec.Metrics["fail_ratio"] = namedValue{Value: float64(base.failed) / float64(max(base.attempted, 1)), Unit: "ratio", N: base.attempted}

	emit, defs := e2e, cat.EndToEnd
	if traced {
		tr := newTracer()
		tp, err := measured(st, seconds, tr)
		if err != nil {
			return nil, nil, err
		}
		layer, err := st.layers(tr, tp)
		if err != nil {
			return nil, nil, err
		}
		attempted += tp.attempted
		failed += tp.failed
		ops := float64(max(base.ops, 1))
		layer["go.allocs_per_op"] = float64(base.mallocs) / ops
		layer["go.alloc_bytes_per_op"] = float64(base.allocBytes) / ops
		layer["go.gc_cpu_frac"] = base.gcFrac
		layer["trace.overhead_frac"] = (tp.secPerOp() - base.secPerOp()) / base.secPerOp()
		rec.SelfTimes = tr.selfTimes()
		tag := fmt.Sprintf("%s-seed%d", workload, seed)
		n, err := tr.write(filepath.Join(outDir, "trace-"+tag+".json"), filepath.Join(outDir, "spans-"+tag+".json"))
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(w, "wrote %d spans to %s/trace-%s.json (Chrome) and spans-%s.json\n", n, outDir, tag, tag)
		fmt.Fprintf(w, "%-12s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
		for _, lt := range rec.SelfTimes {
			fmt.Fprintf(w, "%-12s %8d %12.3f %12.3f\n", lt.Layer, lt.Spans, lt.Total, lt.Self)
		}
		// A layer the workload does not call reads 0.
		for _, d := range cat.PerLayer {
			if _, ok := layer[d.Name]; !ok {
				layer[d.Name] = 0
			}
			rec.Metrics[d.Name] = namedValue{Value: layer[d.Name], Unit: d.Unit}
		}
		emit, defs = layer, cat.PerLayer
	}
	rec.Attempted, rec.Failed = attempted, failed

	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf("  (n=%d", v.N)
			if v.P > 0 {
				extra += fmt.Sprintf(", p=%.4g", v.P)
			}
			extra += ")"
		}
		fmt.Fprintf(w, "metric %-36s %16.6g %s%s\n", name, v.Value, v.Unit, extra)
	}
	trace := 0
	if traced {
		trace = 1
	}
	recPath := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, trace))
	if err := writeFile(recPath, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}); err != nil {
		return nil, nil, err
	}

	out := &output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]namedValue{}}
	for _, d := range defs {
		v, ok := emit[d.Name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = namedValue{Value: v, Unit: d.Unit}
	}
	return out, rec, nil
}
