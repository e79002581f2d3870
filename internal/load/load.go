// Package load is the wall-clock load-test harness behind
// espresso load: it drives sustained concurrent strategy selection —
// the serving hot path every scale item in the roadmap optimizes — over
// seeded workloads from internal/gen, and reduces the run to the numbers
// the BENCH_*.json trajectory tracks: sustained selections/sec,
// wall-clock latency quantiles, and allocation cost per selection.
//
// Unlike the rest of the repository, which measures virtual time on the
// simulated substrate, everything here is real wall clock: the harness
// exists to observe the selector's own performance as a program.
package load

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	apiclient "espresso/client"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
	"espresso/internal/runmeta"
)

// Config bounds one load run. The zero value is not runnable; Run
// applies the documented defaults to non-positive fields.
type Config struct {
	// Workers is the number of concurrent selection clients
	// (default GOMAXPROCS).
	Workers int
	// Duration is how long to sustain the traffic (default 10s). A
	// selection in flight at the deadline runs to completion and is
	// counted, so slow cases lengthen the run rather than vanish.
	Duration time.Duration
	// Seed is the base workload seed; case i is gen.Generate(Seed+i)
	// (default 1).
	Seed uint64
	// Cases is how many distinct generated cases the workers cycle
	// through round-robin (default 64).
	Cases int
	// Gen bounds the generated workloads; the zero value selects
	// internal/gen's defaults.
	Gen gen.Config
	// Parallelism is each selection's internal search fan-out. The
	// default 1 keeps every selection sequential so Workers alone sets
	// the process's concurrency.
	Parallelism int
	// Metrics optionally receives the live series (load.* latency
	// histogram and counters) so a -listen endpoint can expose the run
	// while it executes. Nil runs with a private registry.
	Metrics *obs.Metrics
	// Tracer, when set, wall-clock-traces every selection: each request
	// gets an ID and a phase span tree. Nil runs untraced — the selector's
	// probe loop then stays allocation-free.
	Tracer *wtrace.Tracer
	// Flight, when set, receives one record per completed selection
	// (request ID, fingerprint, span tree, latency, outcome), so the run's
	// slow outliers are retrievable from /debug/flight afterwards.
	Flight *flight.Recorder
	// Log, when set, receives progress lines and per-request debug
	// records (request-ID-correlated at LevelDebug). Nil runs silent.
	Log *slog.Logger
	// Target, when non-empty, switches the harness from in-process
	// selection to driving a live espresso serve endpoint (e.g.
	// "http://127.0.0.1:8080") through the typed client: the measured
	// latency is then end-to-end HTTP, and allocation numbers describe
	// the client process only. The generator bounds must fit the
	// server's request caps.
	Target string
	// TargetToken is the bearer token for Target's /v1 routes.
	TargetToken string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cases <= 0 {
		c.Cases = 64
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	return c
}

// Quantiles summarizes the wall-clock selection-latency distribution in
// microseconds.
type Quantiles struct {
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MeanUs float64 `json:"mean_us"`
	MaxUs  float64 `json:"max_us"`
}

// Result is one load run reduced to its comparable numbers — the
// BENCH_load_<date>.json payload.
type Result struct {
	Meta runmeta.Meta `json:"meta"`

	Workers     int     `json:"workers"`
	Cases       int     `json:"cases"`
	Seed        uint64  `json:"seed"`
	Parallelism int     `json:"select_parallelism"`
	DurationS   float64 `json:"duration_s"`
	// Target names the espresso serve endpoint the run drove, or empty
	// for in-process selection — two runs are only comparable in the
	// same mode.
	Target string `json:"target,omitempty"`

	ElapsedS         float64   `json:"elapsed_s"`
	Selections       int64     `json:"selections"`
	Errors           int64     `json:"errors"`
	SelectionsPerSec float64   `json:"selections_per_sec"`
	Latency          Quantiles `json:"latency_us"`
	// Evals is the total number of F(S) timeline evaluations across all
	// selections — a workload fingerprint that must match across runs
	// being compared (the search is deterministic per case).
	Evals int64 `json:"evals"`

	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
}

// wireGen maps the generator bounds onto the API's wire type for
// target mode.
func wireGen(g gen.Config) apiclient.GenConfig {
	return apiclient.GenConfig{
		MinTensors:  g.MinTensors,
		MaxTensors:  g.MaxTensors,
		MinElems:    g.MinElems,
		MaxElems:    g.MaxElems,
		MaxMachines: g.MaxMachines,
	}
}

// loadCase is one pre-resolved workload: the cost models are built once
// and shared read-only across workers, exactly as the parallel search
// shares them across engine clones.
type loadCase struct {
	c  *gen.Case
	cm *cost.Models
}

// Run sustains Workers concurrent Select calls over the generated cases
// until Duration elapses, then reduces the run. The returned error
// reports harness misconfiguration; individual selection failures are
// counted in Result.Errors and surfaced as an error only when every
// selection failed.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	meta := runmeta.Collect()
	meta.Seed = cfg.Seed

	cases := make([]loadCase, 0, cfg.Cases)
	for i := 0; i < cfg.Cases; i++ {
		c := gen.Generate(cfg.Seed+uint64(i), cfg.Gen)
		cm, err := cost.NewModels(c.Cluster, c.Spec)
		if err != nil {
			return nil, fmt.Errorf("load: case %s: %w", c, err)
		}
		cases = append(cases, loadCase{c: c, cm: cm})
	}

	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	lat := m.Histogram("load.select.wall_us", obs.DurationBuckets...)
	selections := m.Counter("load.selections")
	failures := m.Counter("load.errors")
	evals := m.Counter("load.evals")
	m.Gauge("load.workers").Set(float64(cfg.Workers))

	if cfg.Log != nil {
		cfg.Log.Info("load run starting",
			"workers", cfg.Workers, "cases", cfg.Cases, "seed", cfg.Seed,
			"duration", cfg.Duration, "select_parallelism", cfg.Parallelism,
			"traced", cfg.Tracer != nil)
	}

	var remote *apiclient.Client
	if cfg.Target != "" {
		remote = apiclient.New(cfg.Target, apiclient.WithToken(cfg.TargetToken))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	var next atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lc := cases[int(next.Add(1)-1)%len(cases)]
				req := cfg.Tracer.Start("select")
				t0 := time.Now()
				var (
					nEvals int
					err    error
				)
				if remote != nil {
					var resp *apiclient.SelectResponse
					resp, err = remote.Select(context.Background(), apiclient.SelectRequest{
						Seed: lc.c.Seed, Gen: wireGen(cfg.Gen), Parallelism: cfg.Parallelism,
					})
					if err == nil {
						nEvals = resp.Report.Evals
					}
				} else {
					// The setup span keeps the request's top-level phases
					// contiguous from t0: selector construction is part of the
					// serving latency, so it gets its own slice of the tree.
					spSetup := req.Begin(wtrace.NoParent, "setup")
					sel := core.NewSelector(lc.c.Model, lc.c.Cluster, lc.cm)
					sel.Parallelism = cfg.Parallelism
					sel.Trace = req
					req.End(spSetup)
					var rep *core.Report
					_, rep, err = sel.Select()
					if err == nil {
						nEvals = rep.Evals
					}
				}
				latency := time.Since(t0)
				if err != nil {
					failures.Inc()
					cfg.Flight.Complete(req, lc.c.String(), 0, latency, flight.OutcomeError, err)
					if cfg.Log != nil {
						cfg.Log.Error("selection failed", "req", req.ID(), "case", lc.c.String(), "err", err)
					}
					req.Release()
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("load: %s: %w", lc.c, err)
					}
					errMu.Unlock()
					continue
				}
				lat.Observe(float64(latency) / float64(time.Microsecond))
				selections.Inc()
				evals.Add(int64(nEvals))
				cfg.Flight.Complete(req, lc.c.String(), int64(nEvals), latency, flight.OutcomeOK, nil)
				if cfg.Log != nil {
					cfg.Log.Debug("selection complete", "req", req.ID(), "case", lc.c.String(),
						"latency_us", float64(latency)/float64(time.Microsecond), "evals", nEvals)
				}
				req.Release()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	res := &Result{
		Meta:        meta,
		Workers:     cfg.Workers,
		Cases:       cfg.Cases,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
		DurationS:   cfg.Duration.Seconds(),
		Target:      cfg.Target,
		ElapsedS:    elapsed.Seconds(),
		Selections:  selections.Value(),
		Errors:      failures.Value(),
		Evals:       evals.Value(),
		Latency: Quantiles{
			P50Us:  lat.Quantile(0.50),
			P95Us:  lat.Quantile(0.95),
			P99Us:  lat.Quantile(0.99),
			P999Us: lat.Quantile(0.999),
			MeanUs: lat.Mean(),
			MaxUs:  lat.Quantile(1),
		},
	}
	res.Meta.WallClockS = elapsed.Seconds()
	if res.Selections > 0 {
		res.SelectionsPerSec = float64(res.Selections) / elapsed.Seconds()
		ops := float64(res.Selections)
		res.AllocBytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / ops
		res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / ops
	} else if firstErr != nil {
		return nil, firstErr
	} else {
		return nil, errors.New("load: no selection completed within the duration; lower the case bounds or raise -duration")
	}
	if cfg.Log != nil {
		cfg.Log.Info("load run complete",
			"selections", res.Selections, "elapsed_s", res.ElapsedS,
			"selections_per_sec", res.SelectionsPerSec, "errors", res.Errors,
			"p50_us", res.Latency.P50Us, "p95_us", res.Latency.P95Us,
			"p99_us", res.Latency.P99Us, "p999_us", res.Latency.P999Us,
			"anomalies", cfg.Flight.AnomalyCount())
	}
	return res, nil
}

// WriteJSON writes the result with stable indentation.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// ReadResult loads a result (or checked-in baseline) from path.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("load: parsing %s: %w", path, err)
	}
	return &r, nil
}

// Compare gates a run against a baseline: it fails when sustained
// throughput fell more than tol (a fraction; 0.15 = 15%) below the
// baseline's, and warns — via the returned note — when the workload
// fingerprints differ, which makes the throughput comparison
// apples-to-oranges. A faster run always passes.
func Compare(r, base *Result, tol float64) (note string, err error) {
	if base.SelectionsPerSec <= 0 {
		return "", errors.New("load: baseline has no throughput")
	}
	if r.Target != base.Target {
		return "", fmt.Errorf("load: run mode differs from baseline (target %q vs %q); in-process and HTTP numbers are not comparable", r.Target, base.Target)
	}
	if r.Seed != base.Seed || r.Cases != base.Cases || r.Workers != base.Workers {
		note = fmt.Sprintf("load: workload differs from baseline (seed %d/%d, cases %d/%d, workers %d/%d); throughput gate still applied",
			r.Seed, base.Seed, r.Cases, base.Cases, r.Workers, base.Workers)
	}
	floor := base.SelectionsPerSec * (1 - tol)
	if r.SelectionsPerSec < floor {
		return note, fmt.Errorf("load: throughput regression: %.1f selections/s is %.1f%% below baseline %.1f (floor %.1f at tol %.0f%%)",
			r.SelectionsPerSec, 100*(1-r.SelectionsPerSec/base.SelectionsPerSec),
			base.SelectionsPerSec, floor, 100*tol)
	}
	return note, nil
}
