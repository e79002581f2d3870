package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"espresso/internal/gen"
	"espresso/internal/load"
	"espresso/internal/logx"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	obsserve "espresso/internal/obs/serve"
	"espresso/internal/obs/wtrace"
)

// runLoad drives sustained concurrent strategy-selection traffic
// against the selector and records the wall-clock numbers every
// performance change is measured by: sustained selections/sec, latency
// quantiles, and allocation cost per selection, written as a
// BENCH_load_<date>.json with full run metadata.
//
//	espresso load -workers 8 -duration 10s
//	espresso load -workers 8 -duration 10s -baseline configs/load-baseline.json
//	espresso load -listen 127.0.0.1:9090 -duration 5m   # scrape /metrics, profile /debug/pprof
//	espresso load -trace -listen 127.0.0.1:9090         # browse /debug/flight while it runs
//	espresso load -trace -flight-out flight.json        # dump the flight recorder at exit
//
// The workload is seeded (internal/gen), so two runs with the same
// -seed/-cases select identical strategies and are directly comparable;
// Result.Evals fingerprints the workload to catch accidental drift.
func runLoad(fs *flag.FlagSet, args []string) {
	var (
		workers  = fs.Int("workers", 8, "concurrent selection clients (0 = one per CPU)")
		duration = fs.Duration("duration", 10*time.Second, "how long to sustain the traffic")
		seed     = fs.Uint64("seed", 1, "base workload seed; case i uses seed+i")
		cases    = fs.Int("cases", 64, "distinct generated cases cycled round-robin")
		parallel = fs.Int("parallel", 1, "per-selection search parallelism (keep 1 so -workers alone sets process concurrency)")

		maxTensors  = fs.Int("max-tensors", 0, "cap generated models' tensor count (0 = generator default)")
		maxMachines = fs.Int("max-machines", 0, "cap generated clusters' machine count (0 = generator default)")

		out       = fs.String("out", "", "result JSON path (default BENCH_load_<date>.json)")
		baseline  = fs.String("baseline", "", "baseline result JSON to gate against; exit 1 on regression")
		tol       = fs.Float64("regress-tol", 0.15, "allowed throughput drop vs the baseline (fraction)")
		writeBase = fs.String("write-baseline", "", "also write this run's result to the given baseline path")

		target      = fs.String("target", "", "drive a live espresso serve endpoint (e.g. http://127.0.0.1:8080) instead of selecting in-process")
		targetToken = fs.String("token", "", "bearer token for -target's /v1 routes (ESPRESSO_TOKEN overrides)")

		trace     = fs.Bool("trace", false, "wall-clock-trace every selection (request IDs, phase span trees, flight recorder)")
		flightOut = fs.String("flight-out", "", "write the flight recorder's JSON dump to this file at exit (implies -trace)")

		listenF    = fs.String("listen", "", "serve /metrics, /healthz, /debug/pprof, and (with -trace) /debug/flight on this address during the run (e.g. 127.0.0.1:9090)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	parse(fs, args)

	cfg := load.Config{
		Workers:     *workers,
		Duration:    *duration,
		Seed:        *seed,
		Cases:       *cases,
		Parallelism: *parallel,
		Gen:         gen.Config{MaxTensors: *maxTensors, MaxMachines: *maxMachines},
		Metrics:     obs.NewMetrics(),
		Log:         log,
		Target:      *target,
		TargetToken: *targetToken,
	}
	if env := os.Getenv("ESPRESSO_TOKEN"); env != "" && cfg.Target != "" {
		cfg.TargetToken = env
	}
	if *trace || *flightOut != "" {
		cfg.Tracer = wtrace.New()
		cfg.Flight = flight.New(flight.Config{Metrics: cfg.Metrics})
	}
	defer listen(*listenF, cfg.Metrics, obsserve.WithFlight(cfg.Flight)).Close()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logx.Fatal(log, "cpuprofile create failed", "err", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logx.Fatal(log, "cpuprofile start failed", "err", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	res, err := load.Run(cfg)
	if *cpuProfile != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
		log.Info("wrote CPU profile", "path", *cpuProfile)
	}
	if *flightOut != "" && cfg.Flight != nil {
		if werr := writeFile(*flightOut, cfg.Flight.WriteJSON); werr != nil {
			logx.Fatal(log, "flight dump failed", "path", *flightOut, "err", werr)
		}
		log.Info("wrote flight recorder dump", "path", *flightOut,
			"records", cfg.Flight.Total(), "anomalies", cfg.Flight.AnomalyCount())
	}
	if err != nil {
		logx.Fatal(log, "load run failed", "err", err)
	}
	if *memProfile != "" {
		runtime.GC()
		if err := writeFile(*memProfile, pprof.WriteHeapProfile); err != nil {
			logx.Fatal(log, "memprofile write failed", "err", err)
		}
		log.Info("wrote heap profile", "path", *memProfile)
	}

	fmt.Printf("%d selections in %.1fs: %.1f selections/s\n", res.Selections, res.ElapsedS, res.SelectionsPerSec)
	fmt.Printf("latency p50 %.0fµs  p95 %.0fµs  p99 %.0fµs  p99.9 %.0fµs  mean %.0fµs  max %.0fµs\n",
		res.Latency.P50Us, res.Latency.P95Us, res.Latency.P99Us, res.Latency.P999Us, res.Latency.MeanUs, res.Latency.MaxUs)
	fmt.Printf("allocations: %.0f B/op, %.0f allocs/op; %d F(S) evaluations total\n",
		res.AllocBytesPerOp, res.AllocsPerOp, res.Evals)

	path := *out
	if path == "" {
		path = "BENCH_load_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if err := writeFile(path, res.WriteJSON); err != nil {
		logx.Fatal(log, "result write failed", "path", path, "err", err)
	}
	fmt.Printf("wrote %s\n", path)
	if *writeBase != "" {
		if err := writeFile(*writeBase, res.WriteJSON); err != nil {
			logx.Fatal(log, "baseline write failed", "path", *writeBase, "err", err)
		}
		fmt.Printf("wrote baseline %s\n", *writeBase)
	}

	if *baseline != "" {
		base, err := load.ReadResult(*baseline)
		if err != nil {
			logx.Fatal(log, "baseline read failed", "path", *baseline, "err", err)
		}
		note, err := load.Compare(res, base, *tol)
		if note != "" {
			log.Warn(note)
		}
		if err != nil {
			logx.Fatal(log, "baseline gate failed", "err", err)
		}
		fmt.Printf("baseline gate passed: %.1f selections/s vs baseline %.1f (tol %.0f%%)\n",
			res.SelectionsPerSec, base.SelectionsPerSec, 100**tol)
	}
}
