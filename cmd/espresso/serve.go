package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"espresso/internal/logx"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	obsserve "espresso/internal/obs/serve"
	"espresso/internal/obs/wtrace"
	"espresso/internal/serve"
	"espresso/internal/store"
)

// runServe exposes strategy selection as a service: a JSON API for
// synchronous selection and prediction, asynchronous chaos and
// verification jobs on a bounded worker pool, and persisted, diffable
// reports — all on one listener that also serves the standard
// observability surface (/metrics, /healthz, /debug/pprof, and
// /debug/flight when tracing is on).
//
//	espresso serve -listen 127.0.0.1:8080 -store /var/lib/espresso
//	espresso serve -listen 127.0.0.1:8080 -store ./data -token secret
//	ESPRESSO_TOKEN=secret espresso serve -listen :8080 -store ./data
//
//	curl -s -XPOST localhost:8080/v1/select -d '{"seed":42,"gen":{}}'
//	curl -s localhost:8080/v1/reports/rep-000001
//
// Jobs and reports live in the -store directory (a write-ahead store
// with snapshot checkpoints); restarting the server over the same
// directory recovers them, marking jobs that were interrupted mid-run
// as failed.
func runServe(fs *flag.FlagSet, args []string) {
	var (
		listenF     = fs.String("listen", "127.0.0.1:8080", "address to serve the API and observability endpoints on")
		storeDir    = fs.String("store", "", "job/report store directory (required; created if missing)")
		token       = fs.String("token", "", "static bearer token for /v1 (empty = open; ESPRESSO_TOKEN overrides)")
		workers     = fs.Int("workers", 2, "concurrently executing jobs")
		jobDeadline = fs.Duration("job-deadline", 10*time.Minute, "default and maximum per-job execution deadline")
		trace       = fs.Bool("trace", false, "wall-clock-trace every synchronous selection into the flight recorder (/debug/flight)")
		drain       = fs.Duration("drain", 15*time.Second, "how long shutdown waits for in-flight requests")
	)
	parse(fs, args)

	if *storeDir == "" {
		logx.Fatal(log, "-store is required")
	}
	if env := os.Getenv("ESPRESSO_TOKEN"); env != "" {
		*token = env
	}

	st, err := store.Open(*storeDir, store.Options{})
	if err != nil {
		logx.Fatal(log, "opening store failed", "dir", *storeDir, "err", err)
	}
	if rec := st.Recovered(); len(rec) > 0 {
		log.Warn("recovered interrupted jobs from a previous run", "jobs", rec)
	}

	cfg := serve.Config{
		Store:       st,
		Metrics:     obs.NewMetrics(),
		Log:         log,
		Token:       *token,
		Workers:     *workers,
		JobDeadline: *jobDeadline,
	}
	if *trace {
		cfg.Tracer = wtrace.New()
		cfg.Flight = flight.New(flight.Config{Metrics: cfg.Metrics})
	}
	srv, err := serve.New(cfg)
	if err != nil {
		logx.Fatal(log, "building server failed", "err", err)
	}

	if *listenF == "" {
		logx.Fatal(log, "-listen is required")
	}
	httpSrv := listen(*listenF, cfg.Metrics,
		obsserve.WithFlight(cfg.Flight),
		obsserve.WithHandler("/v1/", srv.Handler()))
	log.Info("espresso serve up", "url", httpSrv.URL, "store", *storeDir,
		"workers", *workers, "auth", *token != "", "trace", *trace)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Info("shutting down", "signal", s.String(), "drain", *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Warn("http drain incomplete", "err", err)
	}
	if err := srv.Close(); err != nil {
		logx.Fatal(log, "close failed", "err", err)
	}
	log.Info("bye")
}
