// Command espresso-analyze answers "why is this iteration slow": it
// turns a span stream — either a Chrome trace-event JSON exported with
// -trace-out elsewhere in this repository, or the derived timeline of a
// job it runs itself — into an iteration profile with per-device
// utilization and bubble accounting, queue-wait distributions, a
// per-phase raw-vs-compressed breakdown, and the critical path through
// the span DAG with each segment attributed to a pipeline phase.
//
//	espresso-analyze -model resnet101 -cluster nvlink -machines 8 -algo dgc
//	espresso-analyze -trace trace.json -top 12
//	espresso-analyze -model vgg16 -explain -analysis-out analysis.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/core"
	"espresso/internal/job"
	"espresso/internal/logx"
	"espresso/internal/obs"
	"espresso/internal/obs/analyze"
	"espresso/internal/par"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	var (
		traceF   = flag.String("trace", "", "analyze a Chrome trace-event JSON file instead of running a job")
		modelF   = flag.String("model", "resnet101", "model preset")
		clusterF = flag.String("cluster", "nvlink", "cluster preset (nvlink, pcie)")
		machines = flag.Int("machines", 8, "GPU machines")
		gpus     = flag.Int("gpus", 0, "GPUs per machine (0 = preset default)")
		algo     = flag.String("algo", "dgc", "GC algorithm")
		ratio    = flag.Float64("ratio", 0.01, "sparsifier ratio")
		system   = flag.String("system", "espresso", "espresso|fp32|hipress|hitopkcomm|bytepscompress")
		parallel = flag.Int("parallel", 0, "strategy-search workers (0 = one per CPU)")
		explain  = flag.Bool("explain", false, "print the selector's per-tensor decision log (espresso system only)")
		topN     = flag.Int("top", 8, "critical-path segments to list")
		rank     = flag.Int("rank", -1, "rank to walk the critical path on (-1 = the rank owning the last span)")
		analysis = flag.String("analysis-out", "", "write the machine-readable profile JSON here")
		traceOut = flag.String("trace-out", "", "also write the derived timeline as Chrome trace-event JSON (job mode only)")
	)
	var logf logx.Flags
	logf.Register(nil)
	flag.Parse()
	log = logf.Logger()

	var (
		spans []obs.Span
		opts  = analyze.Options{Rank: *rank}
		iter  time.Duration // engine-predicted iteration time, when known
		rep   *core.Report
	)
	if *traceF != "" {
		f, err := os.Open(*traceF)
		if err != nil {
			fatal(err)
		}
		spans, err = obs.ReadChrome(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if len(spans) == 0 {
			fatal(fmt.Errorf("%s holds no complete events", *traceF))
		}
		fmt.Printf("loaded %d spans from %s\n", len(spans), *traceF)
	} else {
		cs, err := job.Resolve(job.Job{
			Model:       job.ModelSpec{Preset: *modelF},
			Cluster:     job.ClusterSpec{Preset: *clusterF, Machines: *machines, GPUsPerMachine: *gpus},
			Algorithm:   job.AlgorithmSpec{Name: *algo, Ratio: *ratio},
			Parallelism: par.Workers(*parallel),
			Explain:     *explain,
		})
		if err != nil {
			fatal(err)
		}
		m := cs.Model
		var s *strategy.Strategy
		if *system == "espresso" {
			sel, err := cs.Selector()
			if err != nil {
				fatal(err)
			}
			if s, rep, err = sel.Select(); err != nil {
				fatal(err)
			}
			fmt.Printf("selected strategy in %v: %d/%d tensors compressed, %d offloaded, %d ruled out\n",
				rep.SelectionTime, rep.Compressed, m.NumTensors(), rep.Offloaded, rep.Ruled)
		} else {
			sys, err := baselines.ByName(*system)
			if err != nil {
				fatal(err)
			}
			if s, err = baselines.Strategy(sys, m, cs.Cluster, cs.Costs); err != nil {
				fatal(err)
			}
		}

		eng := timeline.New(m, cs.Cluster, cs.Costs)
		res, err := eng.Evaluate(s)
		if err != nil {
			fatal(err)
		}
		iter = res.Iter
		trace := obs.NewTrace()
		if err := eng.Observe(trace, nil, res, s); err != nil {
			fatal(err)
		}
		spans = trace.Spans()
		opts.Forward = m.Forward
		if *traceOut != "" {
			if err := writeFile(*traceOut, trace.WriteChrome); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote Chrome trace (%d spans) to %s — open in ui.perfetto.dev\n", trace.Len(), *traceOut)
		}
	}

	p, err := analyze.Analyze(spans, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := p.WriteText(os.Stdout, *topN); err != nil {
		fatal(err)
	}
	if iter > 0 {
		diff := p.Critical.Total - iter
		if diff < 0 {
			diff = -diff
		}
		fmt.Printf("\ncritical path covers %.2f%% of the engine-predicted iteration (%v path vs %v predicted)\n",
			100*float64(p.Critical.Total)/float64(iter), p.Critical.Total, iter)
		if float64(diff) > 0.01*float64(iter) {
			fmt.Println("warning: critical path diverges from the prediction by more than 1%")
		}
	}

	if rep != nil && len(rep.Decisions) > 0 {
		fmt.Println()
		core.WriteDecisions(os.Stdout, rep.Decisions)
	}

	if *analysis != "" {
		if err := writeFile(*analysis, p.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote analysis to %s\n", *analysis)
	}
}

// writeFile streams one artifact to path.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	logx.Fatal(log, err.Error())
}
