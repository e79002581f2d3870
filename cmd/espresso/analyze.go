package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"espresso/internal/core"
	"espresso/internal/job"
	"espresso/internal/obs"
	"espresso/internal/obs/analyze"
)

// runAnalyze answers "why is this iteration slow": it turns a span
// stream — either a Chrome trace-event JSON exported with -trace-out
// elsewhere in this repository, or the derived timeline of a job it runs
// itself — into an iteration profile with per-device utilization and
// bubble accounting, queue-wait distributions, a per-phase
// raw-vs-compressed breakdown, and the critical path through the span
// DAG with each segment attributed to a pipeline phase.
//
//	espresso analyze -model resnet101 -cluster nvlink -machines 8 -algo dgc
//	espresso analyze -trace trace.json -top 12
//	espresso analyze -model vgg16 -explain -analysis-out analysis.json
func runAnalyze(fs *flag.FlagSet, args []string) {
	jf := addJobFlags(fs, job.Job{
		Model:     job.ModelSpec{Preset: "resnet101"},
		Cluster:   job.ClusterSpec{Preset: "nvlink", Machines: 8},
		Algorithm: job.AlgorithmSpec{Name: "dgc", Ratio: 0.01},
	})
	var (
		traceF   = fs.String("trace", "", "analyze a Chrome trace-event JSON file instead of running a job")
		system   = fs.String("system", "espresso", "espresso|fp32|hipress|hitopkcomm|bytepscompress")
		explain  = fs.Bool("explain", false, "print the selector's per-tensor decision log (espresso system only)")
		topN     = fs.Int("top", 8, "critical-path segments to list")
		rank     = fs.Int("rank", -1, "rank to walk the critical path on (-1 = the rank owning the last span)")
		analysis = fs.String("analysis-out", "", "write the machine-readable profile JSON here")
		traceOut = fs.String("trace-out", "", "also write the derived timeline as Chrome trace-event JSON (job mode only)")
	)
	parse(fs, args)

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
		cs := jf.resolve(*explain)
		trace := obs.NewTrace()
		pl := pick(cs, *system, trace, nil)
		if rep = pl.rep; rep != nil {
			fmt.Printf("selected strategy in %v: %d/%d tensors compressed, %d offloaded, %d ruled out\n",
				rep.SelectionTime, rep.Compressed, cs.Model.NumTensors(), rep.Offloaded, rep.Ruled)
		}
		iter = pl.res.Iter
		spans = trace.Spans()
		opts.Forward = cs.Model.Forward
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
