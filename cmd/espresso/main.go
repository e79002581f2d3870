// Command espresso selects, simulates, analyzes and benchmarks
// gradient-compression strategies for DDL training jobs. Every tool is
// a subcommand of this one binary:
//
//	espresso select -model bert-base -cluster nvlink -machines 8 -algo randomk
//	espresso sim -job configs/lstm_pcie.json -iters 3
//	espresso <command> -h
//
// The job subcommands (select, sim, analyze, chaos) take the same Job
// spec flags: the paper's three configuration inputs (Figure 6) — model,
// GC algorithm and training system — as -model/-algo/-ratio and
// -cluster/-machines/-gpus, or as one JSON -job file.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"espresso/internal/baselines"
	"espresso/internal/core"
	"espresso/internal/job"
	"espresso/internal/logx"
	"espresso/internal/obs"
	obsserve "espresso/internal/obs/serve"
	"espresso/internal/par"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// commands lists the subcommands in the order usage prints them.
var commands = []struct {
	name, summary string
	run           func(fs *flag.FlagSet, args []string)
}{
	{"select", "select a near-optimal compression strategy for a job", runSelect},
	{"sim", "execute a strategy end to end on the simulated cluster's data plane", runSim},
	{"analyze", "profile an iteration: critical path, device utilization, phases", runAnalyze},
	{"chaos", "sweep straggler severities, or run a fault-injection plan", runChaos},
	{"trace", "run the offline profiling stage for a model", runTrace},
	{"bench", "regenerate the paper's evaluation tables and figures", runBench},
	{"benchgate", "gate `go test -bench` output against a checked-in baseline", runBenchgate},
	{"load", "drive sustained selection traffic and record its throughput", runLoad},
	{"serve", "serve strategy selection as a JSON API", runServe},
	{"verify", "run the differential correctness harness", runVerify},
}

func main() {
	if len(os.Args) > 1 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				c.run(flag.NewFlagSet(c.name, flag.ExitOnError), os.Args[2:])
				return
			}
		}
	}
	fmt.Fprint(os.Stderr, "usage: espresso <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprint(os.Stderr, "\nRun 'espresso <command> -h' for the command's flags.\n")
	os.Exit(2)
}

// log carries the subcommand's structured stderr diagnostics; parse
// builds it from the shared -log-level/-log-json flags.
var log *slog.Logger

// parse adds the logging flags to fs, parses args and builds log.
func parse(fs *flag.FlagSet, args []string) {
	var lf logx.Flags
	lf.Register(fs)
	fs.Parse(args)
	log = lf.Logger()
}

func fatal(err error) {
	logx.Fatal(log, err.Error())
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

// listen serves /metrics, /healthz, /debug/pprof and whatever opts
// mount on addr until the returned server is closed. An empty addr
// serves nothing and returns nil, which Close accepts.
func listen(addr string, metrics *obs.Metrics, opts ...obsserve.Option) *obsserve.Server {
	if addr == "" {
		return nil
	}
	srv, err := obsserve.Start(addr, metrics, opts...)
	if err != nil {
		fatal(fmt.Errorf("listen on %s: %w", addr, err))
	}
	log.Info("observability endpoint up", "url", srv.URL)
	return srv
}

// jobFlags are the Job spec flags of the job subcommands.
type jobFlags struct {
	spec     job.Job // the job the spec flags describe
	file     string
	parallel int
}

// addSpecFlags registers -model, -algo and -ratio on fs; they default
// to and write into j.
func addSpecFlags(fs *flag.FlagSet, j *job.Job) {
	fs.StringVar(&j.Model.Preset, "model", j.Model.Preset, "model preset (vgg16, resnet101, ugatit, bert-base, gpt2, lstm)")
	fs.StringVar(&j.Algorithm.Name, "algo", j.Algorithm.Name, "GC algorithm (fp32, randomk, dgc, topk, efsignsgd, qsgd, terngrad)")
	fs.Float64Var(&j.Algorithm.Ratio, "ratio", j.Algorithm.Ratio, "sparsifier compression ratio")
}

// addJobFlags registers the Job spec flags on fs — -job, -model,
// -cluster, -machines, -gpus, -algo, -ratio and -parallel — with def's
// values as their defaults.
func addJobFlags(fs *flag.FlagSet, def job.Job) *jobFlags {
	f := &jobFlags{spec: def}
	addSpecFlags(fs, &f.spec)
	fs.StringVar(&f.file, "job", "", "JSON job file with model/cluster/algorithm specs; it is the whole job (overrides the other spec flags except -parallel)")
	fs.StringVar(&f.spec.Cluster.Preset, "cluster", def.Cluster.Preset, "cluster preset (nvlink, pcie)")
	fs.IntVar(&f.spec.Cluster.Machines, "machines", def.Cluster.Machines, "number of GPU machines")
	fs.IntVar(&f.spec.Cluster.GPUsPerMachine, "gpus", def.Cluster.GPUsPerMachine, "GPUs per machine (0 = preset default)")
	fs.IntVar(&f.parallel, "parallel", def.Parallelism, "strategy-search workers (0 = one per CPU); the selected strategy is identical at any setting")
	return f
}

// job lowers the flags to a Job: a -job file is the whole job, and
// -parallel applies either way.
func (f *jobFlags) job() job.Job {
	j := f.spec
	if f.file != "" {
		var err error
		if j, err = job.Load(f.file); err != nil {
			fatal(err)
		}
	}
	j.Parallelism = par.Workers(f.parallel)
	return j
}

// resolve lowers the flags to a Job and resolves it to a case.
func (f *jobFlags) resolve(explain bool) *job.Case {
	j := f.job()
	j.Explain = explain
	cs, err := job.Resolve(j)
	if err != nil {
		fatal(err)
	}
	return cs
}

// plan is a strategy picked by -system and its derived timeline.
type plan struct {
	s   *strategy.Strategy
	rep *core.Report // Espresso's selection report; nil for a baseline
	res *timeline.Result
}

// pick selects the strategy -system names, Espresso's own selection or
// a baselines.ByName policy, and evaluates it on the case's timeline.
// When trace or metrics is set, the selection reports into metrics and
// the timeline is observed into both.
func pick(cs *job.Case, system string, trace *obs.Trace, metrics *obs.Metrics) plan {
	var p plan
	var err error
	if system == "espresso" {
		var sel *core.Selector
		if sel, err = cs.Selector(); err != nil {
			fatal(err)
		}
		sel.Obs = metrics
		if p.s, p.rep, err = sel.Select(); err != nil {
			fatal(err)
		}
	} else {
		var sys baselines.System
		if sys, err = baselines.ByName(system); err != nil {
			fatal(err)
		}
		if p.s, err = baselines.Strategy(sys, cs.Model, cs.Cluster, cs.Costs); err != nil {
			fatal(err)
		}
	}
	eng := timeline.New(cs.Model, cs.Cluster, cs.Costs)
	if p.res, err = eng.Evaluate(p.s); err != nil {
		fatal(err)
	}
	if trace != nil || metrics != nil {
		if err = eng.Observe(trace, metrics, p.res, p.s); err != nil {
			fatal(err)
		}
	}
	return p
}
