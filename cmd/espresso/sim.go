package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"espresso/internal/chaos"
	"espresso/internal/core"
	"espresso/internal/ddl"
	"espresso/internal/job"
	"espresso/internal/netsim"
	"espresso/internal/obs"
	"espresso/internal/obs/analyze"
)

// runSim executes a compression strategy end to end on the simulated
// cluster: real gradient bytes flow through the compression,
// collective, and error-feedback stack for a number of iterations, the
// result is checked for cross-GPU agreement, and the derived timeline is
// printed as a Gantt chart.
//
//	espresso sim -model lstm -cluster pcie -machines 2 -algo dgc -system espresso -iters 3
func runSim(fs *flag.FlagSet, args []string) {
	jf := addJobFlags(fs, job.Job{
		Model:       job.ModelSpec{Preset: "lstm"},
		Cluster:     job.ClusterSpec{Preset: "nvlink", Machines: 2, GPUsPerMachine: 2},
		Algorithm:   job.AlgorithmSpec{Name: "dgc", Ratio: 0.01},
		Parallelism: 1,
	})
	var (
		system     = fs.String("system", "espresso", "espresso|fp32|hipress|hitopkcomm|bytepscompress")
		iters      = fs.Int("iters", 2, "iterations to execute on the data plane")
		scale      = fs.Int("scale", 4096, "elements per simulated tensor on the data plane")
		gantt      = fs.Bool("gantt", true, "print the derived timeline")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event JSON file of the derived timeline")
		metrOut    = fs.String("metrics-out", "", "write a metrics-registry JSON file")
		explain    = fs.Bool("explain", false, "print the selector's per-tensor decision log (espresso system only)")
		analyzeOut = fs.String("analyze-out", "", "write an iteration-profile JSON (critical path, device stats, phase breakdown)")
		chaosF     = fs.String("chaos", "", "fault-injection plan JSON; iterations run against the faulted network with retry/timeout recovery")
		chaosOut   = fs.String("chaos-report", "", "write the chaos run report JSON (requires -chaos)")
		chaosDet   = fs.Bool("deterministic", false, "zero wall-clock fields in the chaos report so same-seed reruns are byte-identical")
		listenF    = fs.String("listen", "", "serve /metrics, /healthz, and /debug/pprof on this address during the run (e.g. 127.0.0.1:9090)")
	)
	parse(fs, args)
	cs := jf.resolve(*explain)
	m, c, spec := cs.Model, cs.Cluster, cs.Spec

	// Telemetry sinks, active when either output flag is set. The
	// analyzer consumes the span stream too, so -analyze-out implies a
	// trace.
	var (
		trace   *obs.Trace
		metrics *obs.Metrics
	)
	if *traceOut != "" || *analyzeOut != "" {
		trace = obs.NewTrace()
	}
	if *traceOut != "" || *metrOut != "" || *listenF != "" {
		metrics = obs.NewMetrics()
	}
	defer listen(*listenF, metrics).Close()

	pl := pick(cs, *system, trace, metrics)
	s, res := pl.s, pl.res
	if rep := pl.rep; rep != nil {
		fmt.Printf("selected strategy in %v: %d/%d tensors compressed, %d offloaded\n",
			rep.SelectionTime, rep.Compressed, m.NumTensors(), rep.Offloaded)
		if len(rep.Decisions) > 0 {
			core.WriteDecisions(os.Stdout, rep.Decisions)
		}
	}
	fmt.Printf("predicted iteration time: %v (throughput %.0f %s/s)\n",
		res.Iter, core.Throughput(m, c, res.Iter), m.BatchUnit)
	// Snapshot the engine's spans for the analyzer now: the netsim
	// cross-check below overlays link spans on the trace that are a
	// diagnostic, not part of the iteration, and must not enter the
	// critical path.
	var analyzeSpans []obs.Span
	if *analyzeOut != "" {
		analyzeSpans = trace.Spans()
	}
	if metrics != nil {
		// Message-level cross-check of the closed-form inter-machine cost:
		// a ring allreduce of the full gradient through netsim yields link
		// utilization the α–β models cannot express.
		if c.Machines > 1 {
			nw := netsim.MustNew(c.Machines, 5*time.Microsecond, c.InterBandwidth)
			nw.RingAllreduce(m.TotalBytes())
			nw.Observe(trace, metrics, obs.PhaseLink)
		}
	}

	// Fault injection: iterations replay their inter-machine phases on a
	// faulted message-level network, with the degradation monitor armed.
	var runner *chaos.Runner
	if *chaosF != "" {
		plan, err := chaos.Load(*chaosF)
		if err != nil {
			fatal(err)
		}
		if runner, err = chaos.NewRunner(m, c, spec, s, plan); err != nil {
			fatal(err)
		}
		runner.Parallelism = cs.Job.Parallelism
		runner.Explain = cs.Job.Explain
		runner.Trace = trace
		runner.Metrics = metrics
		runner.Deterministic = *chaosDet
	}

	// Execute the data plane with scaled-down tensors: per-GPU random
	// gradients move through the real compression/collective stack.
	x, err := ddl.NewExecutor(c, spec)
	if err != nil {
		fatal(err)
	}
	x.Metrics = metrics
	if runner != nil {
		x.Wire = runner.WireConfig()
	}
	rng := rand.New(rand.NewSource(1))
	total := c.TotalGPUs()
	seenEvents := 0
	for it := 0; it < *iters; it++ {
		if runner != nil {
			sample, err := runner.RunIteration(it)
			if err != nil {
				writeChaosReport(runner, *chaosOut)
				fatal(err)
			}
			tag := ""
			if sample.Breach {
				tag = " [breach]"
			}
			fmt.Printf("chaos iteration %d: predicted %v observed %v (%d drops, %d retransmits)%s\n",
				it, sample.Predicted, sample.Observed, sample.Drops, sample.Retransmits, tag)
			if rs := runner.Report().Reselected; rs != nil && rs.Iteration == it {
				fmt.Printf("degradation tripped at iteration %d (inter bandwidth at %.0f%%): re-selected %v -> %v (%.1f%% better, adopted=%v)\n",
					it, 100*rs.InterScale, rs.Before, rs.After, 100*rs.Improvement, rs.Adopted)
				fmt.Printf("  shape before: %s\n  shape after:  %s\n", rs.BeforeShape, rs.AfterShape)
				if len(rs.Decisions) > 0 {
					core.WriteDecisions(os.Stdout, rs.Decisions)
				}
				s = runner.Strategy // data plane follows the adopted strategy
			}
			// Elastic membership: when the runner reconfigured, rebuild the
			// data plane on the surviving topology and follow the (possibly
			// re-selected) strategy.
			if events := runner.Report().Membership; len(events) > seenEvents {
				printMembership(events[seenEvents:])
				seenEvents = len(events)
				dataC := runner.ActiveCluster()
				if x, err = ddl.NewExecutor(dataC, spec); err != nil {
					fatal(err)
				}
				x.Metrics = metrics
				x.Wire = runner.WireConfig()
				total = dataC.TotalGPUs()
				s = runner.Strategy
			}
		}
		for ti := range m.Tensors {
			n := *scale
			grads := make([][]float32, total)
			for g := range grads {
				grads[g] = make([]float32, n)
				for j := range grads[g] {
					grads[g][j] = float32(rng.NormFloat64())
				}
			}
			out, err := x.SyncTensor(m.Tensors[ti].Name, grads, s.PerTensor[ti], uint64(it))
			if err != nil {
				fatal(fmt.Errorf("iteration %d tensor %s: %w", it, m.Tensors[ti].Name, err))
			}
			for g := 1; g < total; g++ {
				for j := range out[g] {
					if out[g][j] != out[0][j] {
						fatal(fmt.Errorf("iteration %d tensor %s: GPUs 0 and %d disagree at element %d",
							it, m.Tensors[ti].Name, g, j))
					}
				}
			}
		}
		fmt.Printf("iteration %d: %d tensors synchronized, all %d GPUs agree\n",
			it, m.NumTensors(), total)
	}

	if *gantt {
		fmt.Println("\nderived timeline:")
		fmt.Print(res.Gantt())
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, trace.WriteChrome); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace (%d spans) to %s — open in ui.perfetto.dev\n", trace.Len(), *traceOut)
	}
	if *analyzeOut != "" {
		p, err := analyze.Analyze(analyzeSpans, analyze.Options{Forward: m.Forward, Rank: -1})
		if err != nil {
			fatal(err)
		}
		if err := writeFile(*analyzeOut, p.WriteJSON); err != nil {
			fatal(err)
		}
		if dom, ok := p.Critical.Dominant(); ok {
			fmt.Printf("wrote iteration profile to %s — dominant phase %s (%.1f%% of the iteration)\n",
				*analyzeOut, dom.PhaseS, 100*float64(dom.Total())/float64(p.Iter))
		} else {
			fmt.Printf("wrote iteration profile to %s\n", *analyzeOut)
		}
	}
	if runner != nil {
		writeChaosReport(runner, *chaosOut)
	}
	if *metrOut != "" {
		tr := x.Traffic()
		metrics.Gauge("ddl.traffic.intra.raw_bytes").Set(float64(tr.Intra.RawBytes))
		metrics.Gauge("ddl.traffic.intra.compressed_bytes").Set(float64(tr.Intra.CompressedBytes))
		metrics.Gauge("ddl.traffic.inter.raw_bytes").Set(float64(tr.Inter.RawBytes))
		metrics.Gauge("ddl.traffic.inter.compressed_bytes").Set(float64(tr.Inter.CompressedBytes))
		if err := writeFile(*metrOut, metrics.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metrOut)
	}
}
