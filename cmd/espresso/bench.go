package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"time"

	"espresso/internal/experiments"
	"espresso/internal/logx"
	"espresso/internal/obs"
)

// runners maps each -experiment name to the run that renders it.
var runners = map[string]func() (string, error){
	"table1":  render(experiments.Table1, experiments.RenderTable1),
	"table5":  render(experiments.Table5, experiments.RenderTable5),
	"table6":  render(experiments.Table6, experiments.RenderTable6),
	"fig10":   render(experiments.Fig10, experiments.RenderFig10),
	"fig11":   func() (string, error) { return experiments.RenderFig11(experiments.Fig11()), nil },
	"fig12":   render(experiments.Fig12, renderPanels),
	"fig13":   render(experiments.Fig13, renderPanels),
	"fig15":   render(experiments.Fig15, experiments.RenderFig15),
	"fig16":   render(experiments.Fig16, experiments.RenderFig16),
	"traffic": render(experiments.Traffic, experiments.RenderTraffic),
	"fig14": func() (string, error) {
		var b strings.Builder
		for _, tb := range []experiments.Testbed{experiments.NVLink, experiments.PCIe} {
			pts, err := experiments.Fig14(tb)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s:\n%s\n", tb.Name, experiments.RenderFig14(pts))
		}
		return b.String(), nil
	},
	"timelines": render(experiments.TimelineDemo, func(demos map[string]string) string {
		var names []string
		for name := range demos {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "--- %s ---\n%s\n", name, demos[name])
		}
		return b.String()
	}),
}

// render pairs an experiment with the function that renders its result.
func render[T any](run func() (T, error), show func(T) string) func() (string, error) {
	return func() (string, error) {
		v, err := run()
		if err != nil {
			return "", err
		}
		return show(v), nil
	}
}

func renderPanels(panels []*experiments.Throughput) string {
	var b strings.Builder
	for _, p := range panels {
		b.WriteString(experiments.RenderThroughput(p))
		b.WriteByte('\n')
	}
	return b.String()
}

// runBench regenerates the tables and figures of the paper's evaluation
// section on the simulated substrate.
//
//	espresso bench -experiment table1
//	espresso bench -experiment fig12
//	espresso bench -experiment all
func runBench(fs *flag.FlagSet, args []string) {
	exp := fs.String("experiment", "all", "table1|table5|table6|fig10|fig11|fig12|fig13|fig14|fig15|fig16|timelines|traffic|all")
	parallel := fs.Int("parallel", 1, "worker count for sweeps and strategy searches (0 = one per CPU); results are identical at any setting")
	jsonOut := fs.String("json-out", "", "write a machine-readable benchmark summary (selection effort and speedup vs FP32 per model) to this path and skip the experiments")
	listenF := fs.String("listen", "", "serve /metrics, /healthz, and /debug/pprof on this address while the experiments run (e.g. 127.0.0.1:9090)")
	parse(fs, args)
	experiments.SetParallelism(*parallel)

	metrics := obs.NewMetrics()
	defer listen(*listenF, metrics).Close()

	if *jsonOut != "" {
		start := time.Now()
		sum, err := experiments.Summary()
		if err != nil {
			logx.Fatal(log, "summary failed", "err", err)
		}
		if err := writeFile(*jsonOut, sum.WriteJSON); err != nil {
			logx.Fatal(log, "summary write failed", "path", *jsonOut, "err", err)
		}
		fmt.Printf("wrote benchmark summary (%d models, %v) to %s\n",
			len(sum.Models), time.Since(start).Round(time.Millisecond), *jsonOut)
		return
	}

	var names []string
	if *exp == "all" {
		for name := range runners {
			names = append(names, name)
		}
		sort.Strings(names)
	} else {
		if _, ok := runners[*exp]; !ok {
			logx.Fatal(log, "unknown experiment", "name", *exp)
		}
		names = []string{*exp}
	}

	for _, name := range names {
		start := time.Now()
		stop := metrics.Timer("bench.experiment.wall_seconds")
		out, err := runners[name]()
		stop()
		if err != nil {
			logx.Fatal(log, "experiment failed", "name", name, "err", err)
		}
		fmt.Printf("===== %s (%v) =====\n%s\n", name, time.Since(start).Round(time.Millisecond), out)
	}
}
