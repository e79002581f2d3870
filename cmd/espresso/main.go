// Command espresso selects a near-optimal gradient-compression strategy
// for a DDL training job, following the paper's workflow (Figure 6): the
// job is described by three configuration inputs — model, GC algorithm,
// and training system — given either as one JSON job file or as flags.
//
// Examples:
//
//	espresso -job job.json
//	espresso -model bert-base -cluster nvlink -machines 8 -algo randomk -ratio 0.01
//	espresso -model lstm -cluster pcie -machines 8 -algo efsignsgd -compare
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"espresso"
	"espresso/internal/job"
	"espresso/internal/logx"
)

// log carries the CLI's structured stderr diagnostics; built in main
// from the shared -log-level/-log-json flags.
var log *slog.Logger

func main() {
	var (
		jobFile  = flag.String("job", "", "JSON job file with model/cluster/algorithm specs")
		modelF   = flag.String("model", "bert-base", "model preset (vgg16, resnet101, ugatit, bert-base, gpt2, lstm)")
		clusterF = flag.String("cluster", "nvlink", "cluster preset (nvlink, pcie)")
		machines = flag.Int("machines", 8, "number of GPU machines")
		gpus     = flag.Int("gpus", 0, "GPUs per machine (0 = preset default)")
		algo     = flag.String("algo", "randomk", "GC algorithm (fp32, randomk, dgc, topk, efsignsgd, qsgd, terngrad)")
		ratio    = flag.Float64("ratio", 0.01, "sparsifier compression ratio")
		compare  = flag.Bool("compare", false, "also evaluate the baseline systems and the upper bound")
		showAll  = flag.Bool("decisions", false, "print the per-tensor decisions")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON")
		export   = flag.String("export", "", "write the selected strategy to this file")
		apply    = flag.String("apply", "", "evaluate a previously exported strategy instead of selecting")
	)
	var logf logx.Flags
	logf.Register(nil)
	flag.Parse()
	log = logf.Logger()

	// A job file is the whole job; the spec flags describe one otherwise.
	j := espresso.Job{
		Model:     espresso.ModelSpec{Preset: *modelF},
		Cluster:   espresso.ClusterSpec{Preset: *clusterF, Machines: *machines, GPUsPerMachine: *gpus},
		Algorithm: espresso.AlgorithmSpec{Name: *algo, Ratio: *ratio},
	}
	if *jobFile != "" {
		var err error
		if j, err = job.Load(*jobFile); err != nil {
			fatal(err)
		}
	}

	var strategy *espresso.Strategy
	var report *espresso.Report
	if *apply != "" {
		buf, err := os.ReadFile(*apply)
		if err != nil {
			fatal(err)
		}
		if strategy, err = espresso.ImportStrategy(j, buf); err != nil {
			fatal(err)
		}
		if report, err = espresso.Predict(j, strategy); err != nil {
			fatal(err)
		}
	} else {
		var err error
		if strategy, report, err = espresso.Select(j); err != nil {
			fatal(err)
		}
	}
	if *export != "" {
		buf, err := strategy.Export()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*export, buf, 0o644); err != nil {
			fatal(err)
		}
	}

	if *asJSON {
		out := struct {
			Report   *espresso.Report   `json:"report"`
			Strategy *espresso.Strategy `json:"strategy"`
		}{report, strategy}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	modelName := j.Model.Preset
	if modelName == "" {
		modelName = j.Model.Name
	}
	fmt.Printf("Espresso strategy for %s on %s x%d (%s)\n",
		modelName, j.Cluster.Preset, j.Cluster.Machines, j.Algorithm.Name)
	fmt.Printf("  selection time:     %v (%d timeline evaluations)\n", report.SelectionTime, report.Evaluations)
	fmt.Printf("  predicted iteration: %v\n", report.IterTime)
	fmt.Printf("  throughput:          %.0f %s (scaling factor %.2f)\n", report.Throughput, report.Unit, report.ScalingFactor)
	fmt.Printf("  compressed tensors:  %d of %d (%d offloaded to CPUs)\n",
		report.CompressedTensors, len(strategy.Decisions), report.OffloadedTensors)

	if *compare {
		fmt.Println("\nComparison:")
		for _, name := range []espresso.BaselineName{espresso.FP32, espresso.BytePSCompress, espresso.HiTopKComm, espresso.HiPress} {
			_, brep, err := espresso.Baseline(name, j)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-16s %10.0f %s  (Espresso %+.0f%%)\n",
				name, brep.Throughput, brep.Unit, 100*(report.Throughput/brep.Throughput-1))
		}
		ub, err := espresso.UpperBound(j)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-16s %10.0f %s  (Espresso within %.1f%%)\n",
			"UpperBound", ub.Throughput, ub.Unit, 100*(1-report.Throughput/ub.Throughput))
	}

	if *showAll {
		fmt.Println("\nPer-tensor decisions (backward order):")
		for _, d := range strategy.Decisions {
			mark := "-"
			if d.Compressed {
				mark = d.Device
			}
			fmt.Printf("  %-32s %10d elems  %-4s  %s\n", d.Tensor, d.Elems, mark, d.Option)
		}
	}
}

func fatal(err error) {
	logx.Fatal(log, err.Error())
}
