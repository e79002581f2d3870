package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"espresso"
	"espresso/internal/job"
)

// runSelect selects a near-optimal gradient-compression strategy for a
// DDL training job, following the paper's workflow (Figure 6).
//
//	espresso select -job job.json
//	espresso select -model bert-base -cluster nvlink -machines 8 -algo randomk -ratio 0.01
//	espresso select -model lstm -cluster pcie -machines 8 -algo efsignsgd -compare
func runSelect(fs *flag.FlagSet, args []string) {
	jf := addJobFlags(fs, job.Job{
		Model:       job.ModelSpec{Preset: "bert-base"},
		Cluster:     job.ClusterSpec{Preset: "nvlink", Machines: 8},
		Algorithm:   job.AlgorithmSpec{Name: "randomk", Ratio: 0.01},
		Parallelism: 1,
	})
	var (
		compare = fs.Bool("compare", false, "also evaluate the baseline systems and the upper bound")
		showAll = fs.Bool("decisions", false, "print the per-tensor decisions")
		asJSON  = fs.Bool("json", false, "emit machine-readable JSON")
		export  = fs.String("export", "", "write the selected strategy to this file")
		apply   = fs.String("apply", "", "evaluate a previously exported strategy instead of selecting")
	)
	parse(fs, args)
	j := jf.job()

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
