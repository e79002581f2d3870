package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"espresso/internal/chaos"
	"espresso/internal/job"
	"espresso/internal/strategy"
)

type sweepRow struct {
	Severity    float64            `json:"severity"`
	InterScale  float64            `json:"inter_scale"`
	Reselection *chaos.Reselection `json:"reselection"`
}

// runChaos has two modes.
//
// Severity sweep (default): it selects the healthy-topology Espresso
// strategy once, then for each severity (bandwidth divisor) re-runs
// selection on the degraded topology, warm-started from the healthy
// incumbent, and reports the predicted iteration time before/after and
// the strategy's communication shape. The shape column surfaces the
// flat<->hierarchical crossover: as the inter-machine link degrades, the
// optimum migrates between single-phase flat collectives and two-level
// hierarchical ones.
//
//	espresso chaos -model lstm -cluster nvlink -machines 4 -severities 1,2,4,8,16
//
// Plan execution (-plan): it loads a fault-injection plan (including
// elastic leave/join membership events), selects the healthy strategy,
// and runs iterations against the faulted network — reconfiguring
// through membership changes per the plan's degradation policy — then
// writes the full run report.
//
//	espresso chaos -plan configs/chaos-elastic.json -iters 8 -report report.json -deterministic
func runChaos(fs *flag.FlagSet, args []string) {
	jf := addJobFlags(fs, job.Job{
		Model:     job.ModelSpec{Preset: "lstm"},
		Cluster:   job.ClusterSpec{Preset: "nvlink", Machines: 4},
		Algorithm: job.AlgorithmSpec{Name: "dgc", Ratio: 0.01},
	})
	var (
		severities = fs.String("severities", "1,2,4,8,16", "comma-separated straggler severities (inter bandwidth divisors)")
		jsonOut    = fs.String("json-out", "", "write the sweep rows as JSON")
		planF      = fs.String("plan", "", "fault-injection plan JSON; runs iterations against the faulted network instead of sweeping severities")
		iters      = fs.Int("iters", 8, "iterations to run in plan mode")
		reportF    = fs.String("report", "", "write the plan-mode run report JSON")
		determin   = fs.Bool("deterministic", false, "zero wall-clock fields in the report so same-seed reruns are byte-identical")
		policyF    = fs.String("policy", "", "override the plan's degradation policy (reselect, continue-degraded, abort-after-n-failures)")
	)
	parse(fs, args)
	cs := jf.resolve(false)

	// The healthy incumbent, selected once.
	sel, err := cs.Selector()
	if err != nil {
		fatal(err)
	}
	healthy, rep, err := sel.Select()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("healthy strategy: iteration %v, shape %s\n\n", rep.Iter, chaos.ShapeOf(healthy))

	if *planF != "" {
		runPlan(cs, healthy, *planF, *iters, *reportF, *determin, *policyF)
		return
	}

	var rows []sweepRow
	fmt.Printf("%-9s %-14s %-14s %-8s %-28s %s\n",
		"severity", "incumbent", "re-selected", "gain", "shape after", "adopted")
	for _, tok := range strings.Split(*severities, ",") {
		sev, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || !(sev >= 1) {
			fatal(fmt.Errorf("bad severity %q (want >= 1)", tok))
		}
		_, rs, err := chaos.Reselect(cs.Model, cs.Cluster, cs.Spec, healthy, chaos.ReselectOptions{
			InterScale:  1 / sev,
			Parallelism: cs.Job.Parallelism,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-9.3g %-14v %-14v %-8s %-28s %v\n",
			sev, rs.Before.D(), rs.After.D(),
			fmt.Sprintf("%.1f%%", 100*rs.Improvement), rs.AfterShape, rs.Adopted)
		rows = append(rows, sweepRow{Severity: sev, InterScale: 1 / sev, Reselection: rs})
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote sweep to %s\n", *jsonOut)
	}
}

// runPlan executes a fault-injection plan end to end: iterations replay
// on the faulted network, membership changes reconfigure per the plan's
// policy, and the full report (samples, membership events, fault
// statistics) is printed and optionally written.
func runPlan(cs *job.Case, s *strategy.Strategy,
	planPath string, iters int, reportPath string, deterministic bool, policy string) {
	plan, err := chaos.Load(planPath)
	if err != nil {
		fatal(err)
	}
	if policy != "" {
		plan.Reconfig.Policy = chaos.Policy(policy)
		if err := plan.Validate(); err != nil {
			fatal(err)
		}
	}
	runner, err := chaos.NewRunner(cs.Model, cs.Cluster, cs.Spec, s, plan)
	if err != nil {
		fatal(err)
	}
	runner.Parallelism = cs.Job.Parallelism
	runner.Deterministic = deterministic

	seen := 0
	for it := 0; it < iters; it++ {
		sample, err := runner.RunIteration(it)
		if err != nil {
			writeChaosReport(runner, reportPath)
			fatal(err)
		}
		tag := ""
		if sample.Breach {
			tag = " [breach]"
		}
		fmt.Printf("iteration %d: %d machines, predicted %v observed %v%s\n",
			it, sample.Members, sample.Predicted, sample.Observed, tag)
		events := runner.Report().Membership
		printMembership(events[seen:])
		seen = len(events)
	}
	final := runner.Report()
	fmt.Printf("\nrun complete: %d iterations, %d membership events, %d drops, %d member failures\n",
		len(final.Samples), len(final.Membership), final.Net.Dropped, final.Net.MemberFailures)
	writeChaosReport(runner, reportPath)
}

// writeChaosReport writes the chaos run report when requested; it is
// also invoked on the error path so an aborted run leaves evidence.
func writeChaosReport(runner *chaos.Runner, path string) {
	if path == "" {
		return
	}
	if err := runner.Report().WriteJSON(path); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote chaos report to %s\n", path)
}

// printMembership prints the chaos runner's elastic membership changes
// and the re-selections they triggered.
func printMembership(events []chaos.MembershipEvent) {
	for _, ev := range events {
		fmt.Printf("membership change at %v (%s): left=%v joined=%v -> %d machines (barrier %d attempts, %v)\n",
			ev.Time, ev.Detected, ev.Left, ev.Joined, len(ev.Members), ev.BarrierAttempts, ev.BarrierTime)
		if rs := ev.Reselection; rs != nil {
			fmt.Printf("  re-selected on %d machines: %v -> %v (%.1f%% better, adopted=%v)\n",
				len(ev.Members), rs.Before, rs.After, 100*rs.Improvement, rs.Adopted)
		}
	}
}
