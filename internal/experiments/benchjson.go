package experiments

import (
	"encoding/json"
	"io"
	"time"

	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs/wtrace"
	"espresso/internal/runmeta"
)

// BenchModel is one model's row in the machine-readable benchmark
// summary: the strategy-selection effort and the predicted win over
// uncompressed training. Durations are fractional microseconds, the unit
// every other JSON artifact in this repository uses.
type BenchModel struct {
	Model   string `json:"model"`
	Tensors int    `json:"tensors"`

	SelectionTimeUs float64 `json:"selection_time_us"`
	Evals           int     `json:"evals"`
	// NsPerEval is the selection wall time over Evals: the mean cost of
	// one F(S) evaluation, amortized over every phase.
	NsPerEval float64 `json:"ns_per_eval"`
	// PhaseMs splits the selection wall time by selector phase (seed,
	// sweep, offload, alt, finalize) in milliseconds.
	PhaseMs    map[string]float64 `json:"phase_ms"`
	Compressed int                `json:"compressed_tensors"`
	Offloaded  int                `json:"offloaded_tensors"`

	PredictedIterUs float64 `json:"predicted_iter_us"`
	FP32IterUs      float64 `json:"fp32_iter_us"`
	// Speedup is FP32 iteration time over Espresso's — how much faster
	// an iteration gets with the selected compression strategy.
	Speedup float64 `json:"speedup_vs_fp32"`
}

// BenchSummary is the -json-out payload of espresso bench: one entry per
// benchmark model on a fixed testbed and algorithm, stamped with the run
// context (host, build, wall clock) that makes selection times
// comparable across the BENCH_*.json trajectory.
type BenchSummary struct {
	Meta      runmeta.Meta `json:"meta"`
	Testbed   string       `json:"testbed"`
	Machines  int          `json:"machines"`
	Algorithm string       `json:"algorithm"`
	Models    []BenchModel `json:"models"`
}

// Summary selects a strategy for every benchmark model on the NVLink
// testbed with DGC (the Table 5 configuration) and reports selection
// effort — evaluations, ns per evaluation, per-phase wall time — and
// predicted speedup over FP32 per model.
func Summary() (*BenchSummary, error) {
	const machines = 8
	start := time.Now()
	tracer := wtrace.New()
	out := &BenchSummary{
		Meta:      runmeta.Collect(),
		Testbed:   NVLink.Name,
		Machines:  machines,
		Algorithm: SpecDGC.String(),
	}
	for _, m := range model.All() {
		c := NVLink.Make(machines)
		cm, err := cost.NewModels(c, SpecDGC)
		if err != nil {
			return nil, err
		}
		sel := core.NewSelector(m, c, cm)
		sel.Parallelism = parallelism
		req := tracer.Start("select")
		sel.Trace = req
		_, rep, err := sel.Select()
		phases := wtrace.PhaseDurations(req.Spans())
		req.Release()
		if err != nil {
			return nil, err
		}
		fp32, err := IterTime(SysFP32, m, c, cm)
		if err != nil {
			return nil, err
		}
		bm := BenchModel{
			Model:           m.Name,
			Tensors:         m.NumTensors(),
			SelectionTimeUs: us(rep.SelectionTime),
			Evals:           rep.Evals,
			Compressed:      rep.Compressed,
			Offloaded:       rep.Offloaded,
			PredictedIterUs: us(rep.Iter),
			FP32IterUs:      us(fp32),
			PhaseMs:         make(map[string]float64, len(phases)),
		}
		if rep.Evals > 0 {
			bm.NsPerEval = float64(rep.SelectionTime) / float64(rep.Evals)
		}
		for name, d := range phases {
			bm.PhaseMs[name] = float64(d) / 1e6
		}
		if rep.Iter > 0 {
			bm.Speedup = float64(fp32) / float64(rep.Iter)
		}
		out.Models = append(out.Models, bm)
	}
	out.Meta.WallClockS = time.Since(start).Seconds()
	return out, nil
}

// WriteJSON writes the summary with stable indentation.
func (s *BenchSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
