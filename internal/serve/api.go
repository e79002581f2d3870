// Package serve implements the selection-as-a-service JSON API behind
// espresso serve: synchronous Select/Predict, asynchronous chaos and
// verify jobs on a bounded worker pool, and persisted report
// retrieval/diffing, all backed by the internal/store write-ahead store
// so results survive restarts.
//
// The wire types live in espresso/client (the typed Go client); this
// package owns decoding, validation, and the canonical response
// encoding. Responses are byte-deterministic — the e2e conformance
// suite compares them against direct in-process core/chaos calls — so
// wall-clock measurements travel in headers, never bodies.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"espresso/client"
	"espresso/internal/chaos"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/strategy"
)

// Request-validation bounds. The service caps generator and search
// knobs so one request cannot monopolize the process.
const (
	maxBodyBytes   = 1 << 20
	maxParallelism = 64
	maxGenTensors  = 64
	maxGenElems    = 1 << 26
	maxGenMachines = 16
	maxChaosIters  = 1_000_000
	maxVerifyCases = 10_000
	maxJobDeadline = 24 * time.Hour
	defChaosIters  = 8
	defVerifyCases = 20
)

// decodeStrict unmarshals JSON rejecting unknown fields and trailing
// garbage, so a typoed field name is a 400 instead of a silently
// defaulted knob.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// genConfig validates the wire generator bounds and converts them,
// checking the post-default invariants internal/gen's draw functions
// require (they panic on hi < lo — a handler must never reach that).
func genConfig(g client.GenConfig) (gen.Config, error) {
	for name, v := range map[string]int{
		"min_tensors": g.MinTensors, "max_tensors": g.MaxTensors,
		"min_elems": g.MinElems, "max_elems": g.MaxElems,
		"max_machines": g.MaxMachines,
	} {
		if v < 0 {
			return gen.Config{}, fmt.Errorf("gen.%s must be >= 0, got %d", name, v)
		}
	}
	if g.MaxTensors > maxGenTensors {
		return gen.Config{}, fmt.Errorf("gen.max_tensors %d exceeds the service cap %d", g.MaxTensors, maxGenTensors)
	}
	if g.MaxElems > maxGenElems {
		return gen.Config{}, fmt.Errorf("gen.max_elems %d exceeds the service cap %d", g.MaxElems, maxGenElems)
	}
	if g.MaxMachines > maxGenMachines {
		return gen.Config{}, fmt.Errorf("gen.max_machines %d exceeds the service cap %d", g.MaxMachines, maxGenMachines)
	}
	// Replicate the generator's defaulting to validate the effective
	// bounds the draws will see.
	effMinT, effMaxT := g.MinTensors, g.MaxTensors
	if effMinT <= 0 {
		effMinT = 1
	}
	if effMaxT <= 0 {
		effMaxT = 6
	}
	if effMaxT < effMinT {
		return gen.Config{}, fmt.Errorf("gen.max_tensors %d < gen.min_tensors %d", effMaxT, effMinT)
	}
	effMinE, effMaxE := g.MinElems, g.MaxElems
	if effMinE <= 0 {
		effMinE = 1 << 10
	}
	if effMaxE <= 0 {
		effMaxE = 1 << 24
	}
	if effMaxE < effMinE {
		return gen.Config{}, fmt.Errorf("gen.max_elems %d < gen.min_elems %d", effMaxE, effMinE)
	}
	return gen.Config{
		MinTensors:  g.MinTensors,
		MaxTensors:  g.MaxTensors,
		MinElems:    g.MinElems,
		MaxElems:    g.MaxElems,
		MaxMachines: g.MaxMachines,
	}, nil
}

// DecodeSelectRequest parses and validates a select request body.
// Malformed input returns an error, never a panic — FuzzDecodeSelectRequest
// pins that.
func DecodeSelectRequest(data []byte) (client.SelectRequest, error) {
	var req client.SelectRequest
	if err := decodeStrict(data, &req); err != nil {
		return client.SelectRequest{}, err
	}
	if req.Parallelism < 0 || req.Parallelism > maxParallelism {
		return client.SelectRequest{}, fmt.Errorf("parallelism must be in [0, %d], got %d", maxParallelism, req.Parallelism)
	}
	if _, err := genConfig(req.Gen); err != nil {
		return client.SelectRequest{}, err
	}
	return req, nil
}

// DecodePredictRequest parses and validates a predict request body. The
// strategy is syntax-checked here; the tensor-count check against the
// generated model happens in the handler.
func DecodePredictRequest(data []byte) (client.PredictRequest, error) {
	var req client.PredictRequest
	if err := decodeStrict(data, &req); err != nil {
		return client.PredictRequest{}, err
	}
	if _, err := genConfig(req.Gen); err != nil {
		return client.PredictRequest{}, err
	}
	if len(req.Strategy) == 0 {
		return client.PredictRequest{}, fmt.Errorf("strategy is required")
	}
	if _, err := strategy.Unmarshal(req.Strategy); err != nil {
		return client.PredictRequest{}, fmt.Errorf("strategy: %w", err)
	}
	return req, nil
}

// DecodeJobRequest parses and validates a job spec.
// FuzzDecodeJobRequest pins panic-freedom, including the nested chaos
// plan.
func DecodeJobRequest(data []byte) (client.JobRequest, error) {
	var req client.JobRequest
	if err := decodeStrict(data, &req); err != nil {
		return client.JobRequest{}, err
	}
	if _, err := genConfig(req.Gen); err != nil {
		return client.JobRequest{}, err
	}
	if req.Parallelism < 0 || req.Parallelism > maxParallelism {
		return client.JobRequest{}, fmt.Errorf("parallelism must be in [0, %d], got %d", maxParallelism, req.Parallelism)
	}
	if req.DeadlineMs < 0 || time.Duration(req.DeadlineMs)*time.Millisecond > maxJobDeadline {
		return client.JobRequest{}, fmt.Errorf("deadline_ms must be in [0, %d], got %d", int64(maxJobDeadline/time.Millisecond), req.DeadlineMs)
	}
	switch req.Kind {
	case "chaos":
		if req.Iters < 0 || req.Iters > maxChaosIters {
			return client.JobRequest{}, fmt.Errorf("iters must be in [0, %d], got %d", maxChaosIters, req.Iters)
		}
		if len(req.Plan) == 0 {
			return client.JobRequest{}, fmt.Errorf("chaos jobs require an inline plan")
		}
		if _, err := chaos.Parse(req.Plan); err != nil {
			return client.JobRequest{}, fmt.Errorf("plan: %w", err)
		}
		if req.Cases != 0 {
			return client.JobRequest{}, fmt.Errorf("cases is a verify-job field")
		}
	case "verify":
		if req.Cases < 0 || req.Cases > maxVerifyCases {
			return client.JobRequest{}, fmt.Errorf("cases must be in [0, %d], got %d", maxVerifyCases, req.Cases)
		}
		if req.Iters != 0 || len(req.Plan) != 0 {
			return client.JobRequest{}, fmt.Errorf("iters/plan are chaos-job fields")
		}
	case "":
		return client.JobRequest{}, fmt.Errorf("kind is required (chaos or verify)")
	default:
		return client.JobRequest{}, fmt.Errorf("unknown job kind %q (want chaos or verify)", req.Kind)
	}
	return req, nil
}

// BuildCase resolves the seeded generated case and its cost models —
// the same construction internal/load and the differential harness use.
func BuildCase(seed uint64, g client.GenConfig) (*gen.Case, *cost.Models, error) {
	cfg, err := genConfig(g)
	if err != nil {
		return nil, nil, err
	}
	c := gen.Generate(seed, cfg)
	cm, err := cost.NewModels(c.Cluster, c.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("case %s: %w", c, err)
	}
	return c, cm, nil
}

// Info renders the case header every response carries.
func Info(c *gen.Case) client.CaseInfo {
	return client.CaseInfo{
		Seed:           c.Seed,
		Summary:        c.String(),
		Tensors:        len(c.Model.Tensors),
		Machines:       c.Cluster.Machines,
		GPUsPerMachine: c.Cluster.GPUsPerMachine,
		Algorithm:      c.Spec.String(),
	}
}

// EncodeSelect builds the canonical select/predict response body: the
// bytes the handler returns, persists, and the conformance suite
// recomputes from a direct core call.
func EncodeSelect(id, kind string, c *gen.Case, s *strategy.Strategy, rep client.SelectReport) ([]byte, error) {
	sj, err := strategy.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("encoding strategy: %w", err)
	}
	return json.Marshal(client.SelectResponse{
		ID:       id,
		Kind:     kind,
		Case:     Info(c),
		Strategy: sj,
		Report:   rep,
	})
}

// WireReport projects the deterministic subset of a core selection
// report onto the wire type.
func WireReport(rep *core.Report) client.SelectReport {
	return client.SelectReport{
		IterNs:         rep.Iter.Nanoseconds(),
		Evals:          rep.Evals,
		Candidates:     rep.Candidates,
		OffloadSearch:  rep.OffloadSearch,
		OffloadTensors: rep.OffloadTensors,
		Compressed:     rep.Compressed,
		Offloaded:      rep.Offloaded,
		Ruled:          rep.Ruled,
	}
}

// EncodeChaos builds the canonical chaos-job report body.
func EncodeChaos(id string, c *gen.Case, iters int, rep *chaos.Report) ([]byte, error) {
	cj, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encoding chaos report: %w", err)
	}
	return json.Marshal(client.ChaosResponse{
		ID:    id,
		Kind:  "chaos",
		Case:  Info(c),
		Iters: iters,
		Chaos: cj,
	})
}

// Diff computes the selection-level deltas between two persisted
// select/predict bodies.
func Diff(aID, bID string, a, b client.SelectResponse) (client.DiffResponse, error) {
	sa, err := strategy.Unmarshal(a.Strategy)
	if err != nil {
		return client.DiffResponse{}, fmt.Errorf("report %s strategy: %w", aID, err)
	}
	sb, err := strategy.Unmarshal(b.Strategy)
	if err != nil {
		return client.DiffResponse{}, fmt.Errorf("report %s strategy: %w", bID, err)
	}
	d := client.DiffResponse{
		A:               aID,
		B:               bID,
		SeedA:           a.Case.Seed,
		SeedB:           b.Case.Seed,
		IterDeltaNs:     b.Report.IterNs - a.Report.IterNs,
		EvalsDelta:      b.Report.Evals - a.Report.Evals,
		CompressedDelta: b.Report.Compressed - a.Report.Compressed,
		OffloadedDelta:  b.Report.Offloaded - a.Report.Offloaded,
		StrategyChanges: []client.StrategyChange{},
	}
	n := len(sa.PerTensor)
	if len(sb.PerTensor) > n {
		n = len(sb.PerTensor)
	}
	for i := 0; i < n; i++ {
		ka, kb := "-", "-"
		if i < len(sa.PerTensor) {
			ka = sa.PerTensor[i].Key()
		}
		if i < len(sb.PerTensor) {
			kb = sb.PerTensor[i].Key()
		}
		if ka != kb {
			d.StrategyChanges = append(d.StrategyChanges, client.StrategyChange{Tensor: i, A: ka, B: kb})
		}
	}
	return d, nil
}
