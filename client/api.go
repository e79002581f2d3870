// Package client is the typed Go client for the espresso serve
// selection API, and the home of the API's wire types: the server
// (internal/serve), the CLIs, and the conformance tests all marshal
// through the structs in this file, so the JSON contract is defined in
// exactly one place and pinned by the golden-file tests.
//
// The wire encoding is deliberately deterministic: responses carry no
// wall-clock fields (timings travel in headers), durations are integer
// nanoseconds of virtual time, and map-free structures keep field order
// fixed — the e2e suite byte-compares API responses against direct
// in-process calls.
package client

import (
	"encoding/json"
	"fmt"
)

// GenConfig mirrors internal/gen.Config on the wire: bounds for the
// seeded case generator. Zero fields select the generator's defaults.
type GenConfig struct {
	MinTensors  int `json:"min_tensors,omitempty"`
	MaxTensors  int `json:"max_tensors,omitempty"`
	MinElems    int `json:"min_elems,omitempty"`
	MaxElems    int `json:"max_elems,omitempty"`
	MaxMachines int `json:"max_machines,omitempty"`
}

// SelectRequest asks for a synchronous strategy selection on the seeded
// generated case. The seed fully determines the workload (model,
// cluster, compressor), so a request is reproducible by construction.
type SelectRequest struct {
	Seed uint64    `json:"seed"`
	Gen  GenConfig `json:"gen"`
	// Parallelism fans the selection's F(S) evaluations out over a
	// worker pool; the result is bit-identical at every setting.
	Parallelism int `json:"parallelism,omitempty"`
}

// PredictRequest asks for the predicted iteration time of an explicit
// strategy on the seeded case. Strategy is the JSON array produced by
// the select endpoint's "strategy" field (one option per tensor).
type PredictRequest struct {
	Seed     uint64          `json:"seed"`
	Gen      GenConfig       `json:"gen"`
	Strategy json.RawMessage `json:"strategy"`
}

// CaseInfo describes the generated case a response was computed on.
type CaseInfo struct {
	Seed           uint64 `json:"seed"`
	Summary        string `json:"summary"`
	Tensors        int    `json:"tensors"`
	Machines       int    `json:"machines"`
	GPUsPerMachine int    `json:"gpus_per_machine"`
	Algorithm      string `json:"algorithm"`
}

// SelectReport is the deterministic subset of core.Report: everything
// the search decided, nothing the wall clock measured (selection
// wall time travels in the X-Selection-Wall-Us response header).
type SelectReport struct {
	IterNs         int64 `json:"iter_ns"`
	Evals          int   `json:"evals"`
	Candidates     int   `json:"candidates"`
	OffloadSearch  int   `json:"offload_search"`
	OffloadTensors int   `json:"offload_tensors"`
	Compressed     int   `json:"compressed"`
	Offloaded      int   `json:"offloaded"`
	Ruled          int   `json:"ruled"`
}

// SelectResponse is the body of POST /v1/select and /v1/predict, and —
// verbatim — the persisted report row those calls leave behind
// (GET /v1/reports/{id} returns these same bytes).
type SelectResponse struct {
	ID   string   `json:"id"`
	Kind string   `json:"kind"` // "select" or "predict"
	Case CaseInfo `json:"case"`
	// Strategy is the selected (or echoed, for predict) strategy as the
	// canonical strategy-codec JSON: one option per tensor.
	Strategy json.RawMessage `json:"strategy"`
	Report   SelectReport    `json:"report"`
}

// JobRequest submits an asynchronous job. Kind selects the payload:
//
//   - "chaos": replay Iters iterations of the seeded case under the
//     inline fault-injection Plan (the internal/chaos plan schema) and
//     persist the full chaos report.
//   - "verify": run Cases differential-oracle cases starting at Seed
//     (the espresso verify harness) and persist the summary.
type JobRequest struct {
	Kind string    `json:"kind"`
	Seed uint64    `json:"seed"`
	Gen  GenConfig `json:"gen"`
	// Iters is the chaos iteration count (default 8).
	Iters int `json:"iters,omitempty"`
	// Plan is the inline chaos plan JSON; required for chaos jobs.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Cases is the verify case count (default 20).
	Cases int `json:"cases,omitempty"`
	// Parallelism configures the selection searches inside the job.
	Parallelism int `json:"parallelism,omitempty"`
	// DeadlineMs overrides the server's per-job deadline (capped by it).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// JobStatus is one job's externally visible state.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"` // queued, running, succeeded, failed, canceled
	Error string `json:"error,omitempty"`
	// ReportID names the persisted report once the job succeeded.
	ReportID string `json:"report_id,omitempty"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// ReportMeta is one row of the report listing.
type ReportMeta struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
}

// ReportList is the body of GET /v1/reports.
type ReportList struct {
	Reports []ReportMeta `json:"reports"`
}

// ChaosResponse is the persisted body of a chaos job's report.
type ChaosResponse struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"` // "chaos"
	Case  CaseInfo `json:"case"`
	Iters int      `json:"iters"`
	// Chaos is the full internal/chaos report (plan, per-iteration
	// samples, membership events, network fault statistics), produced in
	// deterministic mode so reruns at the same seed are byte-identical.
	Chaos json.RawMessage `json:"chaos"`
}

// VerifyFailure is one violated assertion of a verify job.
type VerifyFailure struct {
	Seed   uint64 `json:"seed"`
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

// VerifyResponse is the persisted body of a verify job's report.
type VerifyResponse struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // "verify"
	Seed  uint64 `json:"seed"`
	Cases int    `json:"cases"`
	// Assertions counts executed checks per check name (JSON object
	// keys marshal sorted, so the encoding is deterministic).
	Assertions map[string]int  `json:"assertions"`
	Failures   []VerifyFailure `json:"failures"`
	Passed     bool            `json:"passed"`
}

// StrategyChange is one per-tensor difference between two reports'
// strategies, rendered as the options' canonical keys.
type StrategyChange struct {
	Tensor int    `json:"tensor"`
	A      string `json:"a"`
	B      string `json:"b"`
}

// DiffResponse is the body of GET /v1/reports/{a}/diff/{b}: the
// selection-level deltas between two persisted select/predict reports.
type DiffResponse struct {
	A               string           `json:"a"`
	B               string           `json:"b"`
	SeedA           uint64           `json:"seed_a"`
	SeedB           uint64           `json:"seed_b"`
	IterDeltaNs     int64            `json:"iter_delta_ns"`
	EvalsDelta      int              `json:"evals_delta"`
	CompressedDelta int              `json:"compressed_delta"`
	OffloadedDelta  int              `json:"offloaded_delta"`
	StrategyChanges []StrategyChange `json:"strategy_changes"`
}

// APIError is the structured error every non-2xx response carries,
// wrapped in an {"error": ...} envelope. It doubles as the client's
// error type: errors.As(err, &apiErr) recovers the status and code.
type APIError struct {
	// Status is the HTTP status code (not part of the body).
	Status    int    `json:"-"`
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// Error codes. The error-contract test pins one per 4xx/5xx path.
const (
	CodeBadRequest   = "bad_request"
	CodeUnauthorized = "unauthorized"
	CodeNotFound     = "not_found"
	CodeMethod       = "method_not_allowed"
	CodeConflict     = "conflict"
	CodeTooLarge     = "request_too_large"
	CodeInternal     = "internal"
)

func (e *APIError) Error() string {
	return fmt.Sprintf("api error %d %s: %s (request %s)", e.Status, e.Code, e.Message, e.RequestID)
}

// ErrorBody is the error envelope.
type ErrorBody struct {
	Error APIError `json:"error"`
}
