// Package job is the paper's Figure 6 job description — the DNN model,
// the GC algorithm and the training system — and its resolution into the
// internal representations the selector, the timeline engine and the data
// plane run on. Resolve is the one construction path from a job to a
// case: the public espresso API and every job CLI lower their inputs to a
// Job and call it.
package job

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/par"
	"espresso/internal/strategy"
)

// TensorSpec describes one gradient tensor of a custom model, in backward
// computation order.
type TensorSpec struct {
	Name      string  `json:"name"`
	Elems     int     `json:"elems"`
	ComputeUs float64 `json:"compute_us"`
}

// ModelSpec selects a benchmark model by preset name (vgg16, resnet101,
// ugatit, bert-base, gpt2, lstm) or describes a custom model; it takes
// one or the other, never both.
type ModelSpec struct {
	Preset string `json:"preset,omitempty"`

	Name      string       `json:"name,omitempty"`
	Tensors   []TensorSpec `json:"tensors,omitempty"`
	ForwardUs float64      `json:"forward_us,omitempty"`
	Batch     int          `json:"batch,omitempty"`
	BatchUnit string       `json:"batch_unit,omitempty"`
}

// ClusterSpec selects a testbed preset ("nvlink" or "pcie") and the
// machine count; fields beyond the preset override its defaults, and a
// zero field keeps the preset's value.
type ClusterSpec struct {
	Preset         string  `json:"preset"`
	Machines       int     `json:"machines"`
	GPUsPerMachine int     `json:"gpus_per_machine,omitempty"`
	IntraGBps      float64 `json:"intra_gbps,omitempty"` // bytes/s in GB/s
	InterGbps      float64 `json:"inter_gbps,omitempty"` // bits/s in Gbit/s
	CPUCores       int     `json:"cpu_cores,omitempty"`
}

// AlgorithmSpec selects a GC algorithm (fp32, randomk, dgc, topk,
// efsignsgd, qsgd, terngrad) and its parameters.
type AlgorithmSpec struct {
	Name   string  `json:"name"`
	Ratio  float64 `json:"ratio,omitempty"`
	Levels int     `json:"levels,omitempty"`
}

// Constraints prune the strategy search space, §4.2.2's user-facing
// extension point (e.g. bounding compression rounds to limit
// approximation error).
type Constraints struct {
	// MaxCompressionOps caps compression+decompression operations per
	// tensor (0 = unlimited).
	MaxCompressionOps int `json:"max_compression_ops,omitempty"`
	// ForbidCPU restricts compression to GPUs.
	ForbidCPU bool `json:"forbid_cpu,omitempty"`
	// ForbidFlat restricts candidate options to hierarchical
	// communication. The cluster's default uncompressed scheme remains
	// admissible as the fallback for tensors left uncompressed.
	ForbidFlat bool `json:"forbid_flat,omitempty"`
}

// Job is a DDL training job description — the three configuration inputs
// of Figure 6, plus optional search-space constraints.
type Job struct {
	Model       ModelSpec     `json:"model"`
	Cluster     ClusterSpec   `json:"cluster"`
	Algorithm   AlgorithmSpec `json:"algorithm"`
	Constraints Constraints   `json:"constraints,omitempty"`

	// Parallelism is the worker count for the strategy search:
	// independent F(S) evaluations (seed evaluations, per-tensor
	// candidate probes) fan out over per-worker timeline engines. 0 or 1
	// selects the sequential search; values below 0 select one worker
	// per CPU. The selected strategy is identical at every setting —
	// parallel ties are broken by candidate index, exactly as the
	// sequential sweep breaks them.
	Parallelism int `json:"parallelism,omitempty"`

	// Explain enables the selection decision log: one entry per tensor
	// with every candidate's predicted iteration time against the final
	// strategy, the winner, and its margin over the runner-up. The extra
	// probes roughly double the evaluation count of a selection, so it
	// is opt-in.
	Explain bool `json:"explain,omitempty"`
}

// Load reads a JSON job file (the format of configs/*.json).
func Load(path string) (Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Job{}, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return Job{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return j, nil
}

// Case is a resolved Job: the internal model, cluster, compressor and
// cost models every consumer builds on.
type Case struct {
	Job     Job
	Model   *model.Model
	Cluster *cluster.Cluster
	Spec    compress.Spec
	Costs   *cost.Models
}

// Resolve validates a Job and builds its Case.
func Resolve(j Job) (*Case, error) {
	m, err := j.Model.resolve()
	if err != nil {
		return nil, err
	}
	c, err := j.Cluster.resolve()
	if err != nil {
		return nil, err
	}
	id, err := compress.ParseID(j.Algorithm.Name)
	if err != nil {
		return nil, err
	}
	spec := compress.Spec{ID: id, Ratio: j.Algorithm.Ratio, Levels: j.Algorithm.Levels}
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		return nil, err
	}
	return &Case{Job: j, Model: m, Cluster: c, Spec: spec, Costs: cm}, nil
}

func (ms ModelSpec) resolve() (*model.Model, error) {
	if ms.Preset != "" {
		if len(ms.Tensors) > 0 {
			return nil, fmt.Errorf("job: model spec sets both preset %q and tensors", ms.Preset)
		}
		return model.ByName(ms.Preset)
	}
	if len(ms.Tensors) == 0 {
		return nil, errors.New("job: model spec needs a preset or tensors")
	}
	m := &model.Model{
		Name:      ms.Name,
		Forward:   time.Duration(ms.ForwardUs * float64(time.Microsecond)),
		Batch:     ms.Batch,
		BatchUnit: ms.BatchUnit,
	}
	if m.Name == "" {
		m.Name = "custom"
	}
	if m.Batch == 0 {
		m.Batch = 1
	}
	if m.BatchUnit == "" {
		m.BatchUnit = "samples"
	}
	for _, t := range ms.Tensors {
		m.Tensors = append(m.Tensors, model.Tensor{
			Name:    t.Name,
			Elems:   t.Elems,
			Compute: time.Duration(t.ComputeUs * float64(time.Microsecond)),
		})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func (cs ClusterSpec) resolve() (*cluster.Cluster, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"gpus_per_machine", float64(cs.GPUsPerMachine)},
		{"intra_gbps", cs.IntraGBps},
		{"inter_gbps", cs.InterGbps},
		{"cpu_cores", float64(cs.CPUCores)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("job: cluster %s must not be negative (got %v)", f.name, f.v)
		}
	}
	machines := cs.Machines
	if machines == 0 {
		machines = 1
	}
	var c *cluster.Cluster
	switch cs.Preset {
	case "nvlink", "":
		c = cluster.NVLinkTestbed(machines)
	case "pcie":
		c = cluster.PCIeTestbed(machines)
	default:
		return nil, fmt.Errorf("job: unknown cluster preset %q", cs.Preset)
	}
	if cs.GPUsPerMachine > 0 {
		c.GPUsPerMachine = cs.GPUsPerMachine
	}
	if cs.IntraGBps > 0 {
		c.IntraBandwidth = cs.IntraGBps * 1e9
	}
	if cs.InterGbps > 0 {
		c.InterBandwidth = cs.InterGbps * 1e9 / 8
	}
	if cs.CPUCores > 0 {
		c.CPUCores = cs.CPUCores
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Selector returns the case's strategy selector, configured with the
// job's constraints, Parallelism and Explain switch.
func (c *Case) Selector() (*core.Selector, error) {
	sel := core.NewSelector(c.Model, c.Cluster, c.Costs)
	sel.Parallelism = c.Job.Parallelism
	if sel.Parallelism < 0 {
		sel.Parallelism = par.Workers(0)
	}
	sel.Explain = c.Job.Explain
	cons := c.Job.Constraints
	var filters []strategy.Constraint
	if cons.MaxCompressionOps > 0 {
		filters = append(filters, strategy.MaxCompOps(cons.MaxCompressionOps))
	}
	if cons.ForbidFlat {
		filters = append(filters, strategy.RequireHierarchical())
	}
	if len(filters) > 0 {
		opts := strategy.Filter(strategy.EnumerateGPU(c.Cluster), filters...)
		if len(opts) == 0 {
			return nil, errors.New("job: constraints eliminate every option")
		}
		sel.SetCandidates(opts)
	}
	if cons.ForbidCPU {
		sel.SetDevices([]cost.Device{cost.GPU})
	}
	return sel, nil
}
