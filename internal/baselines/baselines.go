// Package baselines reproduces the strategy policies of the systems the
// paper compares against (§5.1, §6):
//
//   - FP32: BytePS without compression.
//   - HiPress: GPU compression only, inter-machine communication only,
//     with a selective mechanism that compresses a tensor when the
//     wall-clock communication saving exceeds the wall-clock compression
//     cost — the τ-based criterion §3.1 critiques.
//   - HiTopKComm: compresses every tensor with GPUs, inter-machine only.
//   - BytePS-Compress: compresses every tensor with CPUs, inter-machine
//     only.
//
// Each baseline explores a narrower search space than Espresso: none of
// them consider tensor interactions, intra-machine compression, or mixed
// GPU/CPU placement.
package baselines

import (
	"fmt"

	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// System identifies a comparison system.
type System int

const (
	FP32 System = iota
	HiPress
	HiTopKComm
	BytePSCompress
)

// All lists the comparison systems in the order the figures plot them.
var All = []System{FP32, BytePSCompress, HiTopKComm, HiPress}

// ByName maps a system's API and command-line name (fp32, hipress,
// hitopkcomm, bytepscompress) to the System.
func ByName(name string) (System, error) {
	sys, ok := map[string]System{
		"fp32": FP32, "hipress": HiPress, "hitopkcomm": HiTopKComm, "bytepscompress": BytePSCompress,
	}[name]
	if !ok {
		return 0, fmt.Errorf("baselines: unknown system %q", name)
	}
	return sys, nil
}

func (s System) String() string {
	switch s {
	case FP32:
		return "FP32"
	case HiPress:
		return "HiPress"
	case HiTopKComm:
		return "HiTopKComm"
	case BytePSCompress:
		return "BytePS-Compress"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// InterCompressed is the inter-machine-only compression option shared by
// the GC baselines: aggregate intra-machine with reduce-scatter, compress
// the shard, allgather compressed payloads across machines, and
// decompress. GPU systems (HiPress, HiTopKComm) forward the compressed
// payloads through the second intra step and decompress on every GPU;
// BytePS-Compress decompresses once on the host and forwards dense —
// each system's natural data path.
func InterCompressed(c *cluster.Cluster, dev cost.Device) strategy.Option {
	if c.SingleMachine() || c.GPUsPerMachine == 1 {
		// Degenerate clusters have a single communication domain;
		// compress around a flat allgather.
		return strategy.Option{Steps: []strategy.Step{
			{Act: strategy.Comp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true},
			{Act: strategy.Decomp, Dev: dev},
		}}
	}
	if dev == cost.CPU {
		return strategy.Option{Hier: true, Steps: []strategy.Step{
			{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
			{Act: strategy.Comp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
			{Act: strategy.Decomp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Second: true},
		}}
	}
	return strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp, Dev: dev},
	}}
}

// InterAlltoall is the divisible-scheme variant of inter-machine-only
// compression (Figure 15's "Inter Alltoall" mechanism).
func InterAlltoall(c *cluster.Cluster, dev cost.Device) strategy.Option {
	if c.SingleMachine() || c.GPUsPerMachine == 1 {
		return strategy.Option{Steps: []strategy.Step{
			{Act: strategy.Comp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Flat, Compressed: true},
			{Act: strategy.Decomp, Dev: dev},
			{Act: strategy.Comp, Dev: dev},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true, Second: true},
			{Act: strategy.Decomp, Dev: dev},
		}}
	}
	return strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Decomp, Dev: dev},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true, Second: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp, Dev: dev},
	}}
}

// AlltoallAlltoall compresses both intra-machine and inter-machine
// communication with divisible schemes (Figure 15's "Alltoall+Alltoall").
func AlltoallAlltoall(c *cluster.Cluster, dev cost.Device) strategy.Option {
	if c.SingleMachine() || c.GPUsPerMachine == 1 {
		return InterAlltoall(c, dev)
	}
	return strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Intra, Compressed: true},
		{Act: strategy.Decomp, Dev: dev},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Decomp, Dev: dev},
		{Act: strategy.Comp, Dev: dev},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true, Second: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp, Dev: dev},
	}}
}

// Strategy returns the compression strategy sys would run for the job.
func Strategy(sys System, m *model.Model, c *cluster.Cluster, cm *cost.Models) (*strategy.Strategy, error) {
	n := len(m.Tensors)
	switch sys {
	case FP32:
		return strategy.Uniform(n, strategy.NoCompression(c)), nil

	case HiTopKComm:
		// Compress every tensor with GPUs.
		return strategy.Uniform(n, InterCompressed(c, cost.GPU)), nil

	case BytePSCompress:
		// Compress every tensor with CPUs.
		return strategy.Uniform(n, InterCompressed(c, cost.CPU)), nil

	case HiPress:
		// Selective compression on wall-clock times: compress a tensor
		// when tau_comm(FP32) > tau_comm(compressed) + tau_comp. No
		// interaction analysis — exactly the myopia of Reason #1.
		eng := timeline.New(m, c, cm)
		plain := strategy.NoCompression(c)
		compOpt := InterCompressed(c, cost.GPU)
		s := strategy.Uniform(n, plain)
		for i := 0; i < n; i++ {
			plainComm, err := eng.CommTime(i, plain)
			if err != nil {
				return nil, err
			}
			comm, err := eng.CommTime(i, compOpt)
			if err != nil {
				return nil, err
			}
			comp, err := eng.CompTime(i, compOpt)
			if err != nil {
				return nil, err
			}
			if comm+comp < plainComm {
				s.PerTensor[i] = compOpt
			}
		}
		return s, nil

	default:
		return nil, fmt.Errorf("baselines: unknown system %d", int(sys))
	}
}
