// Package cluster describes the training-system configuration Espresso
// consumes (Figure 6 of the paper): how many machines, how many GPUs per
// machine, and the intra- and inter-machine network characteristics.
//
// Bandwidths are expressed in bytes per second of per-participant
// achievable goodput, the quantity the α–β collective cost models consume.
// Two presets mirror the paper's testbeds: NVLink-based machines on a
// 100 Gbps Ethernet fabric, and PCIe-only machines on 25 Gbps Ethernet.
package cluster

import (
	"errors"
	"fmt"
	"time"
)

// Interconnect identifies the intra-machine GPU interconnect generation.
type Interconnect int

const (
	// NVLink models NVLink 2.0: every GPU has on the order of 1.2 Tbps
	// of aggregate GPU-to-GPU bandwidth.
	NVLink Interconnect = iota
	// PCIe models PCIe 3.0 x16, roughly 100 Gbps per GPU and shared.
	PCIe
)

func (ic Interconnect) String() string {
	switch ic {
	case NVLink:
		return "NVLink"
	case PCIe:
		return "PCIe"
	default:
		return fmt.Sprintf("Interconnect(%d)", int(ic))
	}
}

// Cluster is a homogeneous GPU cluster description.
type Cluster struct {
	// Machines is the number of GPU machines (N in the paper).
	Machines int
	// GPUsPerMachine is k in the paper.
	GPUsPerMachine int

	// Intra is the intra-machine interconnect generation, kept for
	// display purposes; IntraBandwidth is what the models use.
	Intra Interconnect

	// IntraBandwidth is the per-GPU achievable intra-machine bandwidth
	// in bytes/second.
	IntraBandwidth float64
	// InterBandwidth is the per-machine NIC bandwidth in bytes/second.
	InterBandwidth float64

	// IntraLatency and InterLatency are the per-message startup costs
	// (the α term of the cost models).
	IntraLatency time.Duration
	InterLatency time.Duration

	// PCIeHostBandwidth is the GPU<->host staging bandwidth in
	// bytes/second, paid when compression is offloaded to CPUs.
	PCIeHostBandwidth float64

	// CPUCores is the number of host cores available for CPU
	// compression (the paper's machines have 2x24 cores).
	CPUCores int
}

const (
	gbps = 1e9 / 8 // bytes per second in one Gbit/s

	// Achievable fractions of line rate, consistent with the paper's
	// observation that NCCL/TCP reach 80-90% of nominal bandwidth.
	etherEff = 0.85
)

// NVLinkTestbed returns the paper's first testbed: machines with 8 V100s
// on NVLink 2.0 and a 100 Gbps TCP/IP network.
func NVLinkTestbed(machines int) *Cluster {
	return &Cluster{
		Machines:       machines,
		GPUsPerMachine: 8,
		Intra:          NVLink,
		// NVLink 2.0: ~1.2 Tbps aggregate per GPU; ring collectives
		// sustain ~130 GB/s per GPU in practice.
		IntraBandwidth:    130e9,
		InterBandwidth:    100 * gbps * etherEff,
		IntraLatency:      5 * time.Microsecond,
		InterLatency:      12 * time.Microsecond,
		PCIeHostBandwidth: 12e9,
		CPUCores:          48,
	}
}

// PCIeTestbed returns the paper's second testbed: PCIe-only machines with
// 8 V100s and a 25 Gbps network.
func PCIeTestbed(machines int) *Cluster {
	return &Cluster{
		Machines:       machines,
		GPUsPerMachine: 8,
		Intra:          PCIe,
		// PCIe 3.0 x16 provides ~100 Gbps per GPU nominally, but ring
		// collectives share the host PCIe switches among 8 GPUs, so
		// the achievable per-GPU collective bandwidth is far lower —
		// the reason PCIe-only machines are intra-machine bound (§3).
		IntraBandwidth:    2.5e9,
		InterBandwidth:    25 * gbps * etherEff,
		IntraLatency:      8 * time.Microsecond,
		InterLatency:      12 * time.Microsecond,
		PCIeHostBandwidth: 10e9,
		CPUCores:          48,
	}
}

// Clone returns a copy of the description.
func (c *Cluster) Clone() *Cluster {
	out := *c
	return &out
}

// WithBandwidthScale returns a copy whose intra- and inter-machine
// bandwidths are multiplied by the given factors — the degraded-topology
// snapshot the chaos controller feeds back into strategy selection.
// Scales must be in (0, 1]: a fault can only remove bandwidth.
func (c *Cluster) WithBandwidthScale(intra, inter float64) (*Cluster, error) {
	if !(intra > 0 && intra <= 1 && inter > 0 && inter <= 1) { // rejects NaN too
		return nil, fmt.Errorf("cluster: bandwidth scales %g/%g, want (0, 1]", intra, inter)
	}
	out := c.Clone()
	out.IntraBandwidth *= intra
	out.InterBandwidth *= inter
	return out, nil
}

// WithMachines returns a copy with a different machine count — the
// restricted (or re-expanded) topology the elastic-membership controller
// selects against after ranks leave or rejoin. Everything per-machine
// (GPUs, interconnects, host resources) is unchanged.
func (c *Cluster) WithMachines(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: machine count %d, want > 0", n)
	}
	out := c.Clone()
	out.Machines = n
	return out, nil
}

// TotalGPUs reports N*k.
func (c *Cluster) TotalGPUs() int { return c.Machines * c.GPUsPerMachine }

// SingleMachine reports whether there is no inter-machine communication.
func (c *Cluster) SingleMachine() bool { return c.Machines <= 1 }

// Validate checks the description for internal consistency.
func (c *Cluster) Validate() error {
	switch {
	case c.Machines <= 0:
		return errors.New("cluster: Machines must be positive")
	case c.GPUsPerMachine <= 0:
		return errors.New("cluster: GPUsPerMachine must be positive")
	case c.IntraBandwidth <= 0 && c.GPUsPerMachine > 1:
		return errors.New("cluster: IntraBandwidth must be positive with multiple GPUs per machine")
	case c.InterBandwidth <= 0 && c.Machines > 1:
		return errors.New("cluster: InterBandwidth must be positive with multiple machines")
	case c.PCIeHostBandwidth <= 0:
		return errors.New("cluster: PCIeHostBandwidth must be positive")
	case c.CPUCores <= 0:
		return errors.New("cluster: CPUCores must be positive")
	case c.IntraLatency < 0 || c.InterLatency < 0:
		return errors.New("cluster: latencies must be non-negative")
	}
	return nil
}

func (c *Cluster) String() string {
	return fmt.Sprintf("%d machines x %d GPUs, %s intra %.0f GB/s, inter %.0f Gbps",
		c.Machines, c.GPUsPerMachine, c.Intra, c.IntraBandwidth/1e9, c.InterBandwidth*8/1e9)
}
