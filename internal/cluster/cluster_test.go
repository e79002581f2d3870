package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, c := range []*Cluster{NVLinkTestbed(8), PCIeTestbed(8), NVLinkTestbed(1)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

func TestTotalGPUs(t *testing.T) {
	if got := NVLinkTestbed(8).TotalGPUs(); got != 64 {
		t.Fatalf("TotalGPUs = %d, want 64", got)
	}
	if got := PCIeTestbed(2).TotalGPUs(); got != 16 {
		t.Fatalf("TotalGPUs = %d, want 16", got)
	}
}

func TestSingleMachine(t *testing.T) {
	if !NVLinkTestbed(1).SingleMachine() {
		t.Error("1 machine should be single-machine")
	}
	if NVLinkTestbed(2).SingleMachine() {
		t.Error("2 machines should not be single-machine")
	}
}

func TestNVLinkFasterThanPCIeIntra(t *testing.T) {
	nv, pcie := NVLinkTestbed(8), PCIeTestbed(8)
	if nv.IntraBandwidth <= pcie.IntraBandwidth {
		t.Errorf("NVLink intra %v should exceed PCIe intra %v", nv.IntraBandwidth, pcie.IntraBandwidth)
	}
	if nv.InterBandwidth <= pcie.InterBandwidth {
		t.Errorf("100Gbps testbed inter %v should exceed 25Gbps testbed %v", nv.InterBandwidth, pcie.InterBandwidth)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Cluster)
	}{
		{"zero machines", func(c *Cluster) { c.Machines = 0 }},
		{"zero gpus", func(c *Cluster) { c.GPUsPerMachine = 0 }},
		{"no intra bw", func(c *Cluster) { c.IntraBandwidth = 0 }},
		{"no inter bw", func(c *Cluster) { c.InterBandwidth = 0 }},
		{"no pcie bw", func(c *Cluster) { c.PCIeHostBandwidth = 0 }},
		{"no cores", func(c *Cluster) { c.CPUCores = 0 }},
		{"negative latency", func(c *Cluster) { c.IntraLatency = -1 }},
	}
	for _, tc := range cases {
		c := NVLinkTestbed(8)
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", tc.name)
		}
	}
}

func TestInterconnectString(t *testing.T) {
	if NVLink.String() != "NVLink" || PCIe.String() != "PCIe" {
		t.Error("interconnect names wrong")
	}
	if !strings.Contains(Interconnect(9).String(), "9") {
		t.Error("unknown interconnect should include numeric value")
	}
}

func TestClusterString(t *testing.T) {
	s := NVLinkTestbed(8).String()
	for _, want := range []string{"8 machines", "NVLink", "Gbps"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestWithBandwidthScaleRange(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		intra, inter float64
		ok           bool
	}{
		{1, 1, true}, {0.5, 0.1, true},
		{0, 1, false}, {1, 0, false}, {-1, 1, false}, {1, 1.5, false}, {inf, 1, false},
		{nan, 1, false}, {1, nan, false},
	} {
		_, err := NVLinkTestbed(2).WithBandwidthScale(tc.intra, tc.inter)
		if (err == nil) != tc.ok {
			t.Errorf("WithBandwidthScale(%g, %g): err = %v, want ok=%v", tc.intra, tc.inter, err, tc.ok)
		}
	}
}
