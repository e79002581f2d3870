package job

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"espresso/internal/cluster"
	"espresso/internal/compress"
)

// A job file is the whole job: custom_model.json's three-tensor mlp-demo
// on 4 PCIe machines of 8 GPUs, not any preset a caller's defaults name.
func TestCustomModelConfigResolvesToMLPDemo(t *testing.T) {
	j, err := Load("../../configs/custom_model.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Resolve(j)
	if err != nil {
		t.Fatal(err)
	}
	if c.Model.Name != "mlp-demo" || c.Model.NumTensors() != 3 {
		t.Errorf("model = %s with %d tensors, want mlp-demo with 3", c.Model.Name, c.Model.NumTensors())
	}
	if c.Cluster.Intra != cluster.PCIe || c.Cluster.Machines != 4 || c.Cluster.GPUsPerMachine != 8 {
		t.Errorf("cluster = %v, want PCIe 4 machines x 8 GPUs", c.Cluster)
	}
	if c.Spec != (compress.Spec{ID: compress.DGC, Ratio: 0.01}) {
		t.Errorf("spec = %+v, want dgc 0.01", c.Spec)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"model":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Errorf("truncated JSON: err = %v, want one naming the file", err)
	}
}

// Zero fields keep the preset's values; set ones override them.
func TestClusterDefaultsAndOverrides(t *testing.T) {
	c, err := Resolve(Job{Model: ModelSpec{Preset: "lstm"}, Algorithm: AlgorithmSpec{Name: "fp32"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := cluster.NVLinkTestbed(1); *c.Cluster != *want {
		t.Errorf("empty cluster spec = %v, want %v", c.Cluster, want)
	}
	c, err = Resolve(Job{
		Model:     ModelSpec{Preset: "lstm"},
		Cluster:   ClusterSpec{Preset: "pcie", Machines: 3, GPUsPerMachine: 2, IntraGBps: 5, InterGbps: 40, CPUCores: 4},
		Algorithm: AlgorithmSpec{Name: "fp32"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Cluster
	if got.Machines != 3 || got.GPUsPerMachine != 2 || got.IntraBandwidth != 5e9 ||
		got.InterBandwidth != 5e9 || got.CPUCores != 4 {
		t.Errorf("overrides not applied: %+v", got)
	}
}
