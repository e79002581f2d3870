package espresso

import (
	"encoding/json"
	"strings"
	"testing"
)

func bertJob() Job {
	return Job{
		Model:     ModelSpec{Preset: "bert-base"},
		Cluster:   ClusterSpec{Preset: "nvlink", Machines: 4},
		Algorithm: AlgorithmSpec{Name: "randomk", Ratio: 0.01},
	}
}

func TestSelectEndToEnd(t *testing.T) {
	s, rep, err := Select(bertJob())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Decisions) != 207 {
		t.Fatalf("%d decisions, want 207", len(s.Decisions))
	}
	if rep.IterTime <= 0 || rep.Throughput <= 0 || rep.ScalingFactor <= 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
	if rep.CompressedTensors == 0 {
		t.Fatal("BERT on 32 GPUs should compress something")
	}
	if rep.Unit != "tokens/s" {
		t.Fatalf("unit = %q", rep.Unit)
	}
}

func TestSelectBeatsEveryBaseline(t *testing.T) {
	job := bertJob()
	_, rep, err := Select(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []BaselineName{FP32, HiPress, HiTopKComm, BytePSCompress} {
		_, brep, err := Baseline(name, job)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Throughput < brep.Throughput*0.999 {
			t.Errorf("Espresso %.0f below %s %.0f", rep.Throughput, name, brep.Throughput)
		}
	}
	ub, err := UpperBound(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput > ub.Throughput*1.001 {
		t.Errorf("Espresso %.0f above upper bound %.0f", rep.Throughput, ub.Throughput)
	}
}

func TestPredictRoundTrip(t *testing.T) {
	job := bertJob()
	s, rep, err := Select(job)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(job, s)
	if err != nil {
		t.Fatal(err)
	}
	if pred.IterTime != rep.IterTime {
		t.Fatalf("Predict %v != Select %v", pred.IterTime, rep.IterTime)
	}
}

func TestPredictRejectsWrongModel(t *testing.T) {
	job := bertJob()
	s, _, err := Baseline(FP32, job)
	if err != nil {
		t.Fatal(err)
	}
	other := job
	other.Model = ModelSpec{Preset: "lstm"}
	if _, err := Predict(other, s); err == nil {
		t.Fatal("cross-model prediction accepted")
	}
}

func TestCustomModelSpec(t *testing.T) {
	job := Job{
		Model: ModelSpec{
			Name: "tiny",
			Tensors: []TensorSpec{
				{Name: "fc2", Elems: 1 << 20, ComputeUs: 500},
				{Name: "fc1", Elems: 4 << 20, ComputeUs: 2000},
			},
			ForwardUs: 1000,
			Batch:     32,
			BatchUnit: "images",
		},
		Cluster:   ClusterSpec{Preset: "pcie", Machines: 2},
		Algorithm: AlgorithmSpec{Name: "efsignsgd"},
	}
	s, rep, err := Select(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Decisions) != 2 || s.Decisions[0].Tensor != "fc2" {
		t.Fatalf("decisions = %+v", s.Decisions)
	}
	if rep.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestClusterOverrides(t *testing.T) {
	job := bertJob()
	job.Cluster.InterGbps = 400 // a much faster network
	_, fast, err := Baseline(FP32, job)
	if err != nil {
		t.Fatal(err)
	}
	_, slow, err := Baseline(FP32, bertJob())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Throughput <= slow.Throughput {
		t.Fatalf("400Gbps (%v) should beat 100Gbps (%v)", fast.Throughput, slow.Throughput)
	}
}

func TestJobValidation(t *testing.T) {
	lstm := func(cs ClusterSpec) Job {
		return Job{Model: ModelSpec{Preset: "lstm"}, Cluster: cs, Algorithm: AlgorithmSpec{Name: "fp32"}}
	}
	nvlink2 := ClusterSpec{Preset: "nvlink", Machines: 2}
	bad := []struct {
		job  Job
		want string // substring the error must carry; "" accepts any error
	}{
		{job: Job{Model: ModelSpec{Preset: "alexnet"}, Cluster: nvlink2, Algorithm: AlgorithmSpec{Name: "fp32"}}},
		{job: Job{Model: ModelSpec{}, Cluster: nvlink2, Algorithm: AlgorithmSpec{Name: "fp32"}}},
		{job: lstm(ClusterSpec{Preset: "infiniband", Machines: 2})},
		{job: Job{Model: ModelSpec{Preset: "lstm"}, Cluster: nvlink2, Algorithm: AlgorithmSpec{Name: "zstd"}}},
		{job: Job{Model: ModelSpec{Preset: "lstm"}, Cluster: nvlink2, Algorithm: AlgorithmSpec{Name: "dgc", Ratio: 2}}},
		// Negative overrides are errors, not "keep the preset".
		{lstm(ClusterSpec{Preset: "nvlink", Machines: 2, GPUsPerMachine: -1}), "gpus_per_machine"},
		{lstm(ClusterSpec{Preset: "nvlink", Machines: 2, IntraGBps: -1}), "intra_gbps"},
		{lstm(ClusterSpec{Preset: "nvlink", Machines: 2, InterGbps: -1}), "inter_gbps"},
		{lstm(ClusterSpec{Preset: "nvlink", Machines: 2, CPUCores: -1}), "cpu_cores"},
		// A preset and custom tensors are ambiguous, not "the preset wins".
		{Job{
			Model:     ModelSpec{Preset: "lstm", Tensors: []TensorSpec{{Name: "fc", Elems: 1024, ComputeUs: 100}}},
			Cluster:   nvlink2,
			Algorithm: AlgorithmSpec{Name: "fp32"},
		}, "preset"},
	}
	for i, tc := range bad {
		_, _, err := Select(tc.job)
		if err == nil {
			t.Errorf("bad job %d accepted", i)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad job %d: error %q does not name %q", i, err, tc.want)
		}
	}
	if _, _, err := Baseline("nccl", bertJob()); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestJobJSONRoundTrip(t *testing.T) {
	job := bertJob()
	buf, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var back Job
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Model.Preset != "bert-base" || back.Algorithm.Ratio != 0.01 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestGanttOutput(t *testing.T) {
	job := Job{
		Model:     ModelSpec{Preset: "lstm"},
		Cluster:   ClusterSpec{Preset: "nvlink", Machines: 2},
		Algorithm: AlgorithmSpec{Name: "dgc", Ratio: 0.01},
	}
	s, _, err := Baseline(FP32, job)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Gantt(job, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"iteration=", "gpu", "inter"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q", want)
		}
	}
}

func TestConstraintsRespected(t *testing.T) {
	job := Job{
		Model:       ModelSpec{Preset: "lstm"},
		Cluster:     ClusterSpec{Preset: "pcie", Machines: 4},
		Algorithm:   AlgorithmSpec{Name: "efsignsgd"},
		Constraints: Constraints{MaxCompressionOps: 2, ForbidCPU: true},
	}
	s, rep, err := Select(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Decisions {
		if d.Device == "CPU" {
			t.Errorf("%s: CPU used despite ForbidCPU", d.Tensor)
		}
		// "comp(" matches both comp and decomp steps.
		if d.Compressed && strings.Count(d.Option, "comp(") > 2 {
			t.Errorf("%s: too many compression ops: %s", d.Tensor, d.Option)
		}
	}
	// The constrained selection can't beat the unconstrained one.
	free := job
	free.Constraints = Constraints{}
	_, freeRep, err := Select(free)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IterTime < freeRep.IterTime {
		t.Errorf("constrained %v beat unconstrained %v", rep.IterTime, freeRep.IterTime)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	job := Job{
		Model:     ModelSpec{Preset: "lstm"},
		Cluster:   ClusterSpec{Preset: "pcie", Machines: 4},
		Algorithm: AlgorithmSpec{Name: "dgc", Ratio: 0.01},
	}
	s, rep, err := Select(job)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportStrategy(job, buf)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(job, back)
	if err != nil {
		t.Fatal(err)
	}
	if pred.IterTime != rep.IterTime {
		t.Fatalf("imported strategy predicts %v, original %v", pred.IterTime, rep.IterTime)
	}
	// Importing into a mismatched job is rejected.
	other := job
	other.Model = ModelSpec{Preset: "vgg16"}
	if _, err := ImportStrategy(other, buf); err == nil {
		t.Fatal("cross-model import accepted")
	}
	if _, err := ImportStrategy(job, []byte("garbage")); err == nil {
		t.Fatal("garbage import accepted")
	}
}

func TestDecisionsAreDescriptive(t *testing.T) {
	s, _, err := Select(Job{
		Model:     ModelSpec{Preset: "lstm"},
		Cluster:   ClusterSpec{Preset: "pcie", Machines: 8},
		Algorithm: AlgorithmSpec{Name: "efsignsgd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sawCompressed := false
	for _, d := range s.Decisions {
		if d.Compressed {
			sawCompressed = true
			if d.Device != "GPU" && d.Device != "CPU" {
				t.Errorf("%s: compressed without device: %+v", d.Tensor, d)
			}
			if !strings.Contains(d.Option, "comp(") {
				t.Errorf("%s: option string %q has no compression step", d.Tensor, d.Option)
			}
		}
	}
	if !sawCompressed {
		t.Fatal("LSTM on the PCIe testbed should compress tensors")
	}
	if s.CompressedCount() == 0 {
		t.Fatal("CompressedCount inconsistent")
	}
}

// Job.Parallelism only changes how fast the search runs, never what it
// returns: 0 (default), an explicit worker count, and -1 (one worker
// per CPU) must all produce the same strategy and the same report.
func TestJobParallelismIdenticalResult(t *testing.T) {
	job := Job{
		Model:     ModelSpec{Preset: "lstm"},
		Cluster:   ClusterSpec{Preset: "nvlink", Machines: 4},
		Algorithm: AlgorithmSpec{Name: "dgc", Ratio: 0.01},
	}
	base, baseRep, err := Select(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4, -1} {
		job.Parallelism = p
		s, rep, err := Select(job)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", p, err)
		}
		if rep.IterTime != baseRep.IterTime || rep.Evaluations != baseRep.Evaluations {
			t.Errorf("parallelism=%d: iter/evals %v/%d != default %v/%d",
				p, rep.IterTime, rep.Evaluations, baseRep.IterTime, baseRep.Evaluations)
		}
		if len(s.Decisions) != len(base.Decisions) {
			t.Fatalf("parallelism=%d: %d decisions != %d", p, len(s.Decisions), len(base.Decisions))
		}
		for i := range base.Decisions {
			if s.Decisions[i] != base.Decisions[i] {
				t.Errorf("parallelism=%d: decision %d: %+v != %+v", p, i, s.Decisions[i], base.Decisions[i])
			}
		}
	}
}
