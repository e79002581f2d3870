package baselines

import (
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

func dgc() compress.Spec { return compress.Spec{ID: compress.DGC, Ratio: 0.01} }

func TestEveryBaselineOptionIsValid(t *testing.T) {
	for _, c := range []*cluster.Cluster{cluster.NVLinkTestbed(8), cluster.PCIeTestbed(2), cluster.NVLinkTestbed(1)} {
		for _, dev := range []cost.Device{cost.GPU, cost.CPU} {
			for name, o := range map[string]strategy.Option{
				"inter-allgather": InterCompressed(c, dev),
				"inter-alltoall":  InterAlltoall(c, dev),
				"a2a+a2a":         AlltoallAlltoall(c, dev),
			} {
				if err := strategy.Check(o, c); err != nil {
					t.Errorf("%s on %v (%v): %v", name, c, dev, err)
				}
				if !o.AllOn(dev) {
					t.Errorf("%s: devices not all %v: %v", name, dev, o)
				}
			}
		}
	}
}

func TestStrategiesEvaluate(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := model.LSTM()
	cm := cost.MustModels(c, dgc())
	eng := timeline.New(m, c, cm)
	for _, sys := range All {
		s, err := Strategy(sys, m, c, cm)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if _, err := eng.Evaluate(s); err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
	}
}

func TestFP32CompressesNothing(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	cm := cost.MustModels(c, dgc())
	s, err := Strategy(FP32, model.LSTM(), c, cm)
	if err != nil {
		t.Fatal(err)
	}
	if s.CompressedCount() != 0 {
		t.Fatal("FP32 compresses tensors")
	}
}

func TestHiTopKCommCompressesEverything(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	cm := cost.MustModels(c, dgc())
	m := model.ResNet101()
	s, err := Strategy(HiTopKComm, m, c, cm)
	if err != nil {
		t.Fatal(err)
	}
	if s.CompressedCount() != len(m.Tensors) {
		t.Fatalf("HiTopKComm compressed %d of %d", s.CompressedCount(), len(m.Tensors))
	}
	for _, o := range s.PerTensor {
		if !o.AllOn(cost.GPU) {
			t.Fatal("HiTopKComm must use GPUs only")
		}
	}
}

func TestBytePSCompressUsesCPUs(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	cm := cost.MustModels(c, dgc())
	m := model.LSTM()
	s, err := Strategy(BytePSCompress, m, c, cm)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range s.PerTensor {
		if !o.AllOn(cost.CPU) {
			t.Fatal("BytePS-Compress must use CPUs only")
		}
	}
}

// HiPress's selective mechanism must skip tiny tensors (compression costs
// more than it saves) and compress huge ones.
func TestHiPressIsSelective(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	cm := cost.MustModels(c, dgc())
	ms := time.Millisecond
	m := model.Synthetic("mixed",
		[]int{64, 64 << 20}, []time.Duration{ms, ms}, 0)
	s, err := Strategy(HiPress, m, c, cm)
	if err != nil {
		t.Fatal(err)
	}
	if s.PerTensor[0].Compressed() {
		t.Error("HiPress compressed a 256-byte tensor")
	}
	if !s.PerTensor[1].Compressed() {
		t.Error("HiPress skipped a 256 MB tensor")
	}
	for _, o := range s.PerTensor {
		if o.Compressed() && !o.AllOn(cost.GPU) {
			t.Error("HiPress must use GPUs only")
		}
	}
}

func TestUnknownSystem(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	cm := cost.MustModels(c, dgc())
	if _, err := Strategy(System(99), model.LSTM(), c, cm); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestSystemNames(t *testing.T) {
	names := map[System]string{
		FP32: "FP32", HiPress: "HiPress", HiTopKComm: "HiTopKComm", BytePSCompress: "BytePS-Compress",
	}
	for sys, want := range names {
		if sys.String() != want {
			t.Errorf("%d: %q != %q", int(sys), sys.String(), want)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]System{
		"fp32": FP32, "hipress": HiPress, "hitopkcomm": HiTopKComm, "bytepscompress": BytePSCompress,
	} {
		if got, err := ByName(name); err != nil || got != want {
			t.Errorf("ByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "espresso", "FP32", "nccl"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}
