package timeline

import (
	"slices"
	"testing"
	"time"

	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/strategy"
)

// prefixConfigs are the engine configurations the prefix property runs
// under: the plain engine, a slow device (scaled compute), and the §5.1
// Upper Bound's free compression.
var prefixConfigs = []struct {
	name  string
	scale float64
	zc    bool
}{
	{"plain", 1, false},
	{"scaled", 1.7, false},
	{"zero-compression", 1, true},
}

// probeCandidates returns the options the selector probes for tensor
// i — the GPU candidate set plus the CPU variant of every compressed
// option — with duplicate chains removed (first occurrence wins).
func probeCandidates(t *testing.T, e *Engine, i int) []strategy.Option {
	t.Helper()
	var out []strategy.Option
	var seen [][]jobSpec
	for _, gpu := range strategy.EnumerateGPU(e.C) {
		variants := []strategy.Option{gpu}
		if gpu.Compressed() {
			variants = append(variants, gpu.WithDevice(cost.CPU))
		}
		for _, o := range variants {
			ch, err := e.memoChain(i, o)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(seen, func(s []jobSpec) bool { return slices.Equal(s, ch) }) {
				seen = append(seen, ch)
				out = append(out, o)
			}
		}
	}
	return out
}

// TestRunFromMatchesRun is the exactness property behind incremental
// F(S) probes. For generated cases (seeds 1–200) under every engine
// configuration, every tensor i and every distinct candidate for it
// (in the plain configuration; the others reuse that set):
// resuming from i's gradient-ready snapshot reproduces a full Run's Iter,
// Makespan and ResBusy, and a bounded resume reports the exact time when
// it is below the bound and otherwise a value at or above the bound but
// never above the exact time — so the remaining-work bound is sound.
func TestRunFromMatchesRun(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		cm, err := cost.NewModels(cs.Cluster, cs.Spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := strategy.Enumerate(cs.Cluster)
		n := len(cs.Model.Tensors)
		r := gen.New(seed)
		s := strategy.Uniform(n, opts[0])
		for i := range s.PerTensor {
			s.PerTensor[i] = opts[r.Intn(len(opts))]
		}
		cands := make([][]strategy.Option, n)
		plain := New(cs.Model, cs.Cluster, cm)
		for i := range cands {
			cands[i] = probeCandidates(t, plain, i)
		}
		for _, cfg := range prefixConfigs {
			capt := New(cs.Model, cs.Cluster, cm)
			capt.RecordOps = false
			capt.ComputeScale, capt.ZeroCompression = cfg.scale, cfg.zc
			if err := capt.Prepare(s); err != nil {
				t.Fatal(err)
			}
			ref, worker := capt.Clone(), capt.Clone()
			var p Prefix
			for i := 0; i < n; i++ {
				if err := capt.CapturePrefix(i, &p); err != nil {
					t.Fatalf("seed %d %s tensor %d: %v", seed, cfg.name, i, err)
				}
				for _, cand := range cands[i] {
					checkRunFrom(t, ref, worker, &p, i, cand, seed, cfg.name)
				}
				// Keep the clones in lockstep with the capturing engine.
				for _, e := range []*Engine{ref, worker} {
					if err := e.SetOption(i, s.PerTensor[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func checkRunFrom(t *testing.T, ref, worker *Engine, p *Prefix, i int, cand strategy.Option, seed uint64, cfg string) {
	t.Helper()
	for _, e := range []*Engine{ref, worker} {
		if err := e.SetOption(i, cand); err != nil {
			t.Fatal(err)
		}
	}
	full, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := *full
	got, err := worker.RunFrom(p, NoBound)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != want.Iter || got.Makespan != want.Makespan || got.ResBusy != want.ResBusy {
		t.Fatalf("seed %d %s tensor %d %v: RunFrom iter=%v makespan=%v busy=%v, Run iter=%v makespan=%v busy=%v",
			seed, cfg, i, cand, got.Iter, got.Makespan, got.ResBusy, want.Iter, want.Makespan, want.ResBusy)
	}
	for _, bound := range []time.Duration{want.Iter + 1, want.Iter, want.Iter - 1, want.Iter / 2} {
		got, err := worker.RunFrom(p, bound)
		if err != nil {
			t.Fatal(err)
		}
		// A cut-short run reports a lower bound: never more than exact.
		if got.Iter > want.Iter {
			t.Fatalf("seed %d %s tensor %d %v: bound %v: got %v above the exact %v",
				seed, cfg, i, cand, bound, got.Iter, want.Iter)
		}
		if want.Iter < bound && got.Iter != want.Iter {
			t.Fatalf("seed %d %s tensor %d %v: bound %v: got %v, want exact %v",
				seed, cfg, i, cand, bound, got.Iter, want.Iter)
		}
		if want.Iter >= bound && got.Iter < bound {
			t.Fatalf("seed %d %s tensor %d %v: bound %v: got %v below the bound (exact %v)",
				seed, cfg, i, cand, bound, got.Iter, want.Iter)
		}
	}
}

// The snapshot edges: tensor 0's gradient is ready after the first
// kernel only, the last tensor's after the whole backward pass; both
// resume exactly, and out-of-range tensors or an unprepared engine are
// rejected.
func TestCapturePrefixEdges(t *testing.T) {
	e, s, plain, compressed := hotLoopEngine(t)
	last := len(s.PerTensor) - 1
	full := e.Clone()
	var p Prefix
	for _, i := range []int{0, last} {
		if err := e.CapturePrefix(i, &p); err != nil {
			t.Fatal(err)
		}
		for _, opt := range []strategy.Option{compressed, plain} {
			if err := e.SetOption(i, opt); err != nil {
				t.Fatal(err)
			}
			if err := full.SetOption(i, opt); err != nil {
				t.Fatal(err)
			}
			want, err := full.Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.RunFrom(&p, NoBound)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iter != want.Iter {
				t.Errorf("tensor %d %v: RunFrom %v, Run %v", i, opt, got.Iter, want.Iter)
			}
		}
	}
	for _, i := range []int{-1, last + 1} {
		if err := e.CapturePrefix(i, &p); err == nil {
			t.Errorf("CapturePrefix(%d) on %d tensors succeeded", i, last+1)
		}
	}
	fresh := New(e.M, e.C, e.Cost)
	if err := fresh.CapturePrefix(0, &p); err == nil {
		t.Error("CapturePrefix before Prepare succeeded")
	}
}
