package timeline

import (
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/strategy"
)

// The decision algorithm's inner loop is SetOption + Run with RecordOps
// off, executed tens of thousands of times per strategy selection. These
// tests pin the loop at zero allocations per probe — the property the
// engine's scratch Result, copy-on-write chains, and fmt-free option
// validation exist to provide.

// hotLoopEngine returns an engine with the probe-loop configuration
// (RecordOps off) prepared with s, plus two candidate options to swap.
func hotLoopEngine(t testing.TB) (*Engine, *strategy.Strategy, strategy.Option, strategy.Option) {
	t.Helper()
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	e.RecordOps = false

	opts := strategy.EnumerateGPU(c)
	var compressed strategy.Option
	for _, o := range opts {
		if o.Compressed() {
			compressed = o
			break
		}
	}
	if len(compressed.Steps) == 0 {
		t.Fatal("no compressed option enumerated")
	}
	plain := strategy.NoCompression(c)
	s := strategy.Uniform(len(m.Tensors), plain)
	if err := e.Prepare(s); err != nil {
		t.Fatal(err)
	}
	return e, s, plain, compressed
}

func TestRunNoRecordDoesNotAllocate(t *testing.T) {
	e, _, _, _ := hotLoopEngine(t)
	// Warm the scratch state once.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Run with RecordOps off allocated %.1f/op, want 0", allocs)
	}
}

func TestProbeLoopDoesNotAllocate(t *testing.T) {
	e, _, plain, compressed := hotLoopEngine(t)
	// Warm: first SetOption per (tensor, option shape) may grow the
	// owned chain array to the larger option's length.
	for _, opt := range []strategy.Option{compressed, plain} {
		if err := e.SetOption(0, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	opts := [2]strategy.Option{compressed, plain}
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.SetOption(0, opts[round&1]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		round++
	})
	if allocs != 0 {
		t.Fatalf("SetOption+Run probe loop allocated %.1f/op, want 0", allocs)
	}
}

// The incremental probe — SetOption + RunFrom from a captured prefix,
// what the greedy sweep runs per candidate — is as allocation-free as
// the full-run probe it replaces, bounded or not.
func TestRunFromDoesNotAllocate(t *testing.T) {
	e, s, plain, compressed := hotLoopEngine(t)
	last := len(s.PerTensor) - 1
	var p Prefix
	if err := e.CapturePrefix(last, &p); err != nil {
		t.Fatal(err)
	}
	opts := [2]strategy.Option{compressed, plain}
	// Bound 0 is rejected up front by the remaining-work bound; the
	// better candidate's exact time is a sweep's bound for a probe that
	// cannot beat the incumbent.
	incumbent := NoBound
	for _, opt := range opts {
		if err := e.SetOption(last, opt); err != nil {
			t.Fatal(err)
		}
		r, err := e.RunFrom(&p, NoBound)
		if err != nil {
			t.Fatal(err)
		}
		incumbent = min(incumbent, r.Iter)
	}
	for _, bound := range []time.Duration{NoBound, 0, incumbent} {
		round := 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := e.SetOption(last, opts[round&1]); err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunFrom(&p, bound); err != nil {
				t.Fatal(err)
			}
			round++
		})
		if allocs != 0 {
			t.Fatalf("SetOption+RunFrom (bound %v) allocated %.1f/op, want 0", bound, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := e.CapturePrefix(last, &p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("CapturePrefix into a warm Prefix allocated %.1f/op, want 0", allocs)
	}
}

// TestScratchResultAliases documents the Run contract with RecordOps
// off: the returned Result is engine scratch, overwritten by the next
// evaluation.
func TestScratchResultAliases(t *testing.T) {
	e, _, _, compressed := hotLoopEngine(t)
	r1, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := r1.Iter
	if err := e.SetOption(0, compressed); err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("Run with RecordOps off should return the engine's scratch Result both times")
	}
	if first == r1.Iter {
		t.Skip("option swap did not change F(S); aliasing unobservable")
	}
}

// TestCloneCopyOnWrite pins the Clone contract: after a clone, writes on
// either engine must not be visible to the other, and both engines must
// keep producing correct evaluations. Run under -race this also guards
// the concurrent-evaluation pattern of the selector's engine pool.
func TestCloneCopyOnWrite(t *testing.T) {
	e, s, plain, compressed := hotLoopEngine(t)

	base, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseIter := base.Iter

	clone := e.Clone()

	// Writes on the clone: compress every tensor there.
	for i := range s.PerTensor {
		if err := clone.SetOption(i, compressed); err != nil {
			t.Fatal(err)
		}
	}
	// The original still evaluates the uncompressed strategy.
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Iter != baseIter {
		t.Fatalf("clone's writes leaked into the original: iter %v, want %v", r.Iter, baseIter)
	}

	// Writes on the original must not leak into the clone either: the
	// clone's compressed evaluation must match a fresh engine prepared
	// with the same compressed strategy.
	if err := e.SetOption(0, compressed); err != nil {
		t.Fatal(err)
	}
	if err := e.SetOption(0, plain); err != nil {
		t.Fatal(err)
	}
	cr, err := clone.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(e.M, e.C, e.Cost)
	fresh.RecordOps = false
	all := strategy.Uniform(len(s.PerTensor), compressed)
	fr, err := fresh.Evaluate(all)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Iter != fr.Iter {
		t.Fatalf("clone evaluation diverged from fresh engine: %v vs %v", cr.Iter, fr.Iter)
	}

	// Concurrent evaluation after cloning (the pool pattern): -race
	// verifies the chains are never written while shared.
	done := make(chan error, 2)
	go func() { _, err := e.Run(); done <- err }()
	go func() { _, err := clone.Run(); done <- err }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClonePrepareDoesNotAliasOriginal covers the clone-then-Prepare
// path: Prepare rebuilds every chain via SetOption, each of which must
// un-share before writing.
func TestClonePrepareDoesNotAliasOriginal(t *testing.T) {
	e, s, _, compressed := hotLoopEngine(t)
	base, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	baseIter := base.Iter

	clone := e.Clone()
	all := strategy.Uniform(len(s.PerTensor), compressed)
	if err := clone.Prepare(all); err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Iter != baseIter {
		t.Fatalf("clone.Prepare mutated the original's chains: iter %v, want %v", r.Iter, baseIter)
	}
}

// BenchmarkProbeLoop measures the selection hot path — SetOption + Run
// with RecordOps off — and is gated by espresso benchgate: its baseline
// records 0 allocs/op, so any allocation on this path fails CI.
func BenchmarkProbeLoop(b *testing.B) {
	e, _, plain, compressed := hotLoopEngine(b)
	for _, opt := range []strategy.Option{compressed, plain} {
		if err := e.SetOption(0, opt); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	opts := [2]strategy.Option{compressed, plain}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SetOption(0, opts[i&1]); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeFromPrefix is BenchmarkProbeLoop on the incremental
// path: the last tensor's candidates swap in and resume from its
// gradient-ready snapshot, simulating only the events after it.
func BenchmarkProbeFromPrefix(b *testing.B) { benchProbeFromPrefix(b, false) }

// BenchmarkProbeFromPrefixBounded is the same probe bounded by the
// better candidate's exact time — a bound neither probe can strictly
// beat, as for every losing probe of the greedy sweep.
func BenchmarkProbeFromPrefixBounded(b *testing.B) { benchProbeFromPrefix(b, true) }

func benchProbeFromPrefix(b *testing.B, bounded bool) {
	e, s, plain, compressed := hotLoopEngine(b)
	last := len(s.PerTensor) - 1
	var p Prefix
	if err := e.CapturePrefix(last, &p); err != nil {
		b.Fatal(err)
	}
	opts := [2]strategy.Option{compressed, plain}
	bound := NoBound
	for _, opt := range opts {
		if err := e.SetOption(last, opt); err != nil {
			b.Fatal(err)
		}
		r, err := e.RunFrom(&p, NoBound)
		if err != nil {
			b.Fatal(err)
		}
		if bounded {
			bound = min(bound, r.Iter)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SetOption(last, opts[i&1]); err != nil {
			b.Fatal(err)
		}
		if _, err := e.RunFrom(&p, bound); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNoRecord measures a bare evaluation on a prepared engine.
func BenchmarkRunNoRecord(b *testing.B) {
	e, _, _, _ := hotLoopEngine(b)
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
