package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/strategy"
)

// testWorkers forces real goroutine fan-out even on single-CPU hosts.
func testWorkers() int {
	if n := runtime.NumCPU(); n > 4 {
		return n
	}
	return 4
}

func selectWith(t *testing.T, m *model.Model, c *cluster.Cluster, cm *cost.Models, workers int) (*strategy.Strategy, *Report) {
	t.Helper()
	sel := NewSelector(m, c, cm)
	sel.Parallelism = workers
	s, rep, err := sel.Select()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return s, rep
}

func assertSameSelection(t *testing.T, name string, seqS, parS *strategy.Strategy, seqRep, parRep *Report) {
	t.Helper()
	if seqRep.Iter != parRep.Iter {
		t.Errorf("%s: parallel F(S) %v != sequential %v", name, parRep.Iter, seqRep.Iter)
	}
	if seqRep.Evals != parRep.Evals {
		t.Errorf("%s: parallel evals %d != sequential %d", name, parRep.Evals, seqRep.Evals)
	}
	if seqRep.Compressed != parRep.Compressed || seqRep.Offloaded != parRep.Offloaded {
		t.Errorf("%s: parallel compressed/offloaded %d/%d != sequential %d/%d",
			name, parRep.Compressed, parRep.Offloaded, seqRep.Compressed, seqRep.Offloaded)
	}
	for i := range seqS.PerTensor {
		if !seqS.PerTensor[i].Equal(parS.PerTensor[i]) {
			t.Errorf("%s: tensor %d: parallel picked %s, sequential %s",
				name, i, parS.PerTensor[i], seqS.PerTensor[i])
		}
	}
}

// The tentpole guarantee: parallel selection is bit-identical to
// sequential selection — same strategy, same F(S), same eval count —
// because ties are broken by candidate index either way.
func TestParallelSelectionMatchesSequential(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	seqS, seqRep := selectWith(t, m, c, cm, 1)
	parS, parRep := selectWith(t, m, c, cm, testWorkers())
	assertSameSelection(t, m.Name, seqS, parS, seqRep, parRep)
}

// zooGolden pins the Table-5 selections (NVLink x8, DGC 0.01): the
// SHA-256 of the strategy's JSON and the predicted F(S) in ns, as the
// full-run probe loop made them, and the evaluation count, which the
// sweep's skip of unchanged positions lowers. Parallel-vs-sequential
// equality cannot catch a change that moves both paths at once; this
// can, so any change to the probe path must keep these values.
var zooGolden = map[string]struct {
	sha   string
	iter  time.Duration
	evals int
}{
	"vgg16":     {"06a260bea23c142fc0985c17b36b34a52515b53eb498d0a278e0984307214508", 188319795, 13204},
	"resnet101": {"72accef73d3e619d64e711e6662dd576c548e5ab6bbffc90262724951ccc2016", 180124831, 84516},
	"ugatit":    {"53a3b916efc5173641b9f3843df2713994c242505c1a5166b83decc9150cc9b7", 454906882, 87322},
	"bert-base": {"123d206af2144534aa675a3cf68f923c2790734d5d8e57092c91ea18cef825ae", 84453428, 36807},
	"gpt2":      {"b2121c3ddc1c495fcd011b08c4804b0fa6aacfc0f9f90f9f6d2b18e241f2fd10", 102001233, 25733},
	"lstm":      {"439957ca18cb05f4ce16fd3a4d6e34af9e908b8c673a646fa23bd767f26e9205", 141858891, 3020},
}

func assertZooGolden(t *testing.T, name string, s *strategy.Strategy, rep *Report) {
	t.Helper()
	want, ok := zooGolden[name]
	if !ok {
		t.Errorf("%s: no zoo golden", name)
		return
	}
	buf, err := strategy.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if sha := fmt.Sprintf("%x", sha256.Sum256(buf)); sha != want.sha {
		t.Errorf("%s: strategy SHA-256 %s, golden %s", name, sha, want.sha)
	}
	if rep.Iter != want.iter || rep.Evals != want.evals {
		t.Errorf("%s: F(S)=%d evals=%d, golden F(S)=%d evals=%d",
			name, int64(rep.Iter), rep.Evals, int64(want.iter), want.evals)
	}
}

// The same guarantee across every paper model — the acceptance bar for
// the parallel search — plus the zoo golden above. Sequential-vs-parallel
// over six full selections is tens of seconds of work, so -short skips
// it.
func TestParallelSelectionMatchesSequentialAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full six-model parallel-vs-sequential sweep in -short mode")
	}
	for _, m := range model.All() {
		c := cluster.NVLinkTestbed(8)
		cm := cost.MustModels(c, dgc())
		seqS, seqRep := selectWith(t, m, c, cm, 1)
		parS, parRep := selectWith(t, m, c, cm, testWorkers())
		assertSameSelection(t, m.Name, seqS, parS, seqRep, parRep)
		assertZooGolden(t, m.Name, seqS, seqRep)
		t.Logf("%s: F(S)=%v evals=%d identical at parallelism %d", m.Name, parRep.Iter, parRep.Evals, testWorkers())
	}
}

// A parallel selection on a zoo model, kept in -short mode so the CI
// race pass runs it: every sweep position's workers restore the one
// gradient-ready prefix captured on the master engine concurrently, and
// the result must still be the golden sequential selection.
func TestParallelZooSelectionMatchesGolden(t *testing.T) {
	m := model.VGG16()
	c := cluster.NVLinkTestbed(8)
	cm := cost.MustModels(c, dgc())
	s, rep := selectWith(t, m, c, cm, testWorkers())
	assertZooGolden(t, m.Name, s, rep)
}

// Parallel selection with an attached metrics registry: the search.*
// counters must aggregate exactly as in a sequential run (the race
// detector also exercises this path via the CI -race pass).
func TestParallelSelectPublishesMetricsRaceFree(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	sel := NewSelector(m, c, cm)
	sel.Parallelism = testWorkers()
	sel.Obs = obs.NewMetrics()
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	snap := sel.Obs.Snapshot()
	if got := snap.Counters["search.evals"]; got != int64(rep.Evals) {
		t.Errorf("search.evals = %d, report says %d", got, rep.Evals)
	}
	if snap.Counters["search.selections"] != 1 {
		t.Errorf("search.selections = %d, want 1", snap.Counters["search.selections"])
	}
	if got := snap.Gauges["search.iter_us"]; got != float64(rep.Iter.Microseconds()) {
		t.Errorf("search.iter_us = %v, report says %v", got, rep.Iter)
	}
}

// SelectAllCompressed and UpperBound also ride the pool.
func TestParallelCripplesMatchSequential(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())

	seq := NewSelector(m, c, cm)
	seqS, seqRep, err := seq.SelectAllCompressed()
	if err != nil {
		t.Fatal(err)
	}
	par := NewSelector(m, c, cm)
	par.Parallelism = testWorkers()
	parS, parRep, err := par.SelectAllCompressed()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, "all-compressed", seqS, parS, seqRep, parRep)
}

// BruteForceParallel shards the odometer space; the winner must be the
// exact strategy the sequential scan returns, ties included.
func TestBruteForceParallelMatchesSequential(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	ms := time.Millisecond
	m := model.Synthetic("tiny",
		[]int{4 << 20, 8 << 20, 12 << 20},
		[]time.Duration{ms, ms, ms}, ms)
	cm := cost.MustModels(c, dgc())
	opts := []strategy.Option{
		strategy.NoCompression(c),
		baselines.InterCompressed(c, cost.GPU),
		baselines.InterCompressed(c, cost.CPU),
		baselines.InterAlltoall(c, cost.GPU),
		baselines.AlltoallAlltoall(c, cost.GPU),
	}
	seqS, seqIter, err := BruteForce(m, c, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Worker counts that divide the 125-point space unevenly, evenly,
	// and past its size.
	for _, w := range []int{2, 5, 7, 200} {
		parS, parIter, err := BruteForceParallel(m, c, cm, opts, w)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", w, err)
		}
		if parIter != seqIter {
			t.Errorf("parallelism=%d: iter %v != sequential %v", w, parIter, seqIter)
		}
		for i := range seqS.PerTensor {
			if !seqS.PerTensor[i].Equal(parS.PerTensor[i]) {
				t.Errorf("parallelism=%d: tensor %d: %s != %s", w, i, parS.PerTensor[i], seqS.PerTensor[i])
			}
		}
	}
}

// Two selectors over the same shared (model, cluster, cost) state may
// run concurrently — only the Selector itself is single-caller.
func TestConcurrentSelectorsShareReadOnlyState(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	iters := make([]time.Duration, 4)
	done := make(chan error, len(iters))
	for i := range iters {
		go func(i int) {
			sel := NewSelector(m, c, cm)
			sel.Parallelism = 2
			_, rep, err := sel.Select()
			if err == nil {
				iters[i] = rep.Iter
			}
			done <- err
		}(i)
	}
	for range iters {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[0] {
			t.Errorf("selector %d found F(S)=%v, selector 0 found %v", i, iters[i], iters[0])
		}
	}
}
