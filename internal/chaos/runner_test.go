package chaos

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/ddl"
	"espresso/internal/model"
	"espresso/internal/netsim"
	"espresso/internal/obs"
	"espresso/internal/strategy"
)

func spanEnding(end time.Duration) obs.Span {
	return obs.Span{Device: "iter", Phase: obs.PhaseFault, End: end}
}

func dgc() compress.Spec { return compress.Spec{ID: compress.DGC, Ratio: 0.01} }

// commBound is a gradient-heavy synthetic model whose iteration time is
// dominated by inter-machine communication — the regime where a slow
// link moves the strategy optimum.
func commBound() *model.Model {
	ms := time.Millisecond
	return model.Synthetic("commbound",
		[]int{8 << 20, 16 << 20, 16 << 20, 1 << 12, 24 << 20},
		[]time.Duration{ms, ms, 2 * ms, ms, 2 * ms}, 3*ms)
}

// healthySelect picks the Espresso strategy for the healthy topology.
func healthySelect(t *testing.T, m *model.Model, c *cluster.Cluster) *strategy.Strategy {
	t.Helper()
	cm := cost.MustModels(c, dgc())
	sel := core.NewSelector(m, c, cm)
	s, _, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newRunner(t *testing.T, plan *Plan) *Runner {
	t.Helper()
	m := commBound()
	c := cluster.NVLinkTestbed(4)
	r, err := NewRunner(m, c, dgc(), healthySelect(t, m, c), plan)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A fault-free plan: observed replay should track the analytic
// prediction closely enough that the monitor never breaches.
func TestHealthyRunNeverBreaches(t *testing.T) {
	r := newRunner(t, &Plan{Seed: 1})
	rep, err := r.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != 5 {
		t.Fatalf("got %d samples", len(rep.Samples))
	}
	for _, s := range rep.Samples {
		if s.Breach {
			t.Fatalf("healthy iteration %d breached: observed %v predicted %v",
				s.Iteration, s.Observed, s.Predicted)
		}
		if s.Drops != 0 || s.Retransmits != 0 {
			t.Fatalf("healthy iteration %d saw loss: %+v", s.Iteration, s)
		}
	}
	if rep.Reselected != nil {
		t.Fatal("healthy run re-selected")
	}
}

// A sustained straggler on every inter-machine link trips the monitor,
// and re-selection on the degraded topology strictly improves the
// predicted iteration time — the headline acceptance criterion.
func TestStragglerTripsReselectionAndImproves(t *testing.T) {
	plan := &Plan{
		Seed:    7,
		Monitor: MonitorConfig{Factor: 1.5, Consecutive: 3},
		Faults:  []Fault{{Kind: Straggler, Src: -1, Scale: 0.05}},
	}
	r := newRunner(t, plan)
	before := r.Strategy
	rep, err := r.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	rs := rep.Reselected
	if rs == nil {
		t.Fatal("sustained straggler did not trigger re-selection")
	}
	if rs.Iteration < 2 {
		t.Fatalf("tripped too early: iteration %d", rs.Iteration)
	}
	if rs.InterScale > 0.06 || rs.InterScale < 0.04 {
		t.Fatalf("snapshot missed the degraded bandwidth: scale %g", rs.InterScale)
	}
	if rs.After > rs.Before {
		t.Fatalf("re-selection regressed: before %v after %v", rs.Before, rs.After)
	}
	if !rs.Adopted || rs.Improvement <= 0 {
		t.Fatalf("re-selection did not strictly improve: %+v", rs)
	}
	if reflect.DeepEqual(before, r.Strategy) {
		t.Fatal("adopted strategy is unchanged")
	}
	// Early samples breach, and the count matches the trip threshold.
	breaches := 0
	for _, s := range rep.Samples[:rs.Iteration+1] {
		if s.Breach {
			breaches++
		}
	}
	if breaches < 3 {
		t.Fatalf("only %d breaches before trip", breaches)
	}
}

// The same plan and seed produce byte-identical reports; a different
// seed changes the loss realization.
func TestRunDeterministicUnderLossAndFlap(t *testing.T) {
	plan := func(seed uint64) *Plan {
		return &Plan{
			Seed: seed,
			Faults: []Fault{
				{Kind: Loss, Rate: 0.2},
				{Kind: Flap, Src: -1, Scale: 0.3, Start: 0,
					Duration: Duration(200 * time.Millisecond), Period: Duration(5 * time.Millisecond)},
			},
		}
	}
	run := func(seed uint64) []byte {
		rep, err := newRunner(t, plan(seed)).Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Reselected != nil {
			rep.Reselected.SelectionTime = 0 // wall clock, not virtual time
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(3), run(3)
	if string(a) != string(b) {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	drops := int64(0)
	for _, s := range rep.Samples {
		drops += s.Drops
		if s.Drops != s.Retransmits {
			t.Fatalf("drops %d != retransmits %d (all drops must be retried)", s.Drops, s.Retransmits)
		}
	}
	if drops == 0 {
		t.Fatal("20% loss produced no drops")
	}
	if c := run(4); string(a) == string(c) {
		t.Fatal("different seeds produced identical reports")
	}
}

// A deadline far below the comm time aborts the iteration with the
// typed error chain IterationError -> netsim.DeadlineError.
func TestDeadlineAbortsIterationTyped(t *testing.T) {
	plan := &Plan{
		Seed:     1,
		Deadline: Duration(10 * time.Microsecond),
		Faults:   []Fault{{Kind: Straggler, Src: -1, Scale: 0.01}},
	}
	r := newRunner(t, plan)
	rep, err := r.Run(3)
	var ie *IterationError
	if !errors.As(err, &ie) || ie.Iteration != 0 {
		t.Fatalf("want IterationError at iteration 0, got %v", err)
	}
	var de *netsim.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want wrapped DeadlineError, got %v", err)
	}
	if len(rep.Samples) != 0 {
		t.Fatalf("aborted iteration recorded a sample: %+v", rep.Samples)
	}
}

// Re-selection is parallelism-invariant: the worker-pool search returns
// the identical strategy and predicted time at 1, 4, and 8 workers.
func TestReselectParallelismInvariant(t *testing.T) {
	m := commBound()
	c := cluster.NVLinkTestbed(4)
	prior := healthySelect(t, m, c)

	type out struct {
		s     *strategy.Strategy
		after Duration
	}
	var runs []out
	for _, par := range []int{1, 4, 8} {
		s, rs, err := Reselect(m, c, dgc(), prior, ReselectOptions{
			InterScale: 0.05, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, out{s, rs.After})
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(runs[0].s, runs[i].s) {
			t.Fatalf("parallelism changed the re-selected strategy:\n%v\nvs\n%v", runs[0].s, runs[i].s)
		}
		if runs[0].after != runs[i].after {
			t.Fatalf("parallelism changed the predicted time: %v vs %v", runs[0].after, runs[i].after)
		}
	}
}

// Reselect accepts only an inter-machine scale in (0, 1] and device
// scales of at least 1 (0 means unset); NaN is out of range everywhere.
func TestReselectRejectsBadScales(t *testing.T) {
	m := commBound()
	c := cluster.NVLinkTestbed(2)
	prior := healthySelect(t, m, c)
	nan := math.NaN()
	for _, opt := range []ReselectOptions{
		{InterScale: 0}, {InterScale: -0.5}, {InterScale: 1.5}, {InterScale: nan},
		{InterScale: 0.5, GPUScale: nan}, {InterScale: 0.5, CPUScale: nan},
	} {
		// The error must be the range check's, not a later failure of
		// the degraded pipeline.
		if _, _, err := Reselect(m, c, dgc(), prior, opt); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("Reselect(%+v): err = %v, want a scale range error", opt, err)
		}
	}
	if _, _, err := Reselect(m, c, dgc(), prior, ReselectOptions{InterScale: 1}); err != nil {
		t.Errorf("Reselect rejected an undegraded topology: %v", err)
	}
}

// The runner's data-plane corruption injector is healed by the wire
// checksum + retry: the synchronized gradient byte-matches a fault-free
// run even when every payload is corrupted on first transmission.
func TestWireCorruptionHealedEndToEnd(t *testing.T) {
	c := cluster.NVLinkTestbed(2)
	c.GPUsPerMachine = 2
	spec := compress.Spec{ID: compress.DGC, Ratio: 0.25}

	sync := func(wire *ddl.WireConfig) [][]float32 {
		x, err := ddl.NewExecutor(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		x.Wire = wire
		grads := make([][]float32, c.TotalGPUs())
		rng := rand.New(rand.NewSource(5))
		for g := range grads {
			grads[g] = make([]float32, 256)
			for j := range grads[g] {
				grads[g][j] = float32(rng.NormFloat64())
			}
		}
		opt := strategy.Option{Steps: []strategy.Step{
			{Act: strategy.Comp, Dev: cost.GPU},
			{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Flat, Compressed: true},
			{Act: strategy.Decomp, Dev: cost.GPU},
		}}
		out, err := x.SyncTensor("t", grads, opt, 13)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	clean := sync(nil)

	m := commBound()
	plan := &Plan{
		Seed:   21,
		Retry:  RetryConfig{MaxAttempts: 16},
		Faults: []Fault{{Kind: Corrupt, Rate: 0.75}},
	}
	r, err := NewRunner(m, c, spec, healthySelect(t, m, c), plan)
	if err != nil {
		t.Fatal(err)
	}
	wire := r.WireConfig()
	if wire == nil {
		t.Fatal("corrupt fault produced no wire config")
	}
	faulty := sync(wire)

	for g := range clean {
		for j := range clean[g] {
			if clean[g][j] != faulty[g][j] {
				t.Fatalf("corruption leaked into result: GPU %d elem %d: %v vs %v",
					g, j, clean[g][j], faulty[g][j])
			}
		}
	}
	if r.wireFaults == 0 {
		t.Fatal("corruption injector never fired")
	}

	// A plan without corrupt faults yields no injector.
	r2, err := NewRunner(m, c, spec, healthySelect(t, m, c), &Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.WireConfig() != nil {
		t.Fatal("plan without corrupt faults built a wire config")
	}
}

// A slow-GPU fault raises the prediction (scaled compute) and the
// observation together: no breach, no re-selection, but the predicted
// time visibly exceeds the healthy iterations'.
func TestSlowDeviceScalesPrediction(t *testing.T) {
	plan := &Plan{
		Seed: 2,
		Faults: []Fault{{Kind: SlowDevice, Scale: 3, Device: "gpu",
			Start: Duration(30 * time.Millisecond)}},
	}
	r := newRunner(t, plan)
	rep, err := r.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Samples[0].Predicted
	last := rep.Samples[len(rep.Samples)-1].Predicted
	if last <= first {
		t.Fatalf("slow-device fault did not raise the prediction: first %v last %v", first, last)
	}
	for _, s := range rep.Samples {
		if s.Breach {
			t.Fatalf("slow device misclassified as network degradation: %+v", s)
		}
	}
}
