package main

import (
	"bytes"
	"fmt"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// The Table-5 configuration, as experiments.Table5 runs it.
var (
	specDGC        = compress.Spec{ID: compress.DGC, Ratio: 0.01}
	table5Machines = 8
)

// steadyBudget is how long a small model's selections repeat, so its
// median is steady; maxReps caps the repeats.
const (
	steadyBudget = time.Second
	maxReps      = 31
)

var selectPhases = []string{"seed", "sweep", "offload", "alt", "finalize"}

// zooCase is one Table-5 column: the model on NVLink x8 with DGC, and the
// baselines' predicted iteration times, none of which the selection may
// exceed.
type zooCase struct {
	m        *model.Model
	c        *cluster.Cluster
	cm       *cost.Models
	baseline map[string]time.Duration
}

type table5 struct {
	cases []zooCase
	layer map[string]float64
}

// setupTable5 builds the six zoo cases in an order drawn from the seed,
// with the baselines' predicted iteration times.
func setupTable5(seed uint64) (state, error) {
	zoo := model.All()
	r := gen.New(seed)
	for i := len(zoo) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		zoo[i], zoo[j] = zoo[j], zoo[i]
	}
	t := &table5{}
	for _, m := range zoo {
		c := cluster.NVLinkTestbed(table5Machines)
		cm, err := cost.NewModels(c, specDGC)
		if err != nil {
			return nil, err
		}
		zc := zooCase{m: m, c: c, cm: cm, baseline: map[string]time.Duration{}}
		for _, sys := range baselines.All {
			s, err := baselines.Strategy(sys, m, c, cm)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", m.Name, sys, err)
			}
			if zc.baseline[sys.String()], err = timeline.New(m, c, cm).IterTime(s); err != nil {
				return nil, fmt.Errorf("%s %v: %w", m.Name, sys, err)
			}
		}
		t.cases = append(t.cases, zc)
	}
	return t, nil
}

func (t *table5) close() error { return nil }

func newTable5Selector(zc zooCase) *core.Selector {
	sel := core.NewSelector(zc.m, zc.c, zc.cm)
	sel.Parallelism = 1
	return sel
}

// selector builds a fresh selector for zc. Traced, it rebuilds the cost
// models too, timing both calls, and hands the selector the request.
func (t *table5) selector(zc zooCase, q *req) (*core.Selector, error) {
	if q == nil {
		return newTable5Selector(zc), nil
	}
	sp := q.begin(wtrace.NoParent, "cost.NewModels")
	cm, err := cost.NewModels(zc.c, specDGC)
	q.end(sp)
	if err != nil {
		return nil, err
	}
	zc.cm = cm
	sp = q.begin(wtrace.NoParent, "core.NewSelector")
	sel := newTable5Selector(zc)
	q.end(sp)
	sel.Trace = q.wreq()
	return sel, nil
}

// measure selects for every model once, one after another, on a fresh
// selector each time as Table 5 does. Untraced, models whose first
// selection takes under steadyBudget repeat and report their median.
func (t *table5) measure(_ float64, tr *tracer) (*pass, error) {
	p := &pass{named: map[string]namedValue{}}
	if tr != nil {
		t.layer = map[string]float64{}
	}
	var evals int
	var selectTime, predIter time.Duration
	phases := map[string]time.Duration{}
	for _, zc := range t.cases {
		name := zc.m.Name
		q := tr.start("table5."+name, 0)
		var times, cpus []float64
		reps := 1
		for rep := 0; rep < reps; rep++ {
			sel, err := t.selector(zc, q)
			if err != nil {
				return nil, err
			}
			sp := q.begin(wtrace.NoParent, "core.Select")
			c0, t0 := cpuTime(), time.Now()
			s, rep1, err := sel.Select()
			dt, dcpu := time.Since(t0), cpuTime()-c0
			q.endAdopting(sp)
			p.attempted++
			if err != nil {
				p.fail("%s: select: %v", name, err)
				continue
			}
			times = append(times, ms(dt))
			cpus = append(cpus, ms(dcpu))
			if rep > 0 {
				continue
			}
			t.check(p, zc, s, rep1, q)
			predIter += rep1.Iter
			p.vsFP32 = append(p.vsFP32, float64(rep1.Iter)/float64(zc.baseline[baselines.FP32.String()]))
			if q != nil {
				evals += rep1.Evals
				selectTime += dt
				t.layer["core.evals."+name] = float64(rep1.Evals)
				for ph, d := range wtrace.PhaseDurations(q.wreq().Spans()) {
					phases[ph] += d
				}
				if err := t.altUseful(zc, s); err != nil {
					return nil, err
				}
			} else if dt < steadyBudget {
				reps = min(maxReps, int(steadyBudget/max(dt, time.Millisecond))+1) | 1
			}
		}
		q.finish()
		if len(times) == 0 {
			continue
		}
		med := median(times)
		p.lat = append(p.lat, med)
		p.busy += med / 1000
		p.cpu += time.Duration(mean(cpus) * float64(time.Millisecond))
		p.ops++
		p.named["table5.select_ms."+name] = namedValue{Value: med, Unit: "ms", N: len(times)}
	}
	p.named["table5.select_s"] = namedValue{Value: p.busy, Unit: "s", N: p.ops}
	p.named["table5.pred_iter_ms"] = namedValue{Value: ms(predIter), Unit: "sim_ms", N: p.ops}
	if tr != nil {
		n := float64(len(t.cases))
		for _, ph := range selectPhases {
			t.layer["core.phase_ms."+ph] = ms(phases[ph]) / n
		}
		t.layer["core.ns_per_eval"] = float64(selectTime) / float64(max(evals, 1))
		t.layer["core.evals_per_select"] = float64(evals) / n
		t.layer["core.alt_useful_ratio"] /= n
	}
	return p, nil
}

// check verifies one selection: every option is structurally valid, a
// fresh engine predicts the reported iteration time, and the result is
// no worse than FP32 or any baseline policy. In the traced pass the
// fresh-engine evaluation is also the timeline layer's measurement.
func (t *table5) check(p *pass, zc zooCase, s *strategy.Strategy, rep *core.Report, q *req) {
	name := zc.m.Name
	for i, o := range s.PerTensor {
		if err := strategy.Check(o, zc.c); err != nil {
			p.fail("%s: tensor %d: %v", name, i, err)
			return
		}
	}
	eng := timeline.New(zc.m, zc.c, zc.cm)
	var evals []float64
	for k := 0; k < 5; k++ {
		sp := q.begin(wtrace.NoParent, "timeline.IterTime")
		t0 := time.Now()
		iter, err := eng.IterTime(s)
		evals = append(evals, us(time.Since(t0)))
		q.end(sp)
		if err != nil {
			p.fail("%s: IterTime: %v", name, err)
			return
		}
		if iter != rep.Iter {
			p.fail("%s: fresh engine predicts %v, report says %v", name, iter, rep.Iter)
			return
		}
		if q == nil {
			break
		}
	}
	if q != nil {
		t.layer["timeline.eval_us."+name] = median(evals)
	}
	for sys, iter := range zc.baseline {
		if rep.Iter > iter {
			p.fail("%s: selection %v is worse than %s %v", name, rep.Iter, sys, iter)
		}
	}
}

// altUseful counts a selection whose result equals the all-compressed
// trajectory's, the share of selections where that trajectory's work
// could have decided the result.
func (t *table5) altUseful(zc zooCase, s *strategy.Strategy) error {
	sac, _, err := newTable5Selector(zc).SelectAllCompressed()
	if err != nil {
		return fmt.Errorf("%s: SelectAllCompressed: %w", zc.m.Name, err)
	}
	if sameStrategy(s, sac) {
		t.layer["core.alt_useful_ratio"]++
	}
	return nil
}

func sameStrategy(a, b *strategy.Strategy) bool {
	if a == nil || b == nil {
		return a == b
	}
	ja, errA := strategy.Marshal(a)
	jb, errB := strategy.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// layers returns what the traced pass recorded, plus the case-build
// costs measured from its spans.
func (t *table5) layers(tr *tracer, _ *pass) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range t.layer {
		out[k] = v
	}
	out["cost.new_models_us"] = spanMedianUs(tr, "cost.NewModels")
	out["core.new_selector_us"] = spanMedianUs(tr, "core.NewSelector")
	return out, nil
}

// spanMedianUs is the median duration of the traced spans named name.
func spanMedianUs(tr *tracer, name string) float64 {
	var xs []float64
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, rq := range tr.reqs {
		for _, sp := range rq.Spans {
			if sp.Name == name {
				xs = append(xs, us(sp.Dur()))
			}
		}
	}
	return median(xs)
}
