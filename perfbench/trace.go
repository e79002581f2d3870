package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"espresso/internal/obs/wtrace"
)

// tracer records the traced pass: one wtrace request per benchmark
// operation, with a span around every call into a layer. Spans stay in
// memory until the run ends. A nil *tracer records nothing.
type tracer struct {
	wt    *wtrace.Tracer
	epoch time.Time

	mu   sync.Mutex
	reqs []reqSpans
}

// reqSpans is one finished request: its trace ID, its offset from the
// tracer's epoch, the caller that issued it, and its span tree.
type reqSpans struct {
	ID     string        `json:"id"`
	Name   string        `json:"name"`
	Offset time.Duration `json:"offset_ns"`
	Caller int           `json:"caller"`
	Spans  []wtrace.Span `json:"spans"`
}

func newTracer() *tracer { return &tracer{wt: wtrace.New(), epoch: time.Now()} }

// req is one in-flight traced request. A nil *req is the untraced path.
type req struct {
	tr     *tracer
	r      *wtrace.Req
	wall   time.Time
	caller int
	adopt  [][3]int // {parent, first, end}: top-level spans with IDs in [first, end) belong under parent
}

// start opens a request for caller (0-based).
func (t *tracer) start(name string, caller int) *req {
	if t == nil {
		return nil
	}
	return &req{tr: t, r: t.wt.Start(name), wall: time.Now(), caller: caller}
}

// wreq is the underlying wtrace request, for the program's own Trace
// hooks; nil when untraced.
func (q *req) wreq() *wtrace.Req {
	if q == nil {
		return nil
	}
	return q.r
}

func (q *req) begin(parent int, name string) int {
	if q == nil {
		return wtrace.NoParent
	}
	return q.r.Begin(parent, name)
}

func (q *req) end(id int) {
	if q != nil {
		q.r.End(id)
	}
}

// endAdopting closes span id and makes every top-level span the program
// recorded on the request since id opened a child of id, so selector
// phases hang under the benchmark's call span.
func (q *req) endAdopting(id int) {
	if q == nil || id < 0 {
		return
	}
	q.r.End(id)
	q.adopt = append(q.adopt, [3]int{id, id + 1, q.r.SpanCount()})
}

// graft copies spans recorded elsewhere (the server's flight record)
// under parent, shifting them by the wall-clock gap between that
// recording's start and this request's start.
func (q *req) graft(parent int, started time.Time, spans []wtrace.Span) {
	if q == nil {
		return
	}
	shift := started.Sub(q.wall)
	// Add appends in order, so span k of the copy gets ID first+k.
	first := q.r.SpanCount()
	for _, sp := range spans {
		p := parent
		if sp.Parent != wtrace.NoParent {
			p = first + sp.Parent
		}
		q.r.Add(p, sp.Name, -1, sp.Start+shift, sp.End+shift, sp.Evals)
	}
}

// finish ends the request and hands its spans to the tracer.
func (q *req) finish() {
	if q == nil {
		return
	}
	spans := q.r.Spans()
	for _, a := range q.adopt {
		for i := a[1]; i < a[2] && i < len(spans); i++ {
			if spans[i].Parent == wtrace.NoParent {
				spans[i].Parent = a[0]
			}
		}
	}
	rs := reqSpans{ID: q.r.ID(), Name: q.r.Name(), Offset: q.wall.Sub(q.tr.epoch), Caller: q.caller, Spans: spans}
	q.r.Release()
	q.tr.mu.Lock()
	q.tr.reqs = append(q.tr.reqs, rs)
	q.tr.mu.Unlock()
}

// layerOf maps a span name to its layer: the prefix before the first dot
// for the benchmark's own call spans ("store.PutReportWithID"), and core
// for the selector's internal phase spans ("sweep", "probe").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "core"
}

// layerTime is one layer's share of the traced pass.
type layerTime struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes sums, per layer, span durations and self time: a span's
// duration minus the part of it its children cover. Spans of one layer
// nested in another of the same layer count once in Total.
func (t *tracer) selfTimes() []layerTime {
	acc := map[string]*layerTime{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rq := range t.reqs {
		children := make(map[int][]wtrace.Span)
		for _, sp := range rq.Spans {
			if sp.Parent != wtrace.NoParent {
				children[sp.Parent] = append(children[sp.Parent], sp)
			}
		}
		for _, sp := range rq.Spans {
			l := layerOf(sp.Name)
			lt := acc[l]
			if lt == nil {
				lt = &layerTime{Layer: l}
				acc[l] = lt
			}
			lt.Spans++
			if sp.Parent == wtrace.NoParent || layerOf(rq.Spans[sp.Parent].Name) != l {
				lt.Total += ms(sp.Dur())
			}
			lt.Self += ms(sp.Dur() - covered(sp, children[sp.ID]))
		}
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent wtrace.Span, kids []wtrace.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return sum
}

// write saves the spans twice: as a Chrome trace (one track per caller)
// and as JSON keeping each request's ID and the spans' parent links.
func (t *tracer) write(chromePath, spansPath string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var flat []wtrace.Span
	for _, rq := range t.reqs {
		for _, sp := range rq.Spans {
			sp.Start += rq.Offset
			sp.End += rq.Offset
			sp.Worker = rq.Caller + 1
			flat = append(flat, sp)
		}
	}
	if err := writeFile(chromePath, func(w io.Writer) error { return wtrace.WriteChrome(w, flat) }); err != nil {
		return 0, err
	}
	err := writeFile(spansPath, func(w io.Writer) error { return json.NewEncoder(w).Encode(t.reqs) })
	return len(flat), err
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
