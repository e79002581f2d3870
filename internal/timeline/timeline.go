// Package timeline derives the training timeline of a DDL iteration under
// a compression strategy: the per-tensor backward computation,
// compression, staging, and communication operations, their placement on
// shared resources, and the resulting iteration time F(S) (§4.3–4.4).
//
// The engine simulates one representative GPU lane plus the shared
// per-machine resources: the GPU compute stream (backward kernels and GPU
// compression contend there), the host compression pool, the PCIe staging
// link, the intra-machine interconnect, and the machine NIC. Resources
// serve ready work in tensor-priority order without idling, the way
// WFBP frameworks with priority scheduling behave.
package timeline

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/sim"
	"espresso/internal/strategy"
)

// Resource identifies a shared resource lane in the timeline.
type Resource uint8

const (
	// ResGPU is the representative GPU's compute stream.
	ResGPU Resource = iota
	// ResCPU is the machine's host compression pool.
	ResCPU
	// ResStaging is the GPU<->host PCIe staging link.
	ResStaging
	// ResIntra is the intra-machine interconnect.
	ResIntra
	// ResInter is the machine's NIC.
	ResInter
	numResources
)

func (r Resource) String() string {
	switch r {
	case ResGPU:
		return "gpu"
	case ResCPU:
		return "cpu"
	case ResStaging:
		return "pcie"
	case ResIntra:
		return "intra"
	case ResInter:
		return "inter"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

// Op is one executed operation in a derived timeline.
type Op struct {
	// Tensor is the tensor index in backward order; Step is the option
	// step index, or -1 for the backward computation itself.
	Tensor int
	Step   int
	Res    Resource
	Span   sim.Span
}

// Result is a derived timeline.
type Result struct {
	// Makespan is the time from the start of backward propagation until
	// the last tensor finishes synchronization.
	Makespan time.Duration
	// Iter is the iteration time: forward pass plus Makespan.
	Iter time.Duration
	// Ops lists every operation, ordered by completion.
	Ops []Op
	// ResBusy is the total service time per resource.
	ResBusy [numResources]time.Duration
}

// CommOps returns the communication operations on res in start order
// (single-server resources complete in start order).
func (r *Result) CommOps(res Resource) []Op {
	var ops []Op
	for _, op := range r.Ops {
		if op.Res == res && op.Step >= 0 {
			ops = append(ops, op)
		}
	}
	return ops
}

// BottleneckComm returns the network resource with the most service time
// — the "communication timeline" of the paper's figures. Hierarchical
// jobs are usually NIC-bound; single-machine jobs are interconnect-bound.
func (r *Result) BottleneckComm() Resource {
	if r.ResBusy[ResInter] >= r.ResBusy[ResIntra] {
		return ResInter
	}
	return ResIntra
}

// TensorsBeforeBubbles implements the detection step of Property #1: a
// tensor is "communicated before a bubble" when its communication on the
// bottleneck network resource is followed by an idle gap because the next
// tensor was not ready — shrinking this tensor's communication would only
// widen the gap, never shift later communications earlier.
func (r *Result) TensorsBeforeBubbles() map[int]bool {
	out := make(map[int]bool)
	for _, t := range r.AppendBubbleTensors(r.BottleneckComm(), nil) {
		out[t] = true
	}
	return out
}

// AppendBubbleTensors appends to dst the tensors communicated before a
// bubble on res and returns the extended slice — TensorsBeforeBubbles
// without the map and intermediate op-slice allocations, for the greedy
// sweep's per-improvement bubble analysis. A tensor with several bubble-
// preceding communications appears once per bubble; callers dedupe.
func (r *Result) AppendBubbleTensors(res Resource, dst []int) []int {
	// Ops are ordered by completion, and a single-server resource
	// completes in start order, so streaming the resource's comm ops
	// pairs each one with its successor exactly as CommOps would.
	have := false
	var prev Op
	for _, op := range r.Ops {
		if op.Res != res || op.Step < 0 {
			continue
		}
		// The gap is a bubble only if the successor was genuinely not
		// ready (rather than scheduled late).
		if have && op.Span.Start > prev.Span.End && op.Span.Ready > prev.Span.End {
			dst = append(dst, prev.Tensor)
		}
		prev, have = op, true
	}
	return dst
}

// Gantt renders a human-readable timeline (for espresso sim and the
// didactic examples).
func (r *Result) Gantt() string {
	out := ""
	for _, op := range r.Ops {
		kind := "backward"
		if op.Step >= 0 {
			kind = fmt.Sprintf("step%-2d", op.Step)
		}
		out += fmt.Sprintf("%-6s T%-3d %s  [%8.3fms — %8.3fms]\n",
			op.Res, op.Tensor, kind,
			float64(op.Span.Start)/1e6, float64(op.Span.End)/1e6)
	}
	return out
}

// Engine evaluates strategies for one (model, cluster, GC) configuration.
// It is not safe for concurrent use; create one engine per goroutine.
type Engine struct {
	M    *model.Model
	C    *cluster.Cluster
	Cost *cost.Models

	// ZeroCompression makes every compression, decompression, and
	// staging operation free — the Upper Bound configuration of §5.1.
	ZeroCompression bool

	// RecordOps controls whether Evaluate keeps per-op spans. The
	// decision algorithm's inner loop disables it.
	RecordOps bool

	// ComputeScale multiplies forward and backward compute durations
	// (0 or 1 = healthy). The chaos layer sets it to model a slow
	// device; compression work is scaled separately through the cost
	// models' device scales.
	ComputeScale float64

	// commSink, when non-nil, receives the communication steps of the
	// chain being built (see CommSteps). Transient; never cloned.
	commSink *[]CommStep

	// Reused scratch state; Engine is therefore not concurrency-safe.
	//
	// chains holds the per-tensor job pipelines. Every chain array is
	// immutable once built: it is owned by the chain memo and only ever
	// pointed at, never rewritten in place, so Clone can share the whole
	// table and clones can Run concurrently with the original.
	chains    [][]jobSpec
	queues    [numResources]jobQueue
	busyUntil [numResources]time.Duration
	cur       [numResources]leanJob
	// now, lastDone and done are the event loop's clock, latest tensor
	// completion and completed-tensor count, kept on the engine so a
	// paused loop can be captured (CapturePrefix) and resumed (RunFrom).
	now, lastDone time.Duration
	done          int

	// chainMemo caches derived chains by (tensor bytes, option identity):
	// chains depend on nothing else for a fixed engine configuration, and
	// the greedy sweep probes the same few dozen candidate options across
	// every tensor, so after warm-up SetOption is a map hit plus a copy
	// instead of a full cost-model derivation. Option identity is the
	// Steps backing array, which assumes options are immutable once built
	// — the contract the strategy package's constructors already follow.
	// Never shared: clones start with a nil memo, so concurrent engines
	// never race on it.
	chainMemo map[chainMemoKey][]jobSpec

	// resScratch is the Result Run reuses when RecordOps is off — the
	// decision algorithm's inner loop runs tens of thousands of probes
	// per selection and must not allocate per probe.
	resScratch Result
	// jobScratch backs ChainKey/CommTime/CompTime chain derivations.
	jobScratch []jobSpec

	// Observe's span-name caches, keyed by content (tensor, step, and
	// the step's value), so they never need invalidation when the
	// observed strategy changes.
	bwNames   []string
	stepNames map[stepNameKey]string
}

// New builds an engine. The cost models must match the cluster.
func New(m *model.Model, c *cluster.Cluster, cm *cost.Models) *Engine {
	n := len(m.Tensors)
	return &Engine{
		M: m, C: c, Cost: cm, RecordOps: true,
		// Pre-size the chain table from the model once: strategies always
		// cover exactly the model's tensors, so Prepare never has to grow
		// the outer array again.
		chains: make([][]jobSpec, 0, n),
	}
}

// Clone returns an independent engine for the same (model, cluster, GC)
// configuration, carrying the configuration flags and the prepared
// per-tensor pipelines. Chain arrays are immutable (SetOption only ever
// repoints a tensor's entry at a memoized chain), so the clone shares
// them outright and neither engine can observe the other's writes. The
// model, cluster, and cost models are shared read-only too, so a clone
// may Run concurrently with the original and with other clones — the
// engine-pool pattern the parallel strategy search uses for independent
// F(S) evaluations. The chain memo itself is not shared: each clone
// rebuilds its own, keeping engines race-free without locks.
func (e *Engine) Clone() *Engine {
	out := &Engine{
		M: e.M, C: e.C, Cost: e.Cost,
		ZeroCompression: e.ZeroCompression,
		RecordOps:       e.RecordOps,
		ComputeScale:    e.ComputeScale,
	}
	n := len(e.M.Tensors)
	if len(e.chains) > 0 {
		out.chains = make([][]jobSpec, len(e.chains), n)
		copy(out.chains, e.chains)
	} else {
		out.chains = make([][]jobSpec, 0, n)
	}
	return out
}

// jobPrio packs a job's identity into one orderable word. The high bits
// carry the schedule priority — all work of tensor i precedes work of
// tensor j>i, and within a tensor the backward kernel (stepSlot 0)
// precedes option steps (stepSlot 1+s) — while the low byte carries the
// chain index (+1, so the backward kernel's -1 encodes as 0) purely for
// the completion path to recover. The chain index can only break ties
// between jobs with equal (tensor, stepSlot), which never share a queue
// (a step's jobs land on distinct resources), so heap order — and the
// simulated schedule — is exactly that of the unpacked priority.
func jobPrio(tensor, stepSlot, job int) int64 {
	return int64(tensor)<<24 | int64(stepSlot)<<8 | int64(job+1)
}

func jobTensor(p int64) int32 { return int32(p >> 24) }
func jobIndex(p int64) int    { return int(p&0xff) - 1 }

// jobStep recovers the option step index (-1 for the backward kernel).
func jobStep(p int64) int { return int(p>>8)&0xffff - 1 }

// jobSpec is one precomputed unit of work in a tensor's pipeline.
type jobSpec struct {
	res  Resource
	dur  time.Duration
	step int // option step index (several jobs may share a step)
}

// Evaluate derives the timeline of one iteration under s.
//
// The scheduler is a lean discrete-event loop specialized to this model:
// five single-server resources, each serving ready jobs in priority
// order without idling (work-conserving, non-preemptive). The loop
// allocates almost nothing, because the decision algorithm calls it tens
// of thousands of times per strategy selection.
func (e *Engine) Evaluate(s *strategy.Strategy) (*Result, error) {
	if err := e.Prepare(s); err != nil {
		return nil, err
	}
	return e.Run()
}

// Prepare loads a strategy, computing every tensor's pipeline. After
// Prepare, individual tensors can be re-assigned with SetOption and the
// loaded configuration evaluated with Run — the incremental pattern of
// GetBestOption (Algorithm 1), which swaps one tensor's option at a time.
func (e *Engine) Prepare(s *strategy.Strategy) error {
	if len(s.PerTensor) != len(e.M.Tensors) {
		return fmt.Errorf("timeline: strategy covers %d tensors, model has %d",
			len(s.PerTensor), len(e.M.Tensors))
	}
	total := len(e.M.Tensors)
	// Grow the chain table within capacity when possible; New pre-sizes
	// it from the model, so the growth path is normally never taken.
	if cap(e.chains) >= total {
		e.chains = e.chains[:total]
	} else {
		grown := make([][]jobSpec, total)
		copy(grown, e.chains[:cap(e.chains)])
		e.chains = grown
	}
	for i, opt := range s.PerTensor {
		if err := e.SetOption(i, opt); err != nil {
			return err
		}
	}
	return nil
}

// chainMemoKey identifies a derived chain: tensor size plus the option's
// Steps backing array (options are immutable once built, so the array
// pointer plus length is the option's identity). ZeroCompression is part
// of the key because it changes every chain and may be toggled on a
// live engine (the §5.1 Upper Bound path).
type chainMemoKey struct {
	bytes int64
	step0 *strategy.Step
	n     int
	zc    bool
}

// SetOption replaces tensor i's pipeline with opt. Prepare must have run.
// The first assignment of each (tensor size, option) pair derives the
// chain and memoizes it; every later assignment — the steady state of
// the greedy sweep, which swaps the same few candidate options across
// tensors tens of thousands of times — repoints the tensor's entry at
// the memoized array without deriving or copying anything. opt's Steps
// must not be mutated afterwards: chains are cached by the Steps
// array's identity, and the cached arrays are shared (immutably) with
// clones of this engine.
func (e *Engine) SetOption(i int, opt strategy.Option) error {
	chain, err := e.memoChain(i, opt)
	if err != nil {
		return err
	}
	e.chains[i] = chain
	return nil
}

// memoChain returns the immutable memoized chain for (tensor i's size,
// opt), deriving and caching it on first use. AppendChainSig shares
// this cache, so the candidate-dedup pass that opens a sweep also warms
// the memo for the probe loop that follows.
func (e *Engine) memoChain(i int, opt strategy.Option) ([]jobSpec, error) {
	key := chainMemoKey{bytes: e.M.Tensors[i].Bytes(), n: len(opt.Steps), zc: e.ZeroCompression}
	if key.n > 0 {
		key.step0 = &opt.Steps[0]
	}
	if memo, ok := e.chainMemo[key]; ok {
		return memo, nil
	}
	// A step expands to at most two jobs (CPU compression adds a staging
	// hop), so this capacity always holds the full chain in one array.
	chain, err := e.chainInto(i, opt, make([]jobSpec, 0, 2*len(opt.Steps)))
	if err != nil {
		return nil, err
	}
	// jobPrio packs the chain index into 8 bits and the step slot into 16;
	// stepSlot <= len(chain), so one guard covers both fields.
	if len(chain) > 0xfe {
		return nil, fmt.Errorf("timeline: tensor %d chain of %d jobs exceeds job-packing width", i, len(chain))
	}
	if e.chainMemo == nil {
		e.chainMemo = make(map[chainMemoKey][]jobSpec)
	}
	e.chainMemo[key] = chain
	return chain, nil
}

// Run evaluates the currently loaded configuration.
//
// With RecordOps off — the decision loop's configuration — the returned
// Result is the engine's own reusable scratch: it is valid until the next
// Run/RunInto/CapturePrefix/RunFrom on this engine, which keeps the probe
// loop allocation-free.
// Callers that need the Result to outlive the next evaluation must copy
// it (or run with RecordOps on, which returns a fresh Result).
func (e *Engine) Run() (*Result, error) {
	if !e.RecordOps {
		if err := e.RunInto(&e.resScratch); err != nil {
			return nil, err
		}
		return &e.resScratch, nil
	}
	res := &Result{}
	// Pre-size the op log to its exact final length: one op per chain
	// job plus one backward kernel per tensor.
	ops := len(e.M.Tensors)
	for _, ch := range e.chains {
		ops += len(ch)
	}
	res.Ops = make([]Op, 0, ops)
	if err := e.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run evaluating into a caller-owned Result, reusing its Ops
// backing array — the pooled-scratch entry point for callers that
// evaluate in a loop (the bubble-analysis pass of the greedy sweep).
func (e *Engine) RunInto(res *Result) error {
	e.start(res)
	e.loop(res, e.RecordOps, noStop, NoBound)
	return e.finish(res)
}

// NoBound disables RunFrom's cutoff: the run always completes and
// reports the exact iteration time.
const NoBound = time.Duration(math.MaxInt64)

// noStop is a stop priority no job carries (jobPrio is never negative),
// so loop never pauses for a prefix capture.
const noStop = -1

// Prefix is a snapshot of the event loop at the instant tensor i's
// gradient is ready: the moment its backward kernel completes, taken
// before any completion at that instant is processed. Nothing before
// that instant reads tensor i's pipeline — the kernel's priority does
// not depend on the option, and every earlier event belongs to tensors
// before i — so every candidate option for tensor i shares the snapshot
// and RunFrom re-simulates only what follows it. A Prefix is read-only
// once captured; engines of the same configuration may RunFrom it
// concurrently.
type Prefix struct {
	queues    [numResources][]leanJob
	busyUntil [numResources]time.Duration
	cur       [numResources]leanJob
	resBusy   [numResources]time.Duration
	now       time.Duration
	lastDone  time.Duration
	done      int
	// tensor is the captured tensor; at is the capture instant, when its
	// backward kernel completes; owed is, per resource, the work not yet
	// done at that instant under the capturing strategy, less tensor's
	// own chain — what RunFrom's remaining-work bound starts from.
	tensor int
	at     time.Duration
	owed   [numResources]time.Duration
}

// CapturePrefix simulates the loaded strategy up to the instant tensor
// i's backward kernel completes and saves the event loop's state into p,
// reusing p's buffers. It invalidates the engine's scratch Result like
// Run does.
func (e *Engine) CapturePrefix(i int, p *Prefix) error {
	total := len(e.M.Tensors)
	if i < 0 || i >= total {
		return fmt.Errorf("timeline: prefix tensor %d out of range [0,%d)", i, total)
	}
	if len(e.chains) != total {
		return fmt.Errorf("timeline: CapturePrefix before Prepare")
	}
	res := &e.resScratch
	e.start(res)
	at := e.loop(res, false, jobPrio(i, 0, -1), NoBound)
	if at < 0 {
		return fmt.Errorf("timeline: tensor %d's backward kernel never completed", i)
	}
	for r := range e.queues {
		q := &e.queues[r]
		p.queues[r] = append(p.queues[r][:0], q.buf[:q.n]...)
	}
	p.busyUntil, p.cur, p.resBusy = e.busyUntil, e.cur, res.ResBusy
	p.now, p.lastDone, p.done = e.now, e.lastDone, e.done
	p.tensor, p.at = i, at

	// Work owed at the capture instant: every job's duration, less what
	// has completed (ResBusy) and the elapsed part of each job in flight.
	// Jobs finishing exactly at the instant are still in flight here, so
	// their whole duration counts as elapsed.
	p.owed = [numResources]time.Duration{}
	for k := range e.M.Tensors {
		p.owed[ResGPU] += e.scaleCompute(e.M.Tensors[k].Compute)
		if k == i {
			continue
		}
		for _, j := range e.chains[k] {
			p.owed[j.res] += j.dur
		}
	}
	for r := range p.owed {
		p.owed[r] -= res.ResBusy[r]
		if e.busyUntil[r] >= 0 {
			p.owed[r] -= at - e.cur[r].start
		}
	}
	return nil
}

// RunFrom restores p and simulates the rest of the iteration under the
// loaded strategy. The result equals Run's in Iter, Makespan and ResBusy
// provided every tensor before the captured one still has the option it
// had at capture and the engine's configuration (ZeroCompression,
// ComputeScale) matches the capturing engine's; with NoBound, options
// of the captured tensor and later ones are free to differ.
//
// bound is an exact cutoff, and a bounded run requires every tensor but
// the captured one to hold its capture-time option. Each resource is a
// single server, so the iteration cannot end before the capture instant
// plus the work still owed to any one resource; when that already
// reaches bound, RunFrom simulates nothing and reports it as Iter (with
// Makespan = Iter - forward and the captured ResBusy). Otherwise the
// run stops once the forward pass plus the current instant reaches
// bound while tensors remain, reporting that lower bound as Iter
// (Makespan and ResBusy are then partial). An iteration time below
// bound is always reported exactly. Pass NoBound for the exact value.
//
// RunFrom never records ops, and returns the engine's scratch Result
// with Run's validity rules.
func (e *Engine) RunFrom(p *Prefix, bound time.Duration) (*Result, error) {
	res := &e.resScratch
	res.Ops = res.Ops[:0]
	res.ResBusy = p.resBusy
	if bound != NoBound {
		owed := p.owed
		for _, j := range e.chains[p.tensor] {
			owed[j.res] += j.dur
		}
		var tail time.Duration
		for _, w := range owed {
			tail = max(tail, w)
		}
		if iter := e.scaleCompute(e.M.Forward) + p.at + tail; iter >= bound {
			res.Makespan = p.at + tail
			res.Iter = iter
			return res, nil
		}
	}
	for r := range e.queues {
		q, src := &e.queues[r], p.queues[r]
		if n := copy(q.buf, src); n < len(src) {
			q.buf = append(q.buf, src[n:]...)
		}
		q.n = len(src)
	}
	e.busyUntil, e.cur = p.busyUntil, p.cur
	e.now, e.lastDone, e.done = p.now, p.lastDone, p.done
	if at := e.loop(res, false, noStop, bound); at >= 0 {
		res.Makespan = at
		res.Iter = e.scaleCompute(e.M.Forward) + at
		return res, nil
	}
	if err := e.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// start resets the event loop for a full run: every backward kernel is
// queued at t=0 and the idle resources take their first jobs.
func (e *Engine) start(res *Result) {
	res.Makespan = 0
	res.Iter = 0
	res.Ops = res.Ops[:0]
	res.ResBusy = [numResources]time.Duration{}
	for r := range e.queues {
		e.queues[r].n = 0
		e.busyUntil[r] = -1
		e.cur[r] = leanJob{}
	}
	e.now, e.lastDone, e.done = 0, 0, 0

	// Backward kernels for every tensor are ready at t=0; GPU priority
	// order runs them in index order, with GPU compression of earlier
	// tensors interleaving ahead of later kernels (Reason #1).
	for i := range e.M.Tensors {
		e.push(ResGPU, leanJob{prio: jobPrio(i, 0, -1), ready: 0,
			dur: e.scaleCompute(e.M.Tensors[i].Compute)})
	}
	e.dispatch(1<<numResources-1, 0)
}

// dispatch starts the next queued job on every idle resource in mask. A
// resource's (idle, queue-nonempty) state changes solely when it
// completes a job or receives a push, and the event loop marks exactly
// those dirty, so every idle resource outside the mask is known to have
// an empty queue. Ascending resource order matches a full scan.
func (e *Engine) dispatch(mask uint32, now time.Duration) {
	for mask != 0 {
		r := bits.TrailingZeros32(mask)
		mask &^= 1 << r
		if e.busyUntil[r] < 0 && e.queues[r].n > 0 {
			j := e.pop(Resource(r))
			j.start = now
			e.cur[r] = j
			e.busyUntil[r] = now + j.dur
		}
	}
}

// loop is the event loop. It runs until every resource is idle and
// returns -1, or pauses before processing the instant at which either
// the GPU completes the job with priority stop (a prefix capture) or the
// iteration time is known to reach bound, and returns that instant. The
// loop state lives in the engine between calls, so a paused loop can be
// saved and resumed.
func (e *Engine) loop(res *Result, record bool, stop int64, bound time.Duration) time.Duration {
	now, last, done := e.now, e.lastDone, e.done
	// The iteration ends no earlier than any pending completion, so
	// reaching limit proves Iter >= bound.
	limit := bound - e.scaleCompute(e.M.Forward)
	for {
		// Find the earliest completion.
		next := time.Duration(-1)
		for r := range e.busyUntil {
			if e.busyUntil[r] >= 0 && (next < 0 || e.busyUntil[r] < next) {
				next = e.busyUntil[r]
			}
		}
		if next < 0 || next >= limit || (e.busyUntil[ResGPU] == next && e.cur[ResGPU].prio == stop) {
			e.now, e.lastDone, e.done = now, last, done
			return next
		}
		now = next
		// Complete everything finishing at this instant before
		// dispatching, so same-instant arrivals compete on priority.
		var dirty uint32
		for r := range e.busyUntil {
			if e.busyUntil[r] != now {
				continue
			}
			j := e.cur[r]
			e.busyUntil[r] = -1
			dirty |= 1 << r
			tensor := jobTensor(j.prio)
			if record {
				res.Ops = append(res.Ops, Op{
					Tensor: int(tensor), Step: jobStep(j.prio),
					Res:  Resource(r),
					Span: sim.Span{Ready: j.ready, Start: j.start, End: now},
				})
			}
			res.ResBusy[r] += j.dur
			chain := e.chains[tensor]
			nextJob := jobIndex(j.prio) + 1
			if nextJob >= len(chain) {
				done++
				if now > last {
					last = now
				}
				continue
			}
			spec := chain[nextJob]
			e.push(spec.res, leanJob{
				prio:  jobPrio(int(tensor), 1+spec.step, nextJob),
				ready: now, dur: spec.dur,
			})
			dirty |= 1 << uint(spec.res)
		}
		e.dispatch(dirty, now)
	}
}

// finish checks a completed loop and stamps the result.
func (e *Engine) finish(res *Result) error {
	if total := len(e.M.Tensors); e.done != total {
		return fmt.Errorf("timeline: %d of %d tensors completed (pipeline deadlock)", e.done, total)
	}
	res.Makespan = e.lastDone
	res.Iter = e.scaleCompute(e.M.Forward) + e.lastDone
	return nil
}

// scaleCompute applies the slow-device multiplier to a compute duration.
func (e *Engine) scaleCompute(d time.Duration) time.Duration {
	if e.ComputeScale <= 0 || e.ComputeScale == 1 {
		return d
	}
	return time.Duration(float64(d) * e.ComputeScale)
}

// leanJob is an in-flight or queued unit of work. Its identity lives
// packed inside prio (see jobPrio); keeping the struct at 32 bytes
// instead of 48 cuts the copy traffic of every heap sift and dispatch
// in the event loop.
type leanJob struct {
	prio  int64
	ready time.Duration
	start time.Duration
	dur   time.Duration
}

// jobQueue is a binary min-heap of ready jobs with an explicit length,
// so push/pop mutate elements and an int rather than re-storing the
// slice header into the Engine — a pointer store that would fire a GC
// write barrier on every heap operation of the event loop. The header
// is only written when the buffer grows, which pre-sizing amortizes to
// nothing.
type jobQueue struct {
	buf []leanJob
	n   int
}

// push adds a job to a resource's ready heap. The sift-up moves parents
// down into a hole instead of swapping, writing the new job once at its
// final slot. Priorities are unique within a queue (a tensor never has
// two jobs of the same step slot on one resource), so heap order — and
// therefore the simulated schedule — is deterministic.
func (e *Engine) push(r Resource, j leanJob) {
	q := &e.queues[r]
	if q.n == len(q.buf) {
		q.buf = append(q.buf, j)
	}
	b := q.buf
	i := q.n
	q.n++
	for i > 0 {
		parent := (i - 1) / 2
		if b[parent].prio <= j.prio {
			break
		}
		b[i] = b[parent]
		i = parent
	}
	b[i] = j
}

// pop removes the lowest-priority-value ready job.
func (e *Engine) pop(r Resource) leanJob {
	q := &e.queues[r]
	b := q.buf
	top := b[0]
	n := q.n - 1
	q.n = n
	j := b[n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if rr := l + 1; rr < n && b[rr].prio < b[l].prio {
			l = rr
		}
		if b[l].prio >= j.prio {
			break
		}
		b[i] = b[l]
		i = l
	}
	b[i] = j
	return top
}

// IterTime is Evaluate without op recording, for the decision loop.
func (e *Engine) IterTime(s *strategy.Strategy) (time.Duration, error) {
	saved := e.RecordOps
	e.RecordOps = false
	r, err := e.Evaluate(s)
	e.RecordOps = saved
	if err != nil {
		return 0, err
	}
	return r.Iter, nil
}

// MustIterTime panics on error; for callers holding validated strategies.
func (e *Engine) MustIterTime(s *strategy.Strategy) time.Duration {
	d, err := e.IterTime(s)
	if err != nil {
		panic(err)
	}
	return d
}
