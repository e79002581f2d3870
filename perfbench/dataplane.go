package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/collective"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/ddl"
	"espresso/internal/model"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// dataplaneElems is the per-GPU element count of every tensor: 64 GPUs
// x 16384 float32 is 4 MiB of gradients per tensor, 128 MiB per
// iteration of vgg16's 32 tensors.
const dataplaneElems = 16384

type dataplane struct {
	seed   uint64
	m      *model.Model
	c      *cluster.Cluster
	strat  *strategy.Strategy
	vsFP32 float64 // the strategy's predicted iteration time over FP32's
	x      *ddl.Executor
	grads  [][][]float32 // [tensor][gpu][elem]
	// ref holds, for each uncompressed tensor, the exact sum over GPUs
	// and the sum of magnitudes that bounds float32 rounding.
	ref    map[int][2][]float64
	iters  int
	layer  map[string]float64
	traced struct{ dense, compressed []float64 }
}

// setupDataplane selects Espresso's strategy for vgg16 on NVLink x8 with
// DGC and draws every GPU's gradients from the seed.
func setupDataplane(seed uint64) (state, error) {
	m := model.VGG16()
	c := cluster.NVLinkTestbed(table5Machines)
	cm, err := cost.NewModels(c, specDGC)
	if err != nil {
		return nil, err
	}
	sel := core.NewSelector(m, c, cm)
	sel.Parallelism = 1
	s, rep, err := sel.Select()
	if err != nil {
		return nil, err
	}
	x, err := ddl.NewExecutor(c, specDGC)
	if err != nil {
		return nil, err
	}
	fp32, err := timeline.New(m, c, cm).IterTime(strategy.Uniform(len(m.Tensors), strategy.NoCompression(c)))
	if err != nil {
		return nil, err
	}
	d := &dataplane{seed: seed, m: m, c: c, strat: s, vsFP32: float64(rep.Iter) / float64(fp32), x: x, ref: map[int][2][]float64{}}
	rng := rand.New(rand.NewSource(int64(seed)))
	d.grads = make([][][]float32, len(m.Tensors))
	for t := range d.grads {
		d.grads[t] = make([][]float32, c.TotalGPUs())
		for g := range d.grads[t] {
			v := make([]float32, dataplaneElems)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			d.grads[t][g] = v
		}
		if !s.PerTensor[t].Compressed() {
			sum, mag := make([]float64, dataplaneElems), make([]float64, dataplaneElems)
			for _, v := range d.grads[t] {
				for j, x := range v {
					sum[j] += float64(x)
					mag[j] += math.Abs(float64(x))
				}
			}
			d.ref[t] = [2][]float64{sum, mag}
		}
	}
	return d, nil
}

func (d *dataplane) close() error { return nil }

// measure replays full iterations, every tensor through SyncTensor with
// its option, until the time is up. Only the SyncTensor calls are timed;
// the checks run between them.
func (d *dataplane) measure(seconds float64, tr *tracer) (*pass, error) {
	p := &pass{named: map[string]namedValue{}, vsFP32: []float64{d.vsFP32}}
	budget := time.Duration(seconds * float64(time.Second))
	var busy time.Duration
	var cpu time.Duration
	iters := 0
	d.x.ResetTraffic()
	for busy < budget {
		q := tr.start("dataplane.iteration", 0)
		for t := range d.m.Tensors {
			opt := d.strat.PerTensor[t]
			sp := q.begin(wtrace.NoParent, "ddl.SyncTensor")
			c0, t0 := cpuTime(), time.Now()
			out, err := d.x.SyncTensor(d.m.Tensors[t].Name, d.grads[t], opt, d.seed+uint64(d.iters))
			dt := time.Since(t0)
			cpu += cpuTime() - c0
			q.end(sp)
			p.attempted++
			busy += dt
			if err != nil {
				p.fail("tensor %d: %v", t, err)
				continue
			}
			p.lat = append(p.lat, ms(dt))
			if q != nil {
				if opt.Compressed() {
					d.traced.compressed = append(d.traced.compressed, us(dt))
				} else {
					d.traced.dense = append(d.traced.dense, us(dt))
				}
			}
			d.check(p, t, out)
		}
		q.finish()
		iters++
		d.iters++
	}
	p.ops = len(p.lat)
	p.busy = busy.Seconds()
	p.cpu = cpu
	p.named["dataplane.iters_per_s"] = namedValue{Value: float64(iters) / p.busy, Unit: "1/s", N: iters}
	if tr != nil {
		tf := d.x.Traffic()
		n := float64(iters)
		d.layer = map[string]float64{
			"ddl.wire_bytes.intra.raw":        float64(tf.Intra.RawBytes) / n,
			"ddl.wire_bytes.intra.compressed": float64(tf.Intra.CompressedBytes) / n,
			"ddl.wire_bytes.inter.raw":        float64(tf.Inter.RawBytes) / n,
			"ddl.wire_bytes.inter.compressed": float64(tf.Inter.CompressedBytes) / n,
			"ddl.sync_us.dense":               median(d.traced.dense),
			"ddl.sync_us.compressed":          median(d.traced.compressed),
		}
	}
	return p, nil
}

// check verifies one synchronized tensor: every GPU holds the same
// values, and an uncompressed tensor equals the exact sum to within
// float32 rounding of its terms.
func (d *dataplane) check(p *pass, t int, out [][]float32) {
	for g := 1; g < len(out); g++ {
		for j := range out[g] {
			if out[g][j] != out[0][j] {
				p.fail("tensor %d: GPUs 0 and %d disagree at element %d", t, g, j)
				return
			}
		}
	}
	ref, ok := d.ref[t]
	if !ok {
		return
	}
	// Each of the n-1 additions rounds once, by at most 2^-24 of a
	// partial sum, which the sum of magnitudes bounds.
	eps := float64(len(out)) * math.Ldexp(1, -24)
	for j, v := range out[0] {
		if math.Abs(float64(v)-ref[0][j]) > eps*ref[1][j] {
			p.fail("tensor %d: element %d is %v, exact sum %v", t, j, v, ref[0][j])
			return
		}
	}
}

// layers times the compression and collective kernels the strategy
// runs, on the workload's own gradients and at its group size (8 GPUs a
// machine, 8 machines).
func (d *dataplane) layers(tr *tracer, _ *pass) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range d.layer {
		out[k] = v
	}
	comp, err := compress.New(specDGC)
	if err != nil {
		return nil, err
	}
	group := d.c.GPUsPerMachine
	q := tr.start("dataplane.kernels", 0)
	var cUs, dUs, arUs, agUs []float64
	dense := make([]float32, dataplaneElems)
	payloads := make([][]*compress.Payload, group)
	bufs := make([][]float32, group)
	for t := range d.grads {
		for g := 0; g < group; g++ {
			sp := q.begin(wtrace.NoParent, "compress.CompressInto")
			t0 := time.Now()
			pl := comp.CompressInto(&compress.Payload{}, d.grads[t][g], d.seed+uint64(t))
			cUs = append(cUs, us(time.Since(t0)))
			q.end(sp)
			payloads[g] = []*compress.Payload{pl}

			sp = q.begin(wtrace.NoParent, "compress.Decompress")
			t0 = time.Now()
			err := comp.Decompress(pl, dense)
			dUs = append(dUs, us(time.Since(t0)))
			q.end(sp)
			if err != nil {
				return nil, fmt.Errorf("tensor %d: decompress: %w", t, err)
			}
			bufs[g] = append(bufs[g][:0], d.grads[t][g]...)
		}
		sp := q.begin(wtrace.NoParent, "collective.Allreduce")
		t0 := time.Now()
		err := collective.Allreduce(bufs)
		arUs = append(arUs, us(time.Since(t0)))
		q.end(sp)
		if err != nil {
			return nil, fmt.Errorf("tensor %d: allreduce: %w", t, err)
		}
		sp = q.begin(wtrace.NoParent, "collective.AllgatherPayloads")
		t0 = time.Now()
		collective.AllgatherPayloads(payloads)
		agUs = append(agUs, us(time.Since(t0)))
		q.end(sp)
	}
	q.finish()
	out["compress.compress_us"] = median(cUs)
	out["compress.decompress_us"] = median(dUs)
	out["collective.allreduce_us"] = median(arUs)
	out["collective.allgather_payloads_us"] = median(agUs)
	return out, nil
}
