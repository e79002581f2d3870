package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"espresso/client"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	obsserve "espresso/internal/obs/serve"
	"espresso/internal/obs/wtrace"
	"espresso/internal/serve"
	"espresso/internal/store"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// serveCallers is the closed-loop caller count, one per core of the
// 2-vCPU reference machine. The callers walk consecutive seeds from
// --seed on, each seed once: generated cases differ in cost by a factor
// of ten, so a run must average over thousands of them to read the same
// on any seed. replaySeeds bounds the in-process layer replays.
const (
	serveCallers = 2
	replaySeeds  = 128
	warmupRounds = 8
)

var warmupGen = client.GenConfig{MaxTensors: 1}

// liveServer is one espresso-serve instance on loopback over a fresh
// store. The store skips the per-append fsync: on a 2-vCPU VM with a
// shared virtual disk, fsync made the loop's throughput spread 17-36%
// over ten runs (quartile distance over median) against 7% without. The
// layer replay measures the fsynced put.
type liveServer struct {
	dir  string
	srv  *serve.Server
	http *obsserve.Server
	fr   *flight.Recorder
}

func startServer(traced bool) (*liveServer, error) {
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "store-")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{dir: dir}
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cfg := serve.Config{Store: st, Metrics: obs.NewMetrics()}
	if traced {
		cfg.Tracer = wtrace.New()
		cfg.Flight = flight.New(flight.Config{Metrics: cfg.Metrics})
		ls.fr = cfg.Flight
	}
	if ls.srv, err = serve.New(cfg); err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	if ls.http, err = obsserve.Start("127.0.0.1:0", cfg.Metrics, obsserve.WithHandler("/v1/", ls.srv.Handler())); err != nil {
		ls.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	if err := client.New(ls.http.URL).Healthz(context.Background()); err != nil {
		ls.stop()
		return nil, fmt.Errorf("server not healthy: %w", err)
	}
	return ls, nil
}

// stop drains the HTTP side, closes the server and its store, and
// deletes the store.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if cerr := ls.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(ls.dir); err == nil {
		err = rerr
	}
	return err
}

// capture is the callers' transport: it tags each request with the
// caller's request ID and keeps the last response's raw body and
// selection wall-time header, which the typed client does not expose.
type capture struct {
	rt     http.RoundTripper
	reqID  string
	body   []byte
	wallUs int64
}

// close drops the transport's idle connection.
func (c *capture) close() { c.rt.(*http.Transport).CloseIdleConnections() }

func (c *capture) RoundTrip(r *http.Request) (*http.Response, error) {
	if c.reqID != "" {
		r = r.Clone(r.Context())
		r.Header.Set("X-Request-ID", c.reqID)
	}
	resp, err := c.rt.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.body = body
	c.wallUs, _ = strconv.ParseInt(resp.Header.Get("X-Selection-Wall-Us"), 10, 64)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

type serveMix struct {
	seed uint64
	ls   *liveServer
	// traced-pass results for the layer replays
	layer   map[string]float64
	selects map[uint64]servedSelect
}

// servedSelect is one seed's select response as the traced pass saw it.
type servedSelect struct {
	body []byte
	resp client.SelectResponse
}

// setupServeMix starts the server and warms it and a client up with a
// few rounds on one-tensor cases from the first seeds, which cost about
// the same on every seed.
func setupServeMix(seed uint64) (state, error) {
	ls, err := startServer(false)
	if err != nil {
		return nil, err
	}
	s := &serveMix{seed: seed, ls: ls}
	cs := newCallerStats()
	capt, cl := s.client()
	for i := 0; i < warmupRounds; i++ {
		s.cycle(context.Background(), cl, capt, seed+uint64(i), warmupGen, nil, cs)
	}
	capt.close()
	if cs.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %s", cs.fails[0])
	}
	return s, nil
}

// fp32Iter predicts FP32's iteration time on seed's case, the
// reference no selection may exceed.
func fp32Iter(seed uint64) (int64, error) {
	c, cm, err := serve.BuildCase(seed, client.GenConfig{})
	if err != nil {
		return 0, err
	}
	iter, err := timeline.New(c.Model, c.Cluster, cm).IterTime(strategy.Uniform(len(c.Model.Tensors), strategy.NoCompression(c.Cluster)))
	return iter.Nanoseconds(), err
}

func (s *serveMix) close() error {
	if s.ls == nil {
		return nil
	}
	err := s.ls.stop()
	s.ls = nil
	return err
}

// callerStats is what one caller measured.
type callerStats struct {
	attempted, failed int
	fails             []string
	cycles            []float64            // ms per complete select, report, predict round
	lat               map[string][]float64 // ms per request kind
	wallMs, overMs    []float64            // select: server wall header, client latency minus it
	bytes             map[string][]float64
	iter              map[uint64]int64 // seed -> selected iter_ns
	evals             []float64
	phases            map[string]time.Duration
	records           int
	selects           map[uint64]servedSelect
}

func newCallerStats() *callerStats {
	return &callerStats{
		lat: map[string][]float64{}, bytes: map[string][]float64{},
		iter: map[uint64]int64{}, phases: map[string]time.Duration{}, selects: map[uint64]servedSelect{},
	}
}

func (cs *callerStats) fail(format string, args ...any) {
	cs.failed++
	cs.fails = append(cs.fails, fmt.Sprintf(format, args...))
}

// measure runs the closed loop: each caller takes every second seed from
// --seed on and, per seed, selects, fetches the persisted report and
// predicts the selected strategy, until the time is up. The operation is
// one such round.
func (s *serveMix) measure(seconds float64, tr *tracer) (*pass, error) {
	if tr != nil {
		// The traced pass runs on a server with its selection tracer and
		// flight recorder on, so the selector's phases join the spans.
		if err := s.close(); err != nil {
			return nil, err
		}
		ls, err := startServer(true)
		if err != nil {
			return nil, err
		}
		s.ls = ls
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+time.Minute)
	defer cancel()
	stats := make([]*callerStats, serveCallers)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	c0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for k := range stats {
		stats[k] = newCallerStats()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s.caller(ctx, k, deadline, tr, stats[k])
		}(k)
	}
	wg.Wait()
	busy, cpu := time.Since(t0), cpuTime()-c0

	p := &pass{busy: busy.Seconds(), cpu: cpu, named: map[string]namedValue{}}
	kinds := map[string][]float64{}
	iters := map[uint64]int64{}
	var wallMs, overMs, evals []float64
	bytesBy := map[string][]float64{}
	phases := map[string]time.Duration{}
	records, requests := 0, 0
	s.selects = map[uint64]servedSelect{}
	for _, cs := range stats {
		p.attempted += cs.attempted
		p.failed += cs.failed
		for _, f := range cs.fails {
			fmt.Fprintln(os.Stderr, "check failed:", f)
		}
		p.lat = append(p.lat, cs.cycles...)
		for kind, xs := range cs.lat {
			kinds[kind] = append(kinds[kind], xs...)
			requests += len(xs)
		}
		for seed, it := range cs.iter {
			iters[seed] = it
		}
		for kind, xs := range cs.bytes {
			bytesBy[kind] = append(bytesBy[kind], xs...)
		}
		for seed, sel := range cs.selects {
			s.selects[seed] = sel
		}
		wallMs = append(wallMs, cs.wallMs...)
		overMs = append(overMs, cs.overMs...)
		evals = append(evals, cs.evals...)
		for ph, d := range cs.phases {
			phases[ph] += d
		}
		records += cs.records
	}
	p.ops = len(p.lat)
	for seed, it := range iters {
		fp32, err := fp32Iter(seed)
		if err != nil {
			return nil, fmt.Errorf("seed %d: FP32 reference: %w", seed, err)
		}
		p.vsFP32 = append(p.vsFP32, float64(it)/float64(fp32))
		if it > fp32 {
			p.fail("seed %d: selection %d ns is worse than FP32 %d ns", seed, it, fp32)
		}
	}
	p.named["serve.ops_per_s"] = namedValue{Value: float64(requests) / p.busy, Unit: "1/s", N: requests}
	for _, kind := range []string{"select", "predict", "report"} {
		xs := kinds[kind]
		p.named["serve."+kind+"_ms.p50"] = namedValue{Value: median(xs), Unit: "ms", N: len(xs), P: 0.5}
		q := tail(xs, 0.9)
		p.named["serve."+kind+"_ms.p90"] = namedValue{Value: q.Value, Unit: "ms", N: q.N, P: q.P}
	}
	if tr != nil {
		s.layer = map[string]float64{
			"serve.select_wall_ms.p50":   median(wallMs),
			"serve.http_overhead_ms.p50": median(overMs),
			"serve.http_overhead_ms.p90": tail(overMs, 0.9).Value,
			"core.evals_per_select":      mean(evals),
		}
		for _, kind := range []string{"select", "predict", "report"} {
			s.layer["serve.response_bytes."+kind] = mean(bytesBy[kind])
		}
		for _, ph := range selectPhases {
			s.layer["core.phase_ms."+ph] = ms(phases[ph]) / float64(max(records, 1))
		}
	}
	return p, nil
}

// client builds a typed client with its own connection to the server.
func (s *serveMix) client() (*capture, *client.Client) {
	capt := &capture{rt: &http.Transport{MaxIdleConnsPerHost: 1}}
	return capt, client.New(s.ls.http.URL, client.WithHTTPClient(&http.Client{Transport: capt, Timeout: time.Minute}))
}

// caller is closed-loop client k: it takes seeds seed+k,
// seed+k+serveCallers, ... until the deadline.
func (s *serveMix) caller(ctx context.Context, k int, deadline time.Time, tr *tracer, cs *callerStats) {
	capt, cl := s.client()
	defer capt.close()
	for i := k; time.Now().Before(deadline); i += serveCallers {
		seed := s.seed + uint64(i)
		q := tr.start("serve.cycle", k)
		s.cycle(ctx, cl, capt, seed, client.GenConfig{}, q, cs)
		q.finish()
	}
}

// timed runs one client call under a span and records its latency.
func timed(q *req, capt *capture, kind, span string, cs *callerStats, call func() error) (time.Duration, int, error) {
	sp := q.begin(wtrace.NoParent, span)
	if q != nil {
		capt.reqID = fmt.Sprintf("%s-%d", q.r.ID(), sp)
	}
	t0 := time.Now()
	err := call()
	dt := time.Since(t0)
	q.end(sp)
	cs.attempted++
	if err == nil {
		cs.lat[kind] = append(cs.lat[kind], ms(dt))
		cs.bytes[kind] = append(cs.bytes[kind], float64(len(capt.body)))
	}
	return dt, sp, err
}

// cycle is one seed's select, report GET and predict, with the checks.
func (s *serveMix) cycle(ctx context.Context, cl *client.Client, capt *capture, seed uint64, g client.GenConfig, q *req, cs *callerStats) {
	start, failed := time.Now(), cs.failed
	defer func() {
		if cs.failed == failed {
			cs.cycles = append(cs.cycles, ms(time.Since(start)))
		}
	}()
	var sel *client.SelectResponse
	dt, sp, err := timed(q, capt, "select", "client.Select", cs, func() (err error) {
		sel, err = cl.Select(ctx, client.SelectRequest{Seed: seed, Gen: g})
		return err
	})
	if err != nil {
		cs.fail("seed %d: select: %v", seed, err)
		return
	}
	selBody := capt.body
	wall := time.Duration(capt.wallUs) * time.Microsecond
	cs.wallMs = append(cs.wallMs, ms(wall))
	cs.overMs = append(cs.overMs, ms(dt-wall))
	cs.iter[seed] = sel.Report.IterNs
	if q != nil {
		cs.evals = append(cs.evals, float64(sel.Report.Evals))
		if seed-s.seed < replaySeeds {
			cs.selects[seed] = servedSelect{body: selBody, resp: *sel}
		}
		if rec, ok := findRecord(s.ls.fr, capt.reqID); ok {
			q.graft(sp, rec.Start, rec.Spans)
			for ph, d := range rec.Phases {
				cs.phases[ph] += d
			}
			cs.records++
		}
	}

	var got json.RawMessage
	_, _, err = timed(q, capt, "report", "client.Report", cs, func() (err error) {
		got, err = cl.Report(ctx, sel.ID)
		return err
	})
	if err != nil {
		cs.fail("seed %d: report %s: %v", seed, sel.ID, err)
	} else if !bytes.Equal(capt.body, selBody) {
		cs.fail("seed %d: report %s body differs from its select response", seed, sel.ID)
	} else if !bytes.Equal(got, selBody) {
		cs.fail("seed %d: client returned report %s bytes that differ from the wire", seed, sel.ID)
	}

	var pred *client.SelectResponse
	_, _, err = timed(q, capt, "predict", "client.Predict", cs, func() (err error) {
		pred, err = cl.Predict(ctx, client.PredictRequest{Seed: seed, Gen: g, Strategy: sel.Strategy})
		return err
	})
	if err != nil {
		cs.fail("seed %d: predict: %v", seed, err)
	} else if pred.Report.IterNs != sel.Report.IterNs {
		cs.fail("seed %d: predict says %d ns, select said %d ns", seed, pred.Report.IterNs, sel.Report.IterNs)
	}
}

// findRecord looks up the flight record of the request tagged reqID.
func findRecord(fr *flight.Recorder, reqID string) (flight.Record, bool) {
	suffix := " http_req=" + reqID
	for _, rec := range fr.Records() {
		if strings.HasSuffix(rec.Fingerprint, suffix) {
			return rec, true
		}
	}
	return flight.Record{}, false
}

// layers replays, in process, the calls the server makes for each seed
// the traced pass selected, timing each layer's public functions: request
// decode, case build, selector construction, response encode (which must
// reproduce the served bytes), a cold prediction, and the store's fsynced
// put and get.
func (s *serveMix) layers(tr *tracer, traced *pass) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range s.layer {
		out[k] = v
	}
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	walBefore, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	var rs replaySamples
	useful, n := 0, 0
	for i := 0; i < replaySeeds; i++ {
		seed := s.seed + uint64(i)
		served, ok := s.selects[seed]
		if !ok {
			continue
		}
		n++
		traced.attempted++
		q := tr.start("serve.replay", 0)
		sel, strat, err := rs.replay(q, st, seed, served, traced)
		q.finish()
		if err != nil {
			return nil, fmt.Errorf("seed %d replay: %w", seed, err)
		}
		sac, _, err := sel.SelectAllCompressed()
		if err != nil {
			return nil, fmt.Errorf("seed %d: SelectAllCompressed: %w", seed, err)
		}
		if sameStrategy(strat, sac) {
			useful++
		}
	}
	// Read the reports back, each once, after all puts.
	ids := st.Reports()
	q := tr.start("serve.replay", 0)
	for _, r := range ids {
		sp := q.begin(wtrace.NoParent, "store.Report")
		t0 := time.Now()
		got, ok := st.Report(r.ID)
		rs.get = append(rs.get, us(time.Since(t0)))
		q.end(sp)
		if !ok || !bytes.Equal(got.Body, r.Body) {
			traced.fail("store: report %s did not read back", r.ID)
		}
	}
	q.finish()
	walAfter, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	out["serve.decode_us"] = median(rs.decode)
	out["serve.encode_us"] = median(rs.encode)
	out["gen.generate_us"] = median(rs.gen)
	out["cost.new_models_us"] = median(rs.cost)
	out["core.new_selector_us"] = median(rs.selector)
	out["timeline.cold_eval_us"] = median(rs.cold)
	out["store.put_us.p50"] = median(rs.put)
	out["store.put_us.p90"] = tail(rs.put, 0.9).Value
	out["store.get_us.p50"] = median(rs.get)
	out["store.wal_bytes_per_put"] = float64(walAfter-walBefore) / float64(max(len(rs.put), 1))
	out["core.alt_useful_ratio"] = float64(useful) / float64(max(n, 1))
	return out, nil
}

// replaySamples holds the replayed calls' durations, µs.
type replaySamples struct {
	decode, gen, cost, selector, encode, cold, put, get []float64
}

// replay makes, for one served seed, the calls the select handler
// makes, each under a span, and checks that encoding reproduces the
// served body and a cold prediction its iteration time.
func (rs *replaySamples) replay(q *req, st *store.Store, seed uint64, served servedSelect, p *pass) (*core.Selector, *strategy.Strategy, error) {
	step := func(name string, dst *[]float64, call func()) {
		sp := q.begin(wtrace.NoParent, name)
		t0 := time.Now()
		call()
		*dst = append(*dst, us(time.Since(t0)))
		q.end(sp)
	}
	body, err := json.Marshal(client.SelectRequest{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	var rq client.SelectRequest
	if step("serve.DecodeSelectRequest", &rs.decode, func() { rq, err = serve.DecodeSelectRequest(body) }); err != nil {
		return nil, nil, err
	}
	var c *gen.Case
	step("gen.Generate", &rs.gen, func() { c = gen.Generate(rq.Seed, gen.Config{}) })
	var cm *cost.Models
	if step("cost.NewModels", &rs.cost, func() { cm, err = cost.NewModels(c.Cluster, c.Spec) }); err != nil {
		return nil, nil, err
	}
	var sel *core.Selector
	step("core.NewSelector", &rs.selector, func() { sel = core.NewSelector(c.Model, c.Cluster, cm) })
	strat, err := strategy.Unmarshal(served.resp.Strategy)
	if err != nil {
		return nil, nil, err
	}
	var enc []byte
	if step("serve.EncodeSelect", &rs.encode, func() {
		enc, err = serve.EncodeSelect(served.resp.ID, "select", c, strat, served.resp.Report)
	}); err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(enc, served.body) {
		p.fail("seed %d: EncodeSelect does not reproduce the served body", seed)
	}
	var iter time.Duration
	if step("timeline.IterTime", &rs.cold, func() { iter, err = timeline.New(c.Model, c.Cluster, cm).IterTime(strat) }); err != nil {
		return nil, nil, err
	}
	if iter.Nanoseconds() != served.resp.Report.IterNs {
		p.fail("seed %d: cold prediction %d ns, served %d ns", seed, iter.Nanoseconds(), served.resp.Report.IterNs)
	}
	id, err := st.ReserveReportID()
	if err != nil {
		return nil, nil, err
	}
	if step("store.PutReportWithID", &rs.put, func() { _, err = st.PutReportWithID(id, "select", seed, enc) }); err != nil {
		return nil, nil, err
	}
	return sel, strat, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
