package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/service"
)

// serviceParams fixes one service workload: its rate ladder, which rung is
// the reference the end-to-end metrics come from, the latency limit on the
// tail percentile, and the loadgen's worker (connection) count.
type serviceParams struct {
	Rates   []float64 `json:"rates_rps"`
	RefRate float64   `json:"reference_rps"`
	TailPct float64   `json:"tail_percentile"`
	LimitMs float64   `json:"latency_limit_ms"`
	Workers int       `json:"connections"`
	// HotSet is the number of pre-warmed configs: one from every cell of
	// the space, so the seed picks configs but not the mix of cells.
	HotSet   int     `json:"hot_set,omitempty"`
	DupShare float64 `json:"duplicate_share,omitempty"`
	// RefShare is the share of the ladder's time the reference rung gets;
	// the other rungs split the rest evenly.
	RefShare float64 `json:"reference_time_share"`
	// Window is the length of the windows the untraced run's p50 and tail
	// are taken over (their medians are reported; 0 = the whole run); each
	// holds enough requests to leave ten beyond the tail percentile.
	Window time.Duration `json:"window_ns"`
}

var (
	hotParams = serviceParams{
		Rates: []float64{1000, 2000, 4000, 8000}, RefRate: 2000, TailPct: 95, LimitMs: 2,
		Workers: min(runtime.NumCPU(), 8), HotSet: len(spaceStrata()), RefShare: 0.4, Window: time.Second,
	}
	coldParams = serviceParams{
		Rates: []float64{100, 200, 400, 800}, RefRate: 200, TailPct: 95, LimitMs: 50,
		Workers: 8, DupShare: 0.1, RefShare: 0.4,
	}
)

// rungDurations splits d over the ladder.
func (p serviceParams) rungDurations(d time.Duration) []time.Duration {
	out := make([]time.Duration, len(p.Rates))
	rest := time.Duration(float64(d) * (1 - p.RefShare) / float64(len(p.Rates)-1))
	for i, r := range p.Rates {
		out[i] = rest
		if r == p.RefRate {
			out[i] = time.Duration(float64(d) * p.RefShare)
		}
	}
	return out
}

// daemon is an in-process autopiped: the service package's Server behind a
// real loopback listener the benchmark owns, so it can count connections
// and time the handler.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
	inner  http.Handler

	accepts  atomic.Int64
	attempts atomic.Int64 // job submissions that reached the handler
	refused  atomic.Int64 // of those, answered with a non-2xx status
	tr       atomic.Pointer[tracer]
}

// bootDaemon starts a daemon; plant, when non-nil, wraps the service
// handler (the must-detect tests plant stalls and refusals with it).
func bootDaemon(cfg service.Config, plant func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), served: make(chan error, 1), inner: srv.Handler()}
	if plant != nil {
		d.inner = plant(d.inner)
	}
	d.hs = &http.Server{Handler: d, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(&countingListener{Listener: ln, n: &d.accepts}) }()
	return d, nil
}

// close stops the listener, drains the service, and waits for Serve to
// return.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Close()
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := d.tr.Load()
	t0 := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	d.inner.ServeHTTP(sw, r)
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		d.attempts.Add(1)
		if sw.status >= 300 {
			d.refused.Add(1)
		}
	}
	tr.add("service.handler", -1, -1, t0, time.Now())
}

// counter reads one of the service's own registry counters.
func (d *daemon) counter(name string) float64 { return d.srv.Registry().Counter(name).Value() }

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// svcCounters is a snapshot of the counters a service phase is charged with.
type svcCounters struct {
	accepts, attempts, refused        float64
	submitted, hits, searches, shared float64
	engineCount, engineSum            float64
	simHits, simMisses, cands, pruned float64
}

func (d *daemon) snapshot() svcCounters {
	snap := d.srv.Registry().Snapshot()
	var cands float64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "planner.p") && strings.HasSuffix(name, ".candidates") {
			cands += v
		}
	}
	eng := snap.Histograms["service.engine.seconds"]
	return svcCounters{
		accepts: float64(d.accepts.Load()), attempts: float64(d.attempts.Load()), refused: float64(d.refused.Load()),
		submitted: snap.Counters["service.jobs.submitted"], hits: snap.Counters["service.cache.hits"],
		searches: snap.Counters["service.engine.searches"], shared: snap.Counters["service.singleflight.shared"],
		engineCount: float64(eng.Count), engineSum: eng.Sum,
		simHits: snap.Counters["planner.engine.cache_hits"], simMisses: snap.Counters["planner.engine.cache_misses"],
		cands: cands, pruned: snap.Counters["planner.engine.depths_pruned"],
	}
}

func (a svcCounters) sub(b svcCounters) svcCounters {
	return svcCounters{
		a.accepts - b.accepts, a.attempts - b.attempts, a.refused - b.refused,
		a.submitted - b.submitted, a.hits - b.hits, a.searches - b.searches, a.shared - b.shared,
		a.engineCount - b.engineCount, a.engineSum - b.engineSum,
		a.simHits - b.simHits, a.simMisses - b.simMisses, a.cands - b.cands, a.pruned - b.pruned,
	}
}

// svcRun is the state one service workload shares across its phases.
type svcRun struct {
	p       serviceParams
	d       *daemon
	cl      *client.Client
	configs []planConfig
	digests []string // per config: the digest every response must match ("" = unknown)
	tr      *tracer
	rng     *rand.Rand
	nextOp  int64 // operation id of the next shot, across rungs

	sampled, mismatched atomic.Int64
	mismatch            atomic.Pointer[string]
}

// send performs one plan request for config c over HTTP.
func (s *svcRun) send(ctx context.Context, op int64, c int) result {
	cfg := s.configs[c]
	tr := s.tr
	t0 := time.Now()
	spec, job, err := s.cl.Plan(ctx, cfg.Model, cfg.Run, cfg.Cluster)
	r := result{done: time.Now(), err: err}
	tr.add("client.roundtrip", op, -1, t0, r.done)
	var we *client.Error
	r.answered = errors.As(err, &we)
	if err == nil && op%32 == 0 {
		s.sampled.Add(1)
		if want := s.digests[c]; want != "" && specDigest(spec) != want {
			s.mismatched.Add(1)
			msg := fmt.Sprintf("response for %s differs from the in-process plan", cfg)
			s.mismatch.Store(&msg)
		}
	}
	if tr != nil && err == nil {
		s.estimateClient(op, cfg, job)
	}
	return r
}

// estimateClient times, on this request's own payloads, the client's
// request encoding, its response decoding, and the service's cache key.
func (s *svcRun) estimateClient(op int64, cfg planConfig, job *client.Job) {
	req := cfg.request()
	s.tr.timed("client.encode", op, -1, func() { _, _ = json.Marshal(&req) })
	resp, _ := json.Marshal(job)
	s.tr.timed("client.decode", op, -1, func() {
		var j client.Job
		var pr client.PlanResult
		if json.Unmarshal(resp, &j) == nil {
			_ = json.Unmarshal(j.Result, &pr)
		}
	})
	s.tr.timed("service.key", op, -1, func() { _, _ = service.Key(req) })
}

// rung runs one rate's shots and lets the last responses drain.
func (s *svcRun) rung(ctx context.Context, rate float64, shots []shot) rungRun {
	base := s.nextOp
	s.nextOp += int64(len(shots))
	l := openLoop{workers: s.p.Workers, send: func(ctx context.Context, k int) result {
		return s.send(ctx, base+int64(k), shots[k].cfg)
	}}
	r := l.run(ctx, rate, shots)
	time.Sleep(50 * time.Millisecond)
	return r
}

// failures counts failed requests plus refused attempts the client retried
// to success: retries are failures too, not hidden behind a final 200.
func failures(runs []rungRun, c svcCounters) (attempted, failed int64) {
	var answeredFails int64
	for _, r := range runs {
		for _, x := range r.results {
			attempted++
			if x.err != nil {
				failed++
				if x.answered {
					answeredFails++
				}
			}
		}
	}
	if retried := int64(c.refused) - answeredFails; retried > 0 {
		failed += retried
	}
	return attempted, failed
}

// measure runs the measured phases. Untraced, the whole time goes to the
// reference rate and yields the end-to-end metrics. Traced, the rate ladder
// takes 60% of it (max_ok_rate_rps and load-generator health) and the
// reference rate with spans on the rest.
func (s *svcRun) measure(ctx context.Context, oc *outcome, o options, shotsFor func(rate float64, n int) []shot) svcCounters {
	c0 := s.d.snapshot()
	if o.trace {
		ladderTime := time.Duration(float64(o.measure()) * 0.6)
		runs, stats, delta, rt := s.runLadder(ctx, ladderTime, shotsFor)
		s.reportLadder(oc, o, runs, stats, delta, rt)
		s.tracedPhase(ctx, oc, o, o.measure()-ladderTime, stats[indexOf(s.p.Rates, s.p.RefRate)], shotsFor)
		return s.d.snapshot().sub(c0)
	}
	d := o.measure()
	rss := startRSS()
	rt0 := readRuntime()
	run := s.rung(ctx, s.p.RefRate, shotsFor(s.p.RefRate, max(int(s.p.RefRate*d.Seconds()), 1)))
	rt := deltaRuntime(rt0, readRuntime(), len(run.results))
	peak := rss.peak()
	delta := s.d.snapshot().sub(c0)
	st := summarize(run, s.p.TailPct, s.p.LimitMs, s.p.Workers)
	s.printRung(o, st)
	oc.attempted, oc.failed = failures([]rungRun{run}, delta)
	oc.metrics["throughput_ops_s"] = st.Throughput
	oc.metrics["latency_ms_p50"], oc.metrics["latency_ms_tail"] = windowedLatency(run, s.p.Window, d, s.p.TailPct)
	oc.metrics["alloc_kb_per_op"] = rt.kbPerOp
	oc.metrics["peak_rss_mb"] = peak
	oc.metrics["runtime.allocs_per_op"] = rt.allocsPerOp
	oc.metrics["runtime.gc_cpu_share"] = rt.gcShare
	oc.metrics["fail_ratio"] = float64(oc.failed) / float64(oc.attempted)
	s.healthMetrics(oc, o, st, delta)
	return delta
}

// windowedLatency is an open-loop run's p50 and tail: the median over
// windows (by due time) of each window's percentile.
func windowedLatency(run rungRun, w, total time.Duration, tailPct float64) (p50, tail float64) {
	lat := make([]point, len(run.results))
	for k, r := range run.results {
		lat[k] = point{run.shots[k].due, ms(r.lat)}
	}
	ws := windows(lat, w, total)
	return windowMedian(ws, pct(50)), windowMedian(ws, pct(tailPct))
}

func (s *svcRun) printRung(o options, st rungStats) {
	data, _ := json.Marshal(st)
	fmt.Fprintf(o.out, "rung %s\n", data)
}

// reportLadder prints the ladder and sets the metrics it yields.
func (s *svcRun) reportLadder(oc *outcome, o options, runs []rungRun, stats []rungStats, delta svcCounters, rt runtimeDelta) {
	for _, st := range stats {
		s.printRung(o, st)
	}
	oc.attempted, oc.failed = failures(runs, delta)
	oc.metrics["runtime.allocs_per_op"] = rt.allocsPerOp
	oc.metrics["runtime.gc_cpu_share"] = rt.gcShare
	oc.metrics["fail_ratio"] = float64(oc.failed) / float64(oc.attempted)
	oc.metrics["max_ok_rate_rps"] = maxOKRate(stats)
	s.healthMetrics(oc, o, stats[indexOf(s.p.Rates, s.p.RefRate)], delta)
}

// healthMetrics reports the load generator's health and the daemon's
// refusals at the reference rate.
func (s *svcRun) healthMetrics(oc *outcome, o options, st rungStats, delta svcCounters) {
	oc.metrics["loadgen.lateness_ms_tail"] = st.LateTail
	oc.metrics["loadgen.backlog_max"] = float64(st.BacklogMax)
	if delta.attempts > 0 {
		oc.metrics["service.refused_ratio"] = delta.refused / delta.attempts
	}
	if delta.submitted > 0 {
		oc.metrics["service.cache_hit_ratio"] = delta.hits / delta.submitted
	}
	if st.LateTail > s.p.LimitMs/2 {
		fmt.Fprintf(o.out, "note: the load generator ran late (p%g lateness %.2f ms); the run measured the generator too\n", s.p.TailPct, st.LateTail)
	}
	oc.check(s.mismatched.Load() == 0, "%d of %d sampled responses differ from the in-process planner (e.g. %s)",
		s.mismatched.Load(), s.sampled.Load(), deref(s.mismatch.Load()))
	oc.check(s.sampled.Load() > 0, "no response was sampled for comparison")
}

func deref(p *string) string {
	if p == nil {
		return ""
	}
	return *p
}

// runLadder runs every rung in ascending rate order, untraced, and charges
// the runtime counters to the whole ladder.
func (s *svcRun) runLadder(ctx context.Context, d time.Duration, shotsFor func(rate float64, n int) []shot) ([]rungRun, []rungStats, svcCounters, runtimeDelta) {
	c0 := s.d.snapshot()
	rt0 := readRuntime()
	var runs []rungRun
	var stats []rungStats
	n := 0
	for i, dur := range s.p.rungDurations(d) {
		rate := s.p.Rates[i]
		r := s.rung(ctx, rate, shotsFor(rate, max(int(rate*dur.Seconds()), 1)))
		runs = append(runs, r)
		stats = append(stats, summarize(r, s.p.TailPct, s.p.LimitMs, s.p.Workers))
		n += len(r.results)
	}
	return runs, stats, s.d.snapshot().sub(c0), deltaRuntime(rt0, readRuntime(), n)
}

// tracedPhase runs the reference rate with spans on, reports the layer
// metrics and prints the budget.
func (s *svcRun) tracedPhase(ctx context.Context, oc *outcome, o options, d time.Duration, untraced rungStats, shotsFor func(rate float64, n int) []shot) {
	s.tr = newTracer()
	s.d.tr.Store(s.tr)
	oc.tracer = s.tr
	c0 := s.d.snapshot()
	n := max(int(s.p.RefRate*d.Seconds()), 1)
	run := s.rung(ctx, s.p.RefRate, shotsFor(s.p.RefRate, n))
	s.d.tr.Store(nil)
	delta := s.d.snapshot().sub(c0)
	st := summarize(run, s.p.TailPct, s.p.LimitMs, s.p.Workers)
	oc.metrics["trace.overhead_ops_s"] = untraced.Throughput - st.Throughput

	layers := s.tr.layers()
	reqs := float64(len(run.results))
	rt := us(layers["client.roundtrip"].perCall())
	h := us(layers["service.handler"].perCall())
	enc := us(layers["client.encode"].perCall())
	dec := us(layers["client.decode"].perCall())
	key := us(layers["service.key"].perCall())
	oc.metrics["client.roundtrip_us"] = rt
	oc.metrics["service.handler_us"] = h
	oc.metrics["client.encode_us"] = enc
	oc.metrics["client.decode_us"] = dec
	oc.metrics["service.key_us"] = key
	oc.metrics["transport.overhead_us"] = rt - h - enc - dec
	oc.metrics["service.conns_per_kreq"] = 1000 * delta.accepts / reqs
	if delta.submitted > 0 {
		oc.metrics["service.cache_hit_ratio"] = delta.hits / delta.submitted
		oc.metrics["service.singleflight_shared_per_kreq"] = 1000 * delta.shared / delta.submitted
	}
	engineMsPerReq := 0.0
	if delta.engineCount > 0 {
		oc.metrics["service.engine_ms"] = 1000 * delta.engineSum / delta.engineCount
		engineMsPerReq = 1000 * delta.engineSum / reqs
	}
	if delta.searches > 0 {
		oc.metrics["sim.calls_per_plan"] = delta.simMisses / delta.searches
		oc.metrics["core.candidates_per_plan"] = delta.cands / delta.searches
		oc.metrics["core.depths_pruned_per_plan"] = delta.pruned / delta.searches
		if l := delta.simHits + delta.simMisses; l > 0 {
			oc.metrics["core.sim_cache_hit_ratio"] = delta.simHits / l
		}
	}

	var lat, wait []float64
	for _, r := range run.results {
		lat = append(lat, ms(r.lat))
		wait = append(wait, ms(r.wait))
	}
	rows := []budgetRow{
		{"client.encode", enc / 1000, "json.Marshal of the request, timed per request"},
		{"client.decode", dec / 1000, "json.Unmarshal of job + plan, timed per request"},
		{"service.key", key / 1000, "service.Key, timed per request"},
		{"service.engine", engineMsPerReq, "service.engine span (daemon registry) per request"},
		{"service.handler", h/1000 - key/1000 - engineMsPerReq, "wrapped Server.Handler() minus key and engine"},
		{"transport", (rt - h - enc - dec) / 1000, "roundtrip minus handler, encode, decode"},
		{"loadgen (worker wait)", mean(wait), "pick-up time minus start time"},
	}
	printBudget(o.out, fmt.Sprintf("%d traced requests at %g rps, op = start to response", len(run.results), s.p.RefRate), rows, mean(lat))
	fmt.Fprintf(o.out, "tracing overhead: untraced %.1f req/s p50 %.3f ms, traced %.1f req/s p50 %.3f ms\n",
		untraced.Throughput, untraced.P50, st.Throughput, st.P50)
}

// serviceHot: a pre-warmed hot set, so nearly every request is a cache hit;
// admission, the cache read, encode, transport and decode do the work.
func serviceHot(ctx context.Context, o options) (*outcome, error) {
	oc := newOutcome()
	p := hotParams
	oc.params["service"] = p
	var s *svcRun
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if s != nil {
			s.d.close()
		}
		t0 := time.Now()
		var err error
		if s, err = newSvcRun(p, o.seed, p.HotSet); err != nil {
			return nil, err
		}
		for i, c := range s.configs {
			spec, _, err := s.cl.Plan(ctx, c.Model, c.Run, c.Cluster)
			if err != nil {
				s.d.close()
				return nil, fmt.Errorf("pre-warm %s: %w", c, err)
			}
			s.digests[i] = specDigest(spec)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.d.close()
	oc.metrics["setup_s"] = median(setups)

	// The pre-warmed responses must equal the in-process planner's plans.
	var iters []float64
	for i, c := range s.configs {
		digest, iterMs, err := planInProcess(ctx, c)
		oc.check(err == nil && digest == s.digests[i], "hot config %s: daemon plan differs from in-process plan (%v)", c, err)
		iters = append(iters, iterMs)
	}
	oc.metrics["plan_iter_ms_geomean"] = geomean(iters)

	shotsFor := func(rate float64, n int) []shot {
		return uniformShots(n, rate, func(int) int { return s.rng.IntN(len(s.configs)) })
	}
	delta := s.measure(ctx, oc, o, shotsFor)
	oc.check(delta.searches == 0, "hot set: %g engine searches after pre-warm, want 0", delta.searches)
	return oc, nil
}

// serviceCold: first-seen configs, with a share of duplicates sent while the
// first copy is in flight; cache writes, singleflight and the parallel
// engine do the work.
func serviceCold(ctx context.Context, o options) (*outcome, error) {
	oc := newOutcome()
	p := coldParams
	oc.params["service"] = p
	// Every shot carries a config no earlier shot had, so setup draws as
	// many as the run will send.
	total := int(p.RefRate * o.measure().Seconds())
	if o.trace {
		ladder := time.Duration(float64(o.measure()) * 0.6)
		total = int(p.RefRate * (o.measure() - ladder).Seconds())
		for i, d := range p.rungDurations(ladder) {
			total += max(int(p.Rates[i]*d.Seconds()), 1)
		}
	}
	var s *svcRun
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if s != nil {
			s.d.close()
		}
		t0 := time.Now()
		var err error
		if s, err = newSvcRun(p, o.seed, total); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.d.close()
	oc.metrics["setup_s"] = median(setups)

	next := 0
	shotsFor := func(rate float64, n int) []shot {
		var out []shot
		for k := 0; k < n; k++ {
			due := time.Duration(float64(k) / rate * float64(time.Second))
			out = append(out, shot{due: due, cfg: next})
			if s.rng.Float64() < p.DupShare {
				out = append(out, shot{due: due, cfg: next})
			}
			next++
		}
		return out
	}
	s.measure(ctx, oc, o, shotsFor)

	// On a cold cache every distinct key costs exactly one search.
	searches := s.d.counter("service.engine.searches")
	distinct := map[string]bool{}
	for _, c := range s.configs[:next] {
		k, _ := service.Key(c.request())
		distinct[k] = true
	}
	if oc.failed == 0 {
		oc.check(searches == float64(len(distinct)), "engine searches %g != distinct keys offered %d", searches, len(distinct))
	}
	oc.metrics["service.searches_per_distinct"] = searches / float64(len(distinct))
	// Sampled responses must equal the in-process planner's plans.
	var iters []float64
	for c := 0; c < next; c += 16 {
		cfg := s.configs[c]
		digest, iterMs, err := planInProcess(ctx, cfg)
		if err != nil {
			oc.check(false, "in-process plan of %s: %v", cfg, err)
			continue
		}
		got, _, err := s.cl.Plan(ctx, cfg.Model, cfg.Run, cfg.Cluster)
		oc.check(err == nil && specDigest(got) == digest, "daemon plan of %s differs from in-process plan", cfg)
		iters = append(iters, iterMs)
	}
	oc.metrics["plan_iter_ms_geomean"] = geomean(iters)
	fmt.Fprintf(o.out, "service-cold: %d distinct keys offered, %g engine searches, %d responses compared in process\n",
		len(distinct), searches, len(iters))
	return oc, nil
}

// planInProcess plans c with a serial in-process planner, evaluates the
// plan, and returns the spec's digest and the evaluated iteration time.
func planInProcess(ctx context.Context, c planConfig) (digest string, iterMs float64, err error) {
	spec, bl, err := autopipe.NewPlanner(autopipe.WithParallelism(1)).Plan(ctx, c.Model, c.Run, c.Cluster)
	if err != nil {
		return "", 0, err
	}
	res, err := autopipe.Evaluate(spec, bl, c.Run, c.Cluster)
	if err == nil {
		err = res.Failure()
	}
	if err != nil {
		return "", 0, err
	}
	return specDigest(spec), 1000 * res.IterTime, nil
}

func newSvcRun(p serviceParams, seed uint64, nConfigs int) (*svcRun, error) {
	configs, err := newConfigGen(seed).take(nConfigs)
	if err != nil {
		return nil, err
	}
	d, err := bootDaemon(service.Config{}, nil)
	if err != nil {
		return nil, err
	}
	cl, err := client.New(d.url)
	if err != nil {
		d.close()
		return nil, err
	}
	return &svcRun{
		p: p, d: d, cl: cl, configs: configs, digests: make([]string, len(configs)),
		rng: rand.New(rand.NewPCG(seed, 0x736572766963)),
	}, nil
}

func indexOf(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}
