package service

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"autopipe"
	"autopipe/client"
	"autopipe/internal/bench"
	"autopipe/internal/errdefs"
)

// LoadgenOptions configures a load-generation run against a daemon.
type LoadgenOptions struct {
	// Requests is the total number of plan requests to issue (default 200).
	Requests int
	// Concurrency is the number of client workers (default 8).
	Concurrency int
	// Distinct is the number of distinct plan configurations cycled through
	// (default 4): the first Distinct requests each cost one engine search,
	// the remainder hit the cache or coalesce in flight, which is the
	// traffic shape the daemon exists for.
	Distinct int
	// Progress, when non-nil, receives a line at start and end.
	Progress io.Writer
}

// LoadgenReport is what a load run measures: throughput, the latency
// distribution, and how much of the traffic the cache absorbed.
type LoadgenReport struct {
	Requests    int
	Errors      int
	Elapsed     time.Duration
	QPS         float64
	P50, P95    time.Duration
	P99, Max    time.Duration
	CacheHits   int
	Shared      int
	Searches    int
	Distinct    int
	Concurrency int
}

// CacheHitRatio is the fraction of successful requests served from the
// content-addressed cache (in-flight singleflight shares count separately).
func (r *LoadgenReport) CacheHitRatio() float64 {
	if n := r.Requests - r.Errors; n > 0 {
		return float64(r.CacheHits) / float64(n)
	}
	return 0
}

// Format renders the human report.
func (r *LoadgenReport) Format(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %d requests, concurrency %d, %d distinct configs\n", r.Requests, r.Concurrency, r.Distinct)
	fmt.Fprintf(w, "  elapsed        %v\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  throughput     %.1f req/s\n", r.QPS)
	fmt.Fprintf(w, "  latency        p50 %v  p95 %v  p99 %v  max %v\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	fmt.Fprintf(w, "  cache          %d hits (%.1f%% of traffic), %d singleflight-shared, %d engine searches\n",
		r.CacheHits, 100*r.CacheHitRatio(), r.Shared, r.Searches)
	if r.Errors > 0 {
		fmt.Fprintf(w, "  errors         %d\n", r.Errors)
	}
}

// Loadgen hammers the daemon at target with identical-heavy plan traffic and
// measures QPS, latency percentiles, and the cache-hit ratio. The target
// must be a reachable autopiped base URL.
func Loadgen(ctx context.Context, target string, opts LoadgenOptions) (*LoadgenReport, error) {
	if opts.Requests <= 0 {
		opts.Requests = 200
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Distinct <= 0 {
		opts.Distinct = 4
	}
	if opts.Distinct > opts.Requests {
		opts.Distinct = opts.Requests
	}
	c, err := client.New(target, client.WithRetries(2))
	if err != nil {
		return nil, err
	}
	configs := loadgenConfigs(opts.Distinct)

	if opts.Progress != nil {
		fmt.Fprintf(opts.Progress, "loadgen: %d plan requests against %s...\n", opts.Requests, target)
	}

	type sample struct {
		d   time.Duration
		hit bool
		shr bool
		err error
	}
	samples := make([]sample, opts.Requests)
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pc := configs[i%len(configs)]
				t0 := time.Now()
				_, jobDoc, err := c.Plan(ctx, pc.model, pc.run, pc.cluster)
				s := sample{d: time.Since(t0), err: err}
				if jobDoc != nil {
					s.hit = jobDoc.CacheHit
					s.shr = jobDoc.Shared
				}
				samples[i] = s
			}
		}()
	}
	for i := 0; i < opts.Requests; i++ {
		select {
		case <-ctx.Done():
			close(next)
			wg.Wait()
			return nil, fmt.Errorf("service: loadgen canceled: %w", ctx.Err())
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadgenReport{
		Requests:    opts.Requests,
		Elapsed:     elapsed,
		Distinct:    opts.Distinct,
		Concurrency: opts.Concurrency,
	}
	var lats []time.Duration
	for _, s := range samples {
		if s.err != nil {
			rep.Errors++
			continue
		}
		lats = append(lats, s.d)
		if s.hit {
			rep.CacheHits++
		}
		if s.shr {
			rep.Shared++
		}
	}
	if len(lats) == 0 {
		firstErr := samples[0].err
		return nil, fmt.Errorf("service: loadgen: every request failed (first: %w)", firstErr)
	}
	sort.Slice(lats, func(i, k int) bool { return lats[i] < lats[k] })
	rep.QPS = float64(len(lats)) / elapsed.Seconds()
	rep.P50 = lats[len(lats)*50/100]
	rep.P95 = lats[len(lats)*95/100-boundAdjust(len(lats), 95)]
	rep.P99 = lats[len(lats)*99/100-boundAdjust(len(lats), 99)]
	rep.Max = lats[len(lats)-1]

	// The daemon's own counters give the ground truth on engine work.
	if metrics, err := c.Metrics(ctx); err == nil {
		rep.Searches = int(promCounter(metrics, "service_engine_searches_total"))
	}
	if opts.Progress != nil {
		rep.Format(opts.Progress)
	}
	return rep, nil
}

// boundAdjust keeps the percentile index in range for small sample counts.
func boundAdjust(n, pct int) int {
	if n*pct/100 >= n {
		return n*pct/100 - (n - 1)
	}
	return 0
}

// loadgenConfig is one distinct planning request in the traffic mix.
type loadgenConfig struct {
	model   autopipe.Model
	run     autopipe.Run
	cluster autopipe.Cluster
}

// loadgenConfigs builds n plan configurations with pairwise-distinct cache
// keys: the global batch grows by one micro-batch (8 samples) per
// configuration, while the model and GPU count alternate so the mix spans
// different searches. Each stays small enough to search in milliseconds.
func loadgenConfigs(n int) []loadgenConfig {
	zoo := []autopipe.Model{autopipe.GPT2_345M(), autopipe.BERTLarge()}
	out := make([]loadgenConfig, n)
	for i := range out {
		cluster := autopipe.DefaultCluster()
		cluster.NumGPUs = 4 + 4*(i%2)
		out[i] = loadgenConfig{
			model:   zoo[i%len(zoo)],
			run:     autopipe.Run{MicroBatch: 8, GlobalBatch: 256 + 8*i, Checkpoint: true},
			cluster: cluster,
		}
	}
	return out
}

// ToBaseline renders the report as a BENCH_<label>.json baseline so the
// service numbers ride the same compare/lint pipeline as the engine
// benchmarks: mean latency as nsPerOp, with throughput and cache-hit ratio
// as gated custom metrics and the tail latencies as informational anchors.
func (r *LoadgenReport) ToBaseline(label string) (*bench.Baseline, error) {
	ok := r.Requests - r.Errors
	if ok <= 0 {
		return nil, fmt.Errorf("%w: service: loadgen report has no successful requests", errdefs.ErrBadConfig)
	}
	mean := float64(r.Elapsed.Nanoseconds()) * float64(r.Concurrency) / float64(ok)
	b := &bench.Baseline{
		Label:     label,
		Suite:     bench.SuiteID,
		GoVersion: runtime.Version(),
		Benchmarks: []bench.Entry{{
			Name:    "service/plan_roundtrip",
			Iters:   ok,
			NsPerOp: mean,
			Custom: map[string]float64{
				"requests_per_sec": r.QPS,
				"cache_hit_ratio":  r.CacheHitRatio(),
				"latency_p50_ns":   float64(r.P50.Nanoseconds()),
				"latency_p99_ns":   float64(r.P99.Nanoseconds()),
				"engine_searches":  float64(r.Searches),
			},
		}},
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// promCounter extracts a single sample value from a Prometheus text
// exposition (good enough for the loadgen's own counters, not a parser).
func promCounter(exposition, name string) float64 {
	for _, line := range splitLines(exposition) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var metric string
		var v float64
		if n, err := fmt.Sscanf(line, "%s %g", &metric, &v); err == nil && n == 2 && metric == name {
			return v
		}
	}
	return 0
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}
