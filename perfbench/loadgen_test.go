package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autopipe/client"
	"autopipe/internal/service"
)

// loadResult is what the benchmark would report for a run: the rung
// summary (lateness tail, failures), the windowed latency tail that becomes
// latency_ms_tail, and the fail ratio.
type loadResult struct {
	rungStats
	windowTail float64
	failRatio  float64
}

// loadRun drives two seconds of hot traffic at 300 req/s over two
// connections at a daemon whose handler is wrapped by plant, and reports
// its p90 over half-second windows (150 requests each).
func loadRun(t *testing.T, plant func(http.Handler) http.Handler) loadResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d, err := bootDaemon(service.Config{}, plant)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	cl, err := client.New(d.url)
	if err != nil {
		t.Fatal(err)
	}
	configs, err := newConfigGen(3).take(4)
	if err != nil {
		t.Fatal(err)
	}
	const tail, limit = 90, 25
	s := &svcRun{p: serviceParams{Workers: 2, TailPct: tail, LimitMs: limit}, d: d, cl: cl, configs: configs, digests: make([]string, len(configs))}
	c0 := d.snapshot()
	shots := uniformShots(600, 300, func(k int) int { return k % len(configs) })
	r := s.rung(ctx, 300, shots)
	attempted, failed := failures([]rungRun{r}, d.snapshot().sub(c0))
	_, wt := windowedLatency(r, 500*time.Millisecond, 2*time.Second, tail)
	return loadResult{summarize(r, tail, limit, 2), wt, float64(failed) / float64(attempted)}
}

func TestOpenLoopCleanRunShowsNoStallOrFailure(t *testing.T) {
	r := loadRun(t, nil)
	if r.failRatio != 0 || r.Failed != 0 {
		t.Errorf("clean run: fail ratio %g, %d failed requests, want 0", r.failRatio, r.Failed)
	}
	if r.windowTail >= 25 || r.LateTail >= 25 {
		t.Errorf("clean run: latency tail %.1f ms, lateness tail %.1f ms, want both under 25 ms", r.windowTail, r.LateTail)
	}
}

// A recurring daemon-wide stall (every handler blocks behind one slow
// request, as in a stop-the-world pause) must show in the latency tail,
// timed from when each request was due, and in the generator's lateness:
// requests due during a stall cannot be sent.
func TestOpenLoopDetectsPlantedStall(t *testing.T) {
	var mu sync.Mutex
	plant := func(h http.Handler) http.Handler {
		var seen atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			if r.Method == http.MethodPost && seen.Add(1)%50 == 0 {
				time.Sleep(60 * time.Millisecond)
			}
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	}
	r := loadRun(t, plant)
	if r.windowTail < 25 {
		t.Errorf("planted 60 ms stall every 50 requests: latency tail %.1f ms, want >= 25 ms", r.windowTail)
	}
	if r.LateTail < 10 {
		t.Errorf("planted stall: lateness tail %.1f ms, want >= 10 ms", r.LateTail)
	}
	if r.OK {
		t.Errorf("planted stall: run reported within its latency limit")
	}
}

// A refused attempt the client's retry turns into a success must still
// count as a failure.
func TestOpenLoopCountsRetriedRefusals(t *testing.T) {
	var seen atomic.Int64
	refuse := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && seen.Add(1)%20 == 0 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	r := loadRun(t, refuse)
	if r.Failed != 0 {
		t.Errorf("every refused attempt should have been retried to success, %d requests failed", r.Failed)
	}
	if r.failRatio < 0.03 {
		t.Errorf("planted 503 on every 20th attempt: fail ratio %g, want >= 0.03", r.failRatio)
	}
}
