// Command autopiped runs the planner-as-a-service daemon: an HTTP/JSON API
// over the AutoPipe planning engine with a bounded worker pool, a
// content-addressed plan cache with singleflight dedup, and an optional
// restart-resumable on-disk job store.
//
// Usage:
//
//	autopiped [-addr 127.0.0.1:7180] [-store DIR] [-workers N] \
//	          [-rate N] [-burst N] [-queue-wait 2s] [-chaos plan.json] \
//	          [-timeout 30s] [-cpuprofile p] [-memprofile p]
//	autopiped -loadgen [-target URL] [-requests N] [-concurrency N] \
//	          [-distinct N] [-bench BENCH_service.json] [-chaos plan.json]
//	autopiped -smoke [-store DIR]
//	autopiped -soak [-soak-cycles N] [-soak-jobs N] [-store DIR] [-chaos plan.json]
//
// Each queue worker plans its search serially; -workers is the daemon's
// planning concurrency. The default mode serves until SIGINT/SIGTERM, then
// drains: unfinished persisted jobs revert to pending so the next start
// re-runs them. -loadgen drives plan traffic at a daemon (starting an
// in-process one when -target is empty) and reports QPS, latency
// percentiles, and the cache-hit ratio; -bench additionally writes the
// report as an autopipebench baseline.
// -smoke runs the end-to-end CI check against a throwaway daemon.
// -soak runs the crash-recovery harness: it kills and restarts a real daemon
// -soak-cycles times mid-traffic and asserts exactly-once completion, cache
// re-seeding, and store quarantine; -chaos layers seeded fault injection on
// top of any of these modes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autopipe/internal/cliutil"
	"autopipe/internal/config"
	"autopipe/internal/obs"
	"autopipe/internal/service"
)

func main() {
	workers := flag.Int("workers", 4, "queue workers executing jobs concurrently")
	queueDepth := flag.Int("queue", 256, "pending-job queue depth (full queue rejects with 503)")
	cacheEntries := flag.Int("cache", 1024, "content-addressed plan cache capacity")
	loadgen := flag.Bool("loadgen", false, "run the load generator instead of serving")
	smoke := flag.Bool("smoke", false, "run the end-to-end service smoke check and exit")
	soak := flag.Bool("soak", false, "run the crash-recovery soak harness and exit")
	soakCycles := flag.Int("soak-cycles", 3, "soak: kill/restart cycles to run")
	soakJobs := flag.Int("soak-jobs", 0, "soak: total plan jobs across all cycles (0 = 4 per cycle)")
	target := flag.String("target", "", "loadgen target base URL (empty = start an in-process daemon)")
	requests := flag.Int("requests", 200, "loadgen: total plan requests")
	concurrency := flag.Int("concurrency", 8, "loadgen: concurrent client workers")
	distinct := flag.Int("distinct", 4, "loadgen: distinct plan configurations in the traffic mix")
	benchPath := flag.String("bench", "", "loadgen: write the report as an autopipebench baseline to this path")
	sf := cliutil.RegisterService(flag.CommandLine)
	pf := cliutil.RegisterTimeout(flag.CommandLine)
	prof := cliutil.RegisterProfile(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	switch {
	case *smoke:
		ctx, cancel := pf.Context()
		defer cancel()
		if err := service.Smoke(ctx, sf.Store, os.Stdout); err != nil {
			fail(err)
		}
	case *soak:
		if err := runSoak(pf, sf, *soakCycles, *soakJobs); err != nil {
			fail(err)
		}
	case *loadgen:
		if err := runLoadgen(pf, sf, *target, *requests, *concurrency, *distinct, *benchPath, *workers); err != nil {
			fail(err)
		}
	default:
		if err := serve(pf, sf, *workers, *queueDepth, *cacheEntries); err != nil {
			fail(err)
		}
	}
}

// loadChaos parses the plan named by -chaos; (nil, nil) when none was asked
// for, so callers pass the result straight to service.Chaos.
func loadChaos(sf *cliutil.ServiceFlags) (*service.ChaosPlan, error) {
	if sf.Chaos == "" {
		return nil, nil
	}
	return service.LoadChaos(sf.Chaos)
}

// newHTTPServer returns the daemon's HTTP server for h. ReadHeaderTimeout
// stops a client that trickles its headers from holding a connection, and
// IdleTimeout closes unused keep-alives. ?wait=1 requests stay open for a
// whole search, so there is no read or write timeout.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// serve runs the daemon until SIGINT/SIGTERM, then drains.
func serve(pf *cliutil.PlannerFlags, sf *cliutil.ServiceFlags, workers, queueDepth, cacheEntries int) error {
	plan, err := loadChaos(sf)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Config{
		Workers:      workers,
		QueueDepth:   queueDepth,
		CacheEntries: cacheEntries,
		StoreDir:     sf.Store,
		JobTimeout:   pf.Timeout,
		RateLimit:    sf.Rate,
		RateBurst:    sf.Burst,
		QueueWait:    sf.QueueWait,
		Obs:          obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	srv.Start()

	ln, err := net.Listen("tcp", sf.Addr)
	if err != nil {
		return fmt.Errorf("autopiped: listen: %w", err)
	}
	hs := newHTTPServer(service.Chaos(srv.Handler(), plan, srv.Registry()))
	if plan != nil {
		fmt.Printf("autopiped: chaos plan %q armed (seed=%d, %d rules)\n", plan.Name, plan.Seed, len(plan.Chaos))
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Printf("autopiped: serving on http://%s (store=%s, workers=%d)\n",
		ln.Addr(), storeLabel(sf.Store), workers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("autopiped: %v, draining\n", sig)
	case err := <-errCh:
		srv.Close()
		return fmt.Errorf("autopiped: serve: %w", err)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("autopiped: shutdown: %w", err)
	}
	srv.Close()
	return nil
}

// runLoadgen drives plan traffic at target, booting a throwaway in-process
// daemon first when no target is given.
func runLoadgen(pf *cliutil.PlannerFlags, sf *cliutil.ServiceFlags, target string, requests, concurrency, distinct int, benchPath string, workers int) error {
	ctx, cancel := pf.Context()
	defer cancel()

	if target == "" {
		plan, err := loadChaos(sf)
		if err != nil {
			return err
		}
		srv, err := service.New(service.Config{
			Workers:   workers,
			StoreDir:  sf.Store,
			RateLimit: sf.Rate,
			RateBurst: sf.Burst,
			QueueWait: sf.QueueWait,
		})
		if err != nil {
			return err
		}
		srv.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("autopiped: listen: %w", err)
		}
		hs := newHTTPServer(service.Chaos(srv.Handler(), plan, srv.Registry()))
		go func() { _ = hs.Serve(ln) }()
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = hs.Shutdown(shCtx)
			srv.Close()
		}()
		target = "http://" + ln.Addr().String()
		fmt.Printf("loadgen: started in-process daemon at %s\n", target)
	}

	rep, err := service.Loadgen(ctx, target, service.LoadgenOptions{
		Requests:    requests,
		Concurrency: concurrency,
		Distinct:    distinct,
		Progress:    os.Stdout,
	})
	if err != nil {
		return err
	}
	if benchPath != "" {
		base, err := rep.ToBaseline("service")
		if err != nil {
			return err
		}
		if err := config.Save(benchPath, base); err != nil {
			return err
		}
		fmt.Printf("baseline written to %s\n", benchPath)
	}
	return nil
}

// runSoak drives the crash-recovery harness: kill/restart cycles over a real
// daemon on a real store, with every resilience invariant checked.
func runSoak(pf *cliutil.PlannerFlags, sf *cliutil.ServiceFlags, cycles, jobs int) error {
	ctx, cancel := pf.Context()
	defer cancel()
	plan, err := loadChaos(sf)
	if err != nil {
		return err
	}
	storeDir := sf.Store
	if storeDir == "" {
		dir, err := os.MkdirTemp("", "autopiped-soak-*")
		if err != nil {
			return fmt.Errorf("autopiped: soak store: %w", err)
		}
		defer os.RemoveAll(dir)
		storeDir = dir
	}
	if _, err := service.Soak(ctx, service.SoakOptions{
		StoreDir: storeDir,
		Cycles:   cycles,
		Jobs:     jobs,
		Chaos:    plan,
		Progress: os.Stdout,
	}); err != nil {
		return err
	}
	fmt.Println("soak PASS")
	return nil
}

func storeLabel(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "autopiped:", err)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "autopiped: hint: raise -timeout")
	}
	os.Exit(1)
}
