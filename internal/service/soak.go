package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"autopipe/client"
	"autopipe/internal/errdefs"
)

// SoakOptions configures a crash-recovery soak run.
type SoakOptions struct {
	// StoreDir is the job-store directory the soak daemons share across
	// restarts. Required: crash recovery without persistence is vacuous.
	StoreDir string
	// Cycles is the number of kill/restart cycles (default 3).
	Cycles int
	// Jobs is the total number of distinct plan jobs in the stream, spread
	// evenly across the cycles (default 4 per cycle).
	Jobs int
	// Chaos, when non-nil, wraps every daemon incarnation's handler with the
	// plan's injections, so the client rides out injected faults and real
	// crashes at the same time.
	Chaos *ChaosPlan
	// Progress, when non-nil, receives a line per cycle.
	Progress io.Writer
}

// SoakReport is what a soak run proves.
type SoakReport struct {
	Cycles int
	Jobs   int
	// Completed is the number of jobs whose final sweep verified a durable
	// result; a passing soak has Completed == Jobs.
	Completed int
	// DuplicateSearches counts engine runs for keys whose result was already
	// durable at the previous boot — the exactly-once violation count. A
	// passing soak has 0.
	DuplicateSearches int
	// EngineSearches is the total engine runs across every incarnation;
	// legitimately >= the distinct keys when a crash interrupts a search
	// mid-run (the interrupted search never produced a durable result).
	EngineSearches int
	// Resumed totals service.jobs.resumed across reboots: jobs found pending
	// in the store and re-enqueued.
	Resumed int
	// Quarantined totals the damaged store files quarantined at boots: the
	// planted ones, plus any .tmp fragment a kill tore mid-write (expected
	// crash wreckage — the atomic-rename protocol exists exactly so a torn
	// .tmp never becomes a torn document). A quarantined *final* .json that
	// the harness did not plant fails the soak.
	Quarantined int
	// Injected is the number of damaged files the harness planted.
	Injected int
}

// Format renders the human report.
func (r *SoakReport) Format(w io.Writer) {
	fmt.Fprintf(w, "soak: %d jobs across %d kill/restart cycles\n", r.Jobs, r.Cycles)
	fmt.Fprintf(w, "  completed      %d/%d\n", r.Completed, r.Jobs)
	fmt.Fprintf(w, "  exactly-once   %d duplicate engine searches (%d total searches)\n", r.DuplicateSearches, r.EngineSearches)
	fmt.Fprintf(w, "  recovery       %d jobs resumed from the store across reboots\n", r.Resumed)
	fmt.Fprintf(w, "  store          %d damaged files quarantined (%d planted by the harness)\n", r.Quarantined, r.Injected)
}

// soakDaemon is one daemon incarnation: a Server plus its HTTP front.
type soakDaemon struct {
	srv *Server
	hs  *http.Server
}

// kill severs every client connection first (the crash the clients see),
// then stops the workers. In-flight engine runs are canceled and their jobs
// revert to pending on disk — exactly the state a real crash leaves behind.
func (d *soakDaemon) kill() {
	_ = d.hs.Close()
	d.srv.Close()
}

// Soak is the crash-recovery acceptance harness behind `autopiped -soak` and
// `make soak-smoke`: it streams distinct plan jobs at a store-backed daemon
// while killing and restarting it every cycle (same address, so client
// retries reconnect), planting torn and truncated store files before each
// reboot. It proves three invariants no interleaving may break:
//
//  1. Exactly-once: a result that was durable at a boot is never searched
//     again — replay re-seeds the cache, so restarts cost zero duplicate
//     engine work.
//  2. Full completion: every job in the stream ends with a durable result
//     despite the crashes, because the client's retry/backoff machinery and
//     the daemon's store replay meet in the middle.
//  3. Store integrity: every quarantined file is one the harness planted;
//     the daemon's atomic writes never produce a corrupt document, and a
//     boot over planted damage still loads every intact job.
//
// Violations return an error wrapping errdefs.ErrInternal, alongside the
// report gathered so far.
func Soak(ctx context.Context, opts SoakOptions) (*SoakReport, error) {
	if opts.StoreDir == "" {
		return nil, fmt.Errorf("%w: service: soak requires a store directory", errdefs.ErrBadConfig)
	}
	if opts.Cycles <= 0 {
		opts.Cycles = 3
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 4 * opts.Cycles
	}
	if opts.Jobs < opts.Cycles {
		opts.Jobs = opts.Cycles
	}
	out := opts.Progress
	if out == nil {
		out = io.Discard
	}
	rep := &SoakReport{Cycles: opts.Cycles, Jobs: opts.Jobs}

	// The exactly-once ledger: finished holds every key whose result was
	// durable at the most recent boot; the wrapped engine counts a duplicate
	// whenever it runs for one of them. planted/quarantinedNames feed the
	// store-integrity verdict.
	var (
		mu          sync.Mutex
		finished    = map[string]bool{}
		duplicates  int
		searches    int
		planted     = map[string]bool{}
		quarantined []string
	)
	boot := func(addr string) (*soakDaemon, string, error) {
		// Refresh the durable ledger from the store before the daemon eats
		// it: what is on disk as done now must never be searched again.
		st, err := openStore(opts.StoreDir)
		if err != nil {
			return nil, "", err
		}
		stored, q, err := st.Load()
		if err != nil {
			return nil, "", err
		}
		// This load performs the boot-time quarantine (the daemon's own
		// replay would otherwise); the damage is accounted here.
		rep.Quarantined += len(q)
		mu.Lock()
		quarantined = append(quarantined, q...)
		for _, sj := range stored {
			if sj.Job.State == client.StateDone && sj.Job.Key != "" {
				finished[sj.Job.Key] = true
			}
		}
		mu.Unlock()

		srv, err := New(Config{StoreDir: opts.StoreDir})
		if err != nil {
			return nil, "", err
		}
		real := srv.engine
		srv.engine = func(ctx context.Context, req client.SubmitRequest) (json.RawMessage, error) {
			if key, kerr := Key(req); kerr == nil {
				mu.Lock()
				searches++
				if finished[key] {
					duplicates++
				}
				mu.Unlock()
			}
			return real(ctx, req)
		}
		srv.Start()
		rep.Resumed += int(srv.Registry().Counter("service.jobs.resumed").Value())
		rep.Quarantined += int(srv.Registry().Counter("service.store.quarantined").Value())

		ln, err := listenSoak(addr)
		if err != nil {
			srv.Close()
			return nil, "", err
		}
		hs := &http.Server{Handler: Chaos(srv.Handler(), opts.Chaos, srv.Registry())}
		go func() { _ = hs.Serve(ln) }()
		return &soakDaemon{srv: srv, hs: hs}, ln.Addr().String(), nil
	}

	// Grab a loopback port once and keep the address stable across every
	// incarnation, so retrying clients reconnect to the reborn daemon.
	d, addr, err := boot("127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	defer func() { d.kill() }()

	c, err := client.New("http://"+addr,
		client.WithRetries(12),
		client.WithBackoff(20*time.Millisecond),
		client.WithMaxBackoff(300*time.Millisecond),
		client.WithCircuitBreaker(3, 150*time.Millisecond),
		client.WithTimeout(60*time.Second),
	)
	if err != nil {
		return rep, err
	}
	configs := loadgenConfigs(opts.Jobs)
	jobErrs := make([]error, opts.Jobs)
	fmt.Fprintf(out, "soak: %d jobs, %d kill/restart cycles, store %s\n", opts.Jobs, opts.Cycles, opts.StoreDir)

	next := 0
	for cycle := 1; cycle <= opts.Cycles; cycle++ {
		// This cycle's slice of the job stream.
		end := opts.Jobs * cycle / opts.Cycles
		var wg sync.WaitGroup
		for i := next; i < end; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, err := c.Plan(ctx, configs[i].model, configs[i].run, configs[i].cluster)
				jobErrs[i] = err
			}(i)
		}
		next = end

		// Let the batch get airborne, then pull the plug mid-flight.
		time.Sleep(5 * time.Millisecond)
		d.kill()
		names, derr := plantDamage(opts.StoreDir, cycle)
		rep.Injected += len(names)
		for _, name := range names {
			planted[name] = true
		}
		if derr != nil {
			return rep, derr
		}
		if d, _, err = boot(addr); err != nil {
			return rep, err
		}
		// Drain the batch against the reborn daemon before the next kill.
		wg.Wait()
		if ctx.Err() != nil {
			return rep, fmt.Errorf("service: soak canceled: %w", ctx.Err())
		}
		fmt.Fprintf(out, "  cycle %d/%d: killed and rebooted, %d jobs in flight survived\n", cycle, opts.Cycles, end-(opts.Jobs*(cycle-1)/opts.Cycles))
	}

	// Final sweep: every job in the stream must now have a durable result —
	// and serving it must cost zero new engine work (the durable ledger
	// catches any re-search as a duplicate).
	var violations []string
	for i, cfg := range configs {
		if jobErrs[i] != nil {
			violations = append(violations, fmt.Sprintf("job %d never completed: %v", i, jobErrs[i]))
			continue
		}
		if _, _, err := c.Plan(ctx, cfg.model, cfg.run, cfg.cluster); err != nil {
			violations = append(violations, fmt.Sprintf("job %d sweep failed: %v", i, err))
			continue
		}
		rep.Completed++
	}

	// Stop the final incarnation before inspecting the store, so the
	// integrity load cannot race an in-flight atomic write.
	d.kill()

	// Store integrity: every quarantined *final* document must be one the
	// harness planted — the daemon's atomic rename never tears a .json;
	// only .tmp fragments are legitimate crash wreckage.
	st, err := openStore(opts.StoreDir)
	if err != nil {
		return rep, err
	}
	if _, leftover, err := st.Load(); err != nil {
		violations = append(violations, fmt.Sprintf("final store load failed: %v", err))
	} else {
		rep.Quarantined += len(leftover)
		quarantined = append(quarantined, leftover...)
	}

	mu.Lock()
	rep.DuplicateSearches = duplicates
	rep.EngineSearches = searches
	mu.Unlock()
	if rep.DuplicateSearches != 0 {
		violations = append(violations, fmt.Sprintf("%d duplicate engine searches for already-durable keys", rep.DuplicateSearches))
	}
	for _, name := range quarantined {
		if !planted[name] && !strings.HasSuffix(name, ".tmp") {
			violations = append(violations, fmt.Sprintf("quarantined %s — the daemon tore a final document", name))
		}
	}
	if rep.Quarantined < rep.Injected {
		violations = append(violations, fmt.Sprintf("quarantined only %d of the %d planted damaged files", rep.Quarantined, rep.Injected))
	}
	rep.Format(out)
	if len(violations) > 0 {
		return rep, fmt.Errorf("%w: service: soak failed:\n  %s", errdefs.ErrInternal, strings.Join(violations, "\n  "))
	}
	return rep, nil
}

// listenSoak binds addr, retrying briefly — the previous incarnation's
// listener may take a beat to release the port.
func listenSoak(addr string) (net.Listener, error) {
	var lastErr error
	for i := 0; i < 50; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("service: soak rebind %s: %w", addr, lastErr)
}

// plantDamage writes a truncated job document and a torn .tmp into the
// store — the wreckage a crash mid-write leaves on a filesystem without
// atomic-rename durability. Returns the planted file names.
func plantDamage(dir string, cycle int) ([]string, error) {
	torn := fmt.Sprintf("torn-%d.json", cycle)
	if err := os.WriteFile(filepath.Join(dir, torn), []byte(`{"job": {"id": "job-`), 0o644); err != nil {
		return nil, fmt.Errorf("service: soak plant damage: %w", err)
	}
	tmp := fmt.Sprintf("torn-%d.json.tmp", cycle)
	if err := os.WriteFile(filepath.Join(dir, tmp), []byte("half a docum"), 0o644); err != nil {
		return []string{torn}, fmt.Errorf("service: soak plant damage: %w", err)
	}
	return []string{torn, tmp}, nil
}
