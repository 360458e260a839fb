package exec

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"autopipe/internal/config"
	"autopipe/internal/schedule"
	"autopipe/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// traceDoc mirrors the Chrome trace-event JSON document for assertions.
type traceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		ID   int            `json:"id"`
		BP   string         `json:"bp"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 3)
	r, err := Run(s, uniformCfg(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var slices int
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		slices++
		if e.Dur <= 0 {
			t.Errorf("bad slice %+v", e)
		}
		parts := strings.Split(e.Cat, ",")
		if len(parts) != 2 || (parts[0] != "fwd" && parts[0] != "bwd") ||
			(parts[1] != "warmup" && parts[1] != "steady" && parts[1] != "cooldown") {
			t.Errorf("slice %q has cat %q, want fwd|bwd,phase", e.Name, e.Cat)
		}
	}
	if want := 2 * 3 * 2; slices != want {
		t.Fatalf("%d slice events, want %d", slices, want)
	}
}

// TestChromeTraceEnriched checks the observability extras: metadata name
// events, flow arrows from senders to consumers (including the aggregated
// sliced sends feeding both halves), link-occupancy counter tracks, live
// memory counters, and deterministic (pid, tid, ts) ordering.
func TestChromeTraceEnriched(t *testing.T) {
	s, err := schedule.Sliced(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		VirtFwd: []float64{1, 1}, VirtBwd: []float64{2, 2},
		CommBytes: 1000,
		Network:   config.Network{Bandwidth: 1e6, Latency: 1e-3},
	}
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger := &MemoryLedger{StashBytes: []int64{4, 4}, StaticBytes: []int64{1, 2}}
	var sb strings.Builder
	if err := r.WriteChromeTraceWith(&sb, TraceOptions{Ledger: ledger, Schedule: s}); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}

	var threadNames, flowsS, flowsF, linkCounters, memCounters int
	flowIDs := map[int][2]int{} // id -> [starts, finishes]
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			threadNames++
		case e.Ph == "s":
			flowsS++
			c := flowIDs[e.ID]
			c[0]++
			flowIDs[e.ID] = c
		case e.Ph == "f":
			flowsF++
			if e.BP != "e" {
				t.Errorf("flow finish without bp=e: %+v", e)
			}
			c := flowIDs[e.ID]
			c[1]++
			flowIDs[e.ID] = c
		case e.Ph == "C" && strings.HasPrefix(e.Name, "link "):
			linkCounters++
		case e.Ph == "C" && strings.HasPrefix(e.Name, "mem "):
			memCounters++
		}
	}
	if threadNames != 2 {
		t.Errorf("%d thread_name events, want 2", threadNames)
	}
	// Cross-stage payloads: F0 agg (2 flows: both halves), F1 full, B0, B1
	// backwards = 5 consumer arrows, each paired with a start.
	if flowsS != 5 || flowsF != 5 {
		t.Errorf("flows = %d starts / %d finishes, want 5/5", flowsS, flowsF)
	}
	for id, c := range flowIDs {
		if c[0] != 1 || c[1] != 1 {
			t.Errorf("flow %d has %d starts, %d finishes", id, c[0], c[1])
		}
	}
	if linkCounters == 0 {
		t.Error("no link occupancy counter events")
	}
	if memCounters == 0 {
		t.Error("no live-memory counter events")
	}

	// Ordering: by (pid, tid, ts) with per-thread metadata leading.
	type pos struct {
		pid, tid int
		ts       int64
		meta     bool
	}
	var prev *pos
	for i, e := range doc.TraceEvents {
		cur := pos{e.PID, e.TID, e.TS, e.Ph == "M"}
		if prev != nil {
			ok := prev.pid < cur.pid ||
				(prev.pid == cur.pid && prev.tid < cur.tid) ||
				(prev.pid == cur.pid && prev.tid == cur.tid && (prev.meta || (!cur.meta && prev.ts <= cur.ts)))
			if !ok {
				t.Fatalf("events not sorted at %d: %+v then %+v", i, *prev, cur)
			}
		}
		prev = &cur
	}
}

// TestChromeTraceGolden pins the exact serialized trace of a small sliced
// run. Run `go test ./internal/exec -run Golden -update` after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	s, err := schedule.Sliced(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(s, Config{
		VirtFwd: []float64{1, 1}, VirtBwd: []float64{2, 2},
		CommBytes: 1000,
		Network:   config.Network{Bandwidth: 1e6, Latency: 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ledger := &MemoryLedger{StashBytes: []int64{4, 4}, StaticBytes: []int64{1, 2}}
	var buf bytes.Buffer
	if err := r.WriteChromeTraceWith(&buf, TraceOptions{Ledger: ledger, Schedule: s}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output drifted from golden file; rerun with -update if intentional\ngot:  %s\nwant: %s",
			buf.Bytes(), want)
	}
	// The golden document must be structurally valid trace-event JSON:
	// required keys present on every event, a known phase, and counter/flow
	// events carrying their mandatory extras.
	var doc traceDoc
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatalf("golden file is not valid JSON: %v", err)
	}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Name == "" || e.Dur <= 0 {
				t.Errorf("invalid slice event %+v", e)
			}
		case "M", "C":
			if len(e.Args) == 0 {
				t.Errorf("%s event without args: %+v", e.Ph, e)
			}
		case "s", "f":
			if e.ID == 0 {
				t.Errorf("flow event without id: %+v", e)
			}
		default:
			t.Errorf("unknown phase %q: %+v", e.Ph, e)
		}
	}
}

// TestCriticalPathSliced covers the sibling-half fallback: on a sliced
// schedule a backward's gradient producer and an aggregated forward's
// consumer reference the half that carried the payload.
func TestCriticalPathSliced(t *testing.T) {
	s, err := schedule.Sliced(4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := []float64{1, 1, 1, 1}
	b := []float64{2, 2, 2, 2}
	r, err := Run(s, Config{
		VirtFwd: f, VirtBwd: b,
		CommBytes: 1 << 20,
		Network:   config.Network{Bandwidth: 1e8, Latency: 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 2 {
		t.Fatalf("path of length %d", len(path))
	}
	if last := path[len(path)-1]; last.End != r.IterTime {
		t.Errorf("path ends at %g, want makespan %g", last.End, r.IterTime)
	}
	if first := path[0]; first.Start > r.Startup {
		t.Errorf("path starts at %g, after the startup moment %g", first.Start, r.Startup)
	}
	// The path must be causally ordered and, on this comm-bound config,
	// traverse at least one sliced half (the warmup is entirely sliced).
	sawHalf := false
	for i, tr := range path {
		if tr.Op.Half >= 0 {
			sawHalf = true
		}
		if i > 0 && tr.Start < path[i-1].Start {
			t.Errorf("path not causal at %d: %v then %v", i, path[i-1].Op, path[i].Op)
		}
	}
	if !sawHalf {
		t.Error("critical path of a fully-sliced warmup has no half ops")
	}
	sort.SliceStable(path, func(i, j int) bool { return path[i].Start < path[j].Start })
}

func TestCriticalPathSpansIteration(t *testing.T) {
	s, _ := schedule.OneFOneB(4, 8)
	cfg := uniformCfg(4, 1, 2)
	cfg.CommBytes = 1 << 20
	cfg.Network = config.Network{Bandwidth: 1e9, Latency: 1e-4}
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 2 {
		t.Fatalf("path of length %d", len(path))
	}
	first, last := path[0], path[len(path)-1]
	if first.Op.Kind != schedule.Fwd || first.Op.Micro != 0 || first.Op.Virt != 0 {
		t.Errorf("path starts at %v, want F0@s0", first.Op)
	}
	if last.End != r.IterTime {
		t.Errorf("path ends at %v, want makespan %v", last.End, r.IterTime)
	}
	for i := 1; i < len(path); i++ {
		if path[i].Start < path[i-1].End-1e-12 {
			// Comm delay is fine; causality inversion is not.
			if path[i].Start < path[i-1].Start {
				t.Errorf("path not causal at %d: %v then %v", i, path[i-1].Op, path[i].Op)
			}
		}
	}
}

// TestExecMatchesSimWithoutOverheads cross-validates the two timing models:
// with zero launch overhead, zero latency, and effectively infinite
// bandwidth, the discrete-event executor and the analytic simulator agree on
// the 1F1B iteration time exactly.
func TestExecMatchesSimWithoutOverheads(t *testing.T) {
	prop := func(seed uint8, pRaw, mRaw uint8) bool {
		p := 2 + int(pRaw)%5
		m := p + int(mRaw)%10
		rng := uint64(seed)*2654435761 + 1
		next := func() float64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return 1 + float64(rng%100)/25
		}
		f := make([]float64, p)
		b := make([]float64, p)
		for i := range f {
			f[i] = next()
			b[i] = 2 * f[i]
		}
		sr, err := sim.SimulateProfile(sim.StageProfile{Fwd: f, Bwd: b, Micro: m})
		if err != nil {
			return false
		}
		s, err := schedule.OneFOneB(p, m)
		if err != nil {
			return false
		}
		er, err := Run(s, Config{
			VirtFwd: f, VirtBwd: b,
			Network: config.Network{Bandwidth: 1e18, Latency: 0},
		})
		if err != nil {
			return false
		}
		diff := sr.IterTime - er.IterTime
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1e-9*(1+sr.IterTime)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSimUpperBoundsExecWithComm: the paper's simulator charges Comm on
// every cross-stage op regardless of which dependency binds, so with real
// communication it can only be at or above the executor's dependency-exact
// timing.
func TestSimUpperBoundsExecWithComm(t *testing.T) {
	prop := func(seed uint8) bool {
		p, m := 4, 8
		rng := uint64(seed) + 7
		next := func() float64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return 1 + float64(rng%50)/25
		}
		f := make([]float64, p)
		b := make([]float64, p)
		for i := range f {
			f[i] = next()
			b[i] = 3 * f[i]
		}
		const comm = 0.05
		sr, err := sim.SimulateProfile(sim.StageProfile{Fwd: f, Bwd: b, Comm: comm, Micro: m})
		if err != nil {
			return false
		}
		s, _ := schedule.OneFOneB(p, m)
		er, err := Run(s, Config{
			VirtFwd: f, VirtBwd: b,
			CommBytes: 1,
			Network:   config.Network{Bandwidth: 1e18, Latency: comm},
		})
		if err != nil {
			return false
		}
		return sr.IterTime >= er.IterTime-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
