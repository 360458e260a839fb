package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the public function it calls. Spans of one operation share
// Op; Parent is the index of the enclosing span, or -1.
type span struct {
	Name       string
	Op         int64
	Parent     int
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the whole run; they are written out once
// the run ends. A nil *tracer records nothing, so traced and untraced runs
// share one code path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin starts a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end finishes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, op int64, parent int, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	t.add(name, op, parent, t0, t1)
	return t1.Sub(t0)
}

// layerStat aggregates the spans of one layer: calls, summed duration, and
// summed self time (duration minus the part its child spans cover).
type layerStat struct {
	Calls       int
	Total, Self time.Duration
}

// perCall is the mean self time of one call.
func (s *layerStat) perCall() time.Duration {
	if s == nil || s.Calls == 0 {
		return 0
	}
	return s.Self / time.Duration(s.Calls)
}

// layers folds the finished spans into per-layer statistics.
func (t *tracer) layers() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Calls++
		st.Total += d
		st.Self += d - child[i]
	}
	return out
}

// writeChrome writes the spans as a Chrome trace-event file (load it in
// chrome://tracing or Perfetto), one row per operation.
func (t *tracer) writeChrome(path string) error {
	if t == nil {
		return nil
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int64   `json:"tid"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			evs = append(evs, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Op})
		}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// budgetRow is one line of a layer-budget table: a layer's self time per
// operation and how it was obtained.
type budgetRow struct {
	Layer string
	MsOp  float64
	How   string
}

// printBudget renders the layer budget: every layer's self time per
// operation, their sum against the end-to-end time per operation, and the
// residual the layers do not account for.
func printBudget(w io.Writer, title string, rows []budgetRow, e2eMsOp float64) {
	fmt.Fprintf(w, "layer budget: %s\n", title)
	fmt.Fprintf(w, "  %-24s %12s %8s  %s\n", "layer", "self ms/op", "share", "source")
	var sum float64
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].MsOp > rows[j].MsOp })
	for _, r := range rows {
		sum += r.MsOp
		fmt.Fprintf(w, "  %-24s %12.4f %7.1f%%  %s\n", r.Layer, r.MsOp, 100*r.MsOp/e2eMsOp, r.How)
	}
	fmt.Fprintf(w, "  %-24s %12.4f %7.1f%%\n", "sum of layers", sum, 100*sum/e2eMsOp)
	fmt.Fprintf(w, "  %-24s %12.4f  residual %.4f ms/op (%.1f%%)\n", "end-to-end", e2eMsOp, e2eMsOp-sum, 100*(e2eMsOp-sum)/e2eMsOp)
}
