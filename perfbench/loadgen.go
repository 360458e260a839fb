package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// shot is one scheduled request of an open loop: when it is due, relative
// to the start of its rung, and which input it carries.
type shot struct {
	due time.Duration
	cfg int
}

// result is the outcome of one shot.
type result struct {
	done time.Time     // when the response arrived
	lat  time.Duration // done minus start: the wait a stall imposes counts
	late time.Duration // when a worker picked the shot up, minus due
	wait time.Duration // when a worker picked the shot up, minus start
	err  error
	// answered reports that a failed request got an HTTP response from the
	// daemon (rather than a transport error).
	answered bool
}

// openLoop sends shots on their schedule, regardless of whether earlier
// requests finished, from a fixed set of workers (each holds at most one
// connection). When every worker is busy the schedule falls behind: the
// shot waits, its lateness grows, and its latency, timed from when it was
// due, includes the wait.
//
// One delay is the generator's own, not the system's: a timer armed for a
// due time fires up to a millisecond late while the process is idle (Go's
// poller sleeps in whole milliseconds). A shot the generator had to sleep
// for is therefore timed from when its timer fired; a shot already due when
// the generator reached it is timed from its due time. Lateness reports
// both delays.
type openLoop struct {
	workers int
	// send performs shot k and must set result.done when the response is in.
	send func(ctx context.Context, k int) result
}

// rungRun is one rung of the rate ladder as it ran.
type rungRun struct {
	rate       float64
	shots      []shot
	results    []result
	elapsed    time.Duration // rung start to last response
	backlogMax int           // most shots due but not yet picked up
	backlogEnd int           // the same, after the last shot was picked up
}

func (l openLoop) run(ctx context.Context, rate float64, shots []shot) rungRun {
	out := rungRun{rate: rate, shots: shots, results: make([]result, len(shots))}
	work := make(chan int)
	start := time.Now()
	// starts[k] is written by the dispatcher before it hands shot k over.
	starts := make([]time.Time, len(shots))
	var wg sync.WaitGroup
	wg.Add(l.workers)
	for w := 0; w < l.workers; w++ {
		go func() {
			defer wg.Done()
			for k := range work {
				picked := time.Now()
				r := l.send(ctx, k)
				r.late = picked.Sub(start.Add(shots[k].due))
				r.wait = picked.Sub(starts[k])
				r.lat = r.done.Sub(starts[k])
				out.results[k] = r
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
loop:
	for k, s := range shots {
		starts[k] = start.Add(s.due)
		if d := time.Until(starts[k]); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
				starts[k] = time.Now()
			case <-ctx.Done():
				break loop
			}
		}
		select {
		case work <- k:
		case <-ctx.Done():
			break loop
		}
		now := time.Since(start)
		dueBy := sort.Search(len(shots), func(i int) bool { return shots[i].due > now })
		backlog := max(dueBy-k-1, 0)
		out.backlogMax = max(out.backlogMax, backlog)
		out.backlogEnd = backlog
	}
	close(work)
	wg.Wait()
	for _, r := range out.results {
		if d := r.done.Sub(start); d > out.elapsed {
			out.elapsed = d
		}
	}
	return out
}

// uniformShots schedules n shots at a constant rate.
func uniformShots(n int, rate float64, cfg func(k int) int) []shot {
	out := make([]shot, n)
	for k := range out {
		out[k] = shot{due: time.Duration(float64(k) / rate * float64(time.Second)), cfg: cfg(k)}
	}
	return out
}

// rungStats summarizes a rung against its latency limit.
type rungStats struct {
	Rate       float64 `json:"rate_rps"`
	N          int     `json:"requests"`
	Failed     int     `json:"failed"`
	Throughput float64 `json:"completed_rps"`
	P50        float64 `json:"p50_ms"`
	Tail       float64 `json:"tail_ms"`
	LateTail   float64 `json:"lateness_tail_ms"`
	BacklogMax int     `json:"backlog_max"`
	BacklogEnd int     `json:"backlog_end"`
	// OK: at the tail percentile the limit holds with failures counted as
	// misses, and the backlog drained by the end of the rung.
	OK bool `json:"ok"`
}

func summarize(r rungRun, tailPct, limitMs float64, workers int) rungStats {
	s := rungStats{Rate: r.rate, N: len(r.results), BacklogMax: r.backlogMax, BacklogEnd: r.backlogEnd}
	lats := make([]float64, 0, len(r.results))
	lates := make([]float64, 0, len(r.results))
	misses := 0
	for _, x := range r.results {
		lats = append(lats, ms(x.lat))
		lates = append(lates, ms(x.late))
		if x.err != nil {
			s.Failed++
		}
		if x.err != nil || ms(x.lat) > limitMs {
			misses++
		}
	}
	s.P50 = percentile(lats, 50)
	s.Tail = percentile(lats, tailPct)
	s.LateTail = percentile(lates, tailPct)
	if r.elapsed > 0 {
		s.Throughput = float64(s.N-s.Failed) / r.elapsed.Seconds()
	}
	s.OK = misses <= samplesBeyond(s.N, tailPct) && r.backlogEnd <= workers
	return s
}

// maxOKRate is the highest ladder rate at which that rung and every lower
// one met the limit; 0 if the lowest did not.
func maxOKRate(rungs []rungStats) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.OK {
			break
		}
		best = r.Rate
	}
	return best
}
