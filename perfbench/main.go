// Command perfbench is the end-to-end benchmark of the AutoPipe reproduction.
// It drives one workload through the public entry points (Planner.Plan and
// Evaluate in process, the autopiped service over loopback HTTP through the
// client package, and the pipelined trainer), checks the outputs, and prints
// the workload's metrics as one JSON object on the last line of stdout.
//
//	perfbench --workload plan-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run also times the calls into each layer and prints the
// per-layer metrics and a layer-budget table instead of the end-to-end
// metrics. See README.md in this directory.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric names and units. endToEnd is what --trace 0 reports; perLayer is
// what --trace 1 reports. A layer a workload does not exercise reports 0.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"throughput_ops_s", "1/s"},
		{"latency_ms_p50", "ms"},
		{"latency_ms_tail", "ms"},
		{"alloc_kb_per_op", "KiB"},
		{"peak_rss_mb", "MiB"},
	}
	perLayer = []metricDef{
		{"fail_ratio", "ratio"},
		{"max_ok_rate_rps", "1/s"},
		{"plan_iter_ms_geomean", "ms"},
		{"trace.overhead_ops_s", "1/s"},
		{"model.build_us", "us"},
		{"partition.balance_us", "us"},
		{"partition.key_ns", "ns"},
		{"sim.simulate_us", "us"},
		{"sim.calls_per_plan", "count"},
		{"core.candidates_per_plan", "count"},
		{"core.sim_cache_hit_ratio", "ratio"},
		{"core.depths_pruned_per_plan", "count"},
		{"core.seed_ms", "ms"},
		{"core.adjust_ms", "ms"},
		{"core.move_ms", "ms"},
		{"core.residual_ms", "ms"},
		{"memory.fits_us", "us"},
		{"slicer.solve_us", "us"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"exec.evaluate_us", "us"},
		{"client.roundtrip_us", "us"},
		{"client.encode_us", "us"},
		{"client.decode_us", "us"},
		{"service.handler_us", "us"},
		{"transport.overhead_us", "us"},
		{"service.key_us", "us"},
		{"service.conns_per_kreq", "count"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.engine_ms", "ms"},
		{"service.searches_per_distinct", "ratio"},
		{"service.singleflight_shared_per_kreq", "count"},
		{"service.refused_ratio", "ratio"},
		{"loadgen.lateness_ms_tail", "ms"},
		{"loadgen.backlog_max", "count"},
		{"train.pipeline_step_ms", "ms"},
		{"train.serial_step_ms", "ms"},
		{"train.forward_ms", "ms"},
		{"train.optimizer_ms", "ms"},
		{"train.data_ms", "ms"},
		{"train.pipeline_speedup", "ratio"},
		{"sim.bubble_share", "ratio"},
	}
)

type metricDef struct{ Name, Unit string }

// options is what every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	out     io.Writer // human-readable report lines
}

func (o options) measure() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// outcome is what a workload reports: operation counts, every metric it
// measured, its parameters for the stamp, and any failed correctness check.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	params            map[string]any
	failures          []string
	tracer            *tracer
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, params: map[string]any{}}
}

// check records a correctness failure when ok is false.
func (oc *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		oc.failures = append(oc.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"plan-cold":    planCold,
	"service-hot":  serviceHot,
	"service-cold": serviceCold,
	"train-step":   trainStep,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: plan-cold, service-hot, service-cold, train-step")
	seed := fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fl.Float64("seconds", 10, "measurement time in seconds")
	traceFlag := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (plan-cold|service-hot|service-cold|train-step), --seconds > 0, --trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: stdout}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+150*time.Second)
	defer cancel()

	oc, err := wl(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "process high-water RSS %.1f MiB (set-up included)\n", peakRSSMiB())
	if oc.tracer != nil {
		path := filepath.Join(buildDir(), "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := oc.tracer.writeChrome(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	printStamp(stdout, *workload, o, oc.params)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(oc.failures) == 0, oc.attempted, oc.failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := oc.metrics[d.Name]
		if !ok && !o.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *workload, d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	printMetrics(stdout, oc.metrics)
	for _, f := range oc.failures {
		fmt.Fprintf(stderr, "perfbench: correctness check failed: %s\n", f)
	}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operation\n", *workload)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printMetrics prints every metric the workload measured, by name and unit.
func printMetrics(w io.Writer, ms map[string]float64) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", n, ms[n], units[n])
	}
}

// printStamp prints the host, source, seed and workload parameters the run's
// numbers belong to.
func printStamp(w io.Writer, workload string, o options, params map[string]any) {
	stamp := map[string]any{
		"workload":   workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpu":        cpuModel(),
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
		"params":     params,
	}
	data, _ := json.Marshal(stamp) // only plain values; cannot fail
	fmt.Fprintf(w, "stamp %s\n", data)
}

// buildDir is where build outputs and trace files go: the directory the
// benchmark harness names, else .bench_build under the working directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD from a .git directory in the working directory, or
// reports that the checkout has none.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory, so runs of a checkout without git history still name the code
// they measured.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler samples the resident set size while a phase runs, so the
// phase's memory is reported without the set-up before it.
type rssSampler struct {
	stop chan struct{}
	done chan []point
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []point, 1)}
	go func() {
		var out []point
		start := time.Now()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			out = append(out, point{time.Since(start), rssMiB()})
			select {
			case <-s.stop:
				s.done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the 90th percentile of the phase's
// resident memory samples. The single highest sample is not used: the
// resident set swings by half between garbage-collection cycles, so it
// mostly records when the last cycle ran.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	samples := <-s.done
	xs := make([]float64, len(samples))
	for i, x := range samples {
		xs[i] = x.v
	}
	return percentile(xs, 90)
}

// rssMiB is the current resident set size.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	fmt.Sscanf(string(data), "%g %g", &size, &resident)
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// rtSample is a snapshot of the runtime counters a phase is charged with.
type rtSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{val(0), val(1), val(2), val(3)}
}

// runtimeDelta charges the runtime counters between two samples to ops
// operations.
type runtimeDelta struct {
	kbPerOp, allocsPerOp, gcShare float64
}

func deltaRuntime(a, b rtSample, ops int) runtimeDelta {
	if ops < 1 {
		ops = 1
	}
	var d runtimeDelta
	d.kbPerOp = (b.allocBytes - a.allocBytes) / 1024 / float64(ops)
	d.allocsPerOp = (b.allocObjects - a.allocObjects) / float64(ops)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}
