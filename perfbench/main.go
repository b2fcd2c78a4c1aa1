// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every unit of work, and prints
// the user-visible metrics (untraced run) or the per-layer metrics of a
// traced run, ending with one JSON line:
//
//	perfbench -workload stamp-guided -seed 1 -seconds 15 -trace 0
//
// Workloads: stamp-guided, synquake-guided, kv-mix, or all (each in
// turn). README.md in this directory gives the reasons for each
// workload and which layer each metric belongs to. bash
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the thread (or client goroutine) count of every workload.
const workers = 2

// setupReps is how many times the untraced run sets up; setup_s is the
// median.
const setupReps = 5

// threadBlock is the latency block of the workloads whose unit takes
// milliseconds (thread runs, frames). On a shared host a worker that
// loses its CPU for a time slice slows a few percent of such units
// while the host is busy: over four 25 s SynQuake runs that moved the
// per-block 0.99 quantile of 1000 frames by up to 60%, and the 0.95
// quantile of 200 frames by 12%. A block of 200 supports 0.95.
const threadBlock = 200

// workload is one benchmark scenario.
type workload interface {
	// setup builds a fresh system under test, replacing any earlier
	// one. sp, when non-nil, times the tracer hooks used while
	// setting up (the profile collector).
	setup(sp *probe) error
	// round runs one batch of units into t; p, when non-nil, attaches
	// the probes for the batch.
	round(p *probe, t *tally) error
	// check validates what only the end state can show.
	check() error
	// latencyBlock is how many consecutive unit latencies form one
	// block for the latency percentiles.
	latencyBlock() int
	// rootName names the root span; rootWorkers is how many worker
	// threads share one root span.
	rootName() string
	rootWorkers() int
	// layers reports the per-layer metrics of the traced rounds.
	layers(l layerSet, p *probe)
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "stamp-guided":
		return newStampGuided(seed), nil
	case "synquake-guided":
		return newSynquakeGuided(seed), nil
	case "kv-mix":
		return newKVMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want stamp-guided, synquake-guided, kv-mix or all)", name)
}

var workloadNames = []string{"stamp-guided", "synquake-guided", "kv-mix"}

// tally accumulates the units of one mode (untraced or traced).
//
// Latency percentiles are taken per block of consecutive units and the
// median over blocks is reported: a burst of interference from the rest
// of the host then moves a block or two, not the reported value.
type tally struct {
	units, failed int
	wall, cpu     time.Duration // scaled
	rawWall       time.Duration // as measured
	alloc         uint64
	heap          []float64 // live heap after each round, MB

	blockSize  int
	pending    []float64 // latencies of the last round, µs
	block      []float64 // latencies of the open block
	p50s, p99s []float64 // per closed block
	samples    int
}

func newTally(blockSize int) *tally { return &tally{blockSize: blockSize} }

// addLatency records one unit's latency in µs.
func (t *tally) addLatency(us float64) { t.pending = append(t.pending, us) }

// settle moves the last round's latencies, scaled by f, into blocks.
// runWorkload calls it outside the timed part of a round.
func (t *tally) settle(f float64) {
	for _, v := range t.pending {
		t.samples++
		t.block = append(t.block, v*f)
		if len(t.block) == t.blockSize {
			t.closeBlock()
		}
	}
	t.pending = t.pending[:0]
}

func (t *tally) closeBlock() {
	t.p50s = append(t.p50s, percentile(t.block, 0.5))
	t.p99s = append(t.p99s, percentile(t.block, tailQuantile(len(t.block))))
	t.block = t.block[:0]
}

// latency returns the median over blocks of the block p50 and tail
// quantile. A run too short for one whole block uses what it has.
func (t *tally) latency() (p50, p99 float64) {
	if len(t.p50s) == 0 && len(t.block) > 0 {
		t.closeBlock()
	}
	return median(t.p50s), median(t.p99s)
}

// usage is a process resource reading.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	live  uint64 // heap marked live by the last collection
}

var usageSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(usageSamples)
	return usage{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: usageSamples[0].Value.Uint64(),
		live:  usageSamples[1].Value.Uint64(),
	}
}

// addUsage adds one round's usage; f scales its times.
func (t *tally) addUsage(a, b usage, f float64) {
	wall, cpu := b.at.Sub(a.at), b.cpu-a.cpu
	t.rawWall += wall
	t.wall += time.Duration(float64(wall) * f)
	t.cpu += time.Duration(float64(cpu) * f)
	t.alloc += b.alloc - a.alloc
	t.heap = append(t.heap, float64(b.live)/(1<<20))
}

// liveHeapMB forces two collections (the second empties sync.Pool
// victim caches) and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readUsage().live) / (1 << 20)
}

// endToEnd lists the user-visible metrics in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_us_p50", "us"},
	{"latency_us_p99", "us"},
	{"cpu_us_per_unit", "us"},
	{"alloc_b_per_unit", "B"},
	{"heap_mb", "MB"},
}

// e2e computes the end-to-end metrics of one mode. heap_mb is the
// median over rounds of the live heap the last collection found, less
// heapBase, what the benchmark itself held before setting up.
func e2e(t *tally, setup, heapBase float64) map[string]float64 {
	n := float64(t.units)
	p50, p99 := t.latency()
	return map[string]float64{
		"setup_s":          setup,
		"work_per_s":       ratio(n, t.wall.Seconds()),
		"latency_us_p50":   p50,
		"latency_us_p99":   p99,
		"cpu_us_per_unit":  ratio(float64(t.cpu.Microseconds()), n),
		"alloc_b_per_unit": ratio(float64(t.alloc), n),
		"heap_mb":          median(t.heap) - heapBase,
	}
}

// result is one workload's outcome.
type result struct {
	correct          bool
	attempted, fails int
	metrics          map[string]float64
	units            map[string]string
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
}

// spansDir receives the traced run's span files, relative to the
// checkout the benchmark runs from.
const spansDir = ".bench_build/spans"

func runWorkload(name string, o options) (result, error) {
	if workers > runtime.NumCPU() {
		return result{}, fmt.Errorf("%s needs %d workers but nproc is %d: refusing to oversubscribe", name, workers, runtime.NumCPU())
	}
	w, err := newWorkload(name, o.seed)
	if err != nil {
		return result{}, err
	}
	header(name, o)
	// The benchmark's own buffers exist before heapBase is read, so
	// heap_mb leaves them out in both modes.
	plain, traced := newTally(w.latencyBlock()), newTally(w.latencyBlock())
	var p *probe
	if o.traced {
		p = newProbe()
	}
	heapBase := liveHeapMB()

	// The first calibration of a process pays for starting a thread and
	// faulting its table in; it is not a reading.
	new(speedMeter).calibrate()

	// Set-up: the untraced ones build the system under test (the guided
	// workloads keep the gate of each, kv-mix the last set built). A
	// traced run then times one more with the profile collector wrapped;
	// a gate it trains is not used.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := scaledSetup(w, nil)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d)
	}
	fmt.Printf("# setup_s runs (scaled): %s\n", joinFloats(setups, "%.4f"))
	var tracedSetup float64
	var sp *probe
	if o.traced {
		sp = newProbe()
		var err error
		if tracedSetup, err = scaledSetup(w, sp); err != nil {
			return result{}, fmt.Errorf("traced setup: %w", err)
		}
	}
	// Collect set-up garbage now: the measurement then starts from the
	// system's own heap, and the first live-heap reading is not a
	// set-up leftover.
	runtime.GC()

	// Measurement: rounds back to back until the time is up, each after
	// a calibration (calib.go). A traced run alternates untraced and
	// traced rounds, so both modes see the same host conditions and the
	// difference is the tracing overhead.
	var speed speedMeter
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		t, rp := plain, (*probe)(nil)
		if o.traced && i%2 == 1 {
			t, rp = traced, p
		}
		speed.calibrate()
		f := speed.factor()
		before := readUsage()
		if err := w.round(rp, t); err != nil {
			return result{}, err
		}
		t.addUsage(before, readUsage(), f)
		t.settle(f)
	}

	fmt.Printf("# speed factor (scaled time = measured × factor): median %.4f over %d rounds\n", median(speed.all), len(speed.all))
	res := result{metrics: map[string]float64{}, units: map[string]string{}}
	checkErr := w.check()
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: end-state check: %v\n", name, checkErr)
	}
	res.correct = checkErr == nil && plain.failed == 0 && traced.failed == 0
	res.attempted = plain.units + traced.units
	res.fails = plain.failed + traced.failed

	if !o.traced {
		m := e2e(plain, median(setups), heapBase)
		for _, e := range endToEnd {
			res.metrics[e.name], res.units[e.name] = m[e.name], e.unit
		}
		printEndToEnd(m, plain)
		return res, nil
	}

	l := layerSet{}
	w.layers(l, p)
	breakdown(l, p, w.rootWorkers())
	st := sp.totals()
	l["trace.record_ns_per_event"] = ratio(float64(st.observeNs), float64(st.observeN))

	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.csv", name, o.seed))
	if err := p.writeSpans(path, w.rootName()); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	pt := p.totals()
	fmt.Printf("# spans: %d kept in %s, %d counted only\n", pt.spans, path, pt.dropped)
	mu := e2e(plain, median(setups), heapBase)
	mt := e2e(traced, tracedSetup, heapBase)
	for _, e := range endToEnd {
		l["overhead."+e.name+"_pct"] = 100 * ratio(mt[e.name]-mu[e.name], mu[e.name])
	}
	fmt.Printf("# untraced rounds (%d units):\n", plain.units)
	printEndToEnd(mu, plain)
	fmt.Printf("# traced rounds (%d units):\n", traced.units)
	printEndToEnd(mt, traced)
	for _, pl := range perLayer {
		v, ok := l[pl.name]
		if !ok {
			v = 0 // a layer this workload does not use
		}
		res.metrics[pl.name], res.units[pl.name] = v, pl.unit
	}
	for name := range l {
		if _, ok := res.metrics[name]; !ok {
			return result{}, fmt.Errorf("per-layer metric %q is not in the list", name)
		}
	}
	printLayers(res)
	return res, nil
}

// scaledSetup runs one set-up and returns its time in seconds, scaled
// by calibrations just before and after it.
func scaledSetup(w workload, sp *probe) (float64, error) {
	var m speedMeter
	m.calibrate()
	t0 := time.Now()
	err := w.setup(sp)
	d := time.Since(t0).Seconds()
	m.calibrate()
	return d * m.factor(), err
}

// header stamps the host and the run parameters on the output.
func header(name string, o options) {
	trace := 0
	if o.traced {
		trace = 1
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d workers=%d nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		name, o.seed, o.seconds, trace, workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func printEndToEnd(m map[string]float64, t *tally) {
	notes := map[string]string{
		"latency_us_p50": fmt.Sprintf("median of %d blocks of %d; %d samples", len(t.p50s), t.blockSize, t.samples),
		"latency_us_p99": fmt.Sprintf("q=%.4f per block", tailQuantile(t.blockSize)),
		"work_per_s":     fmt.Sprintf("%d units in %.2f s measured, %.2f s scaled", t.units, t.rawWall.Seconds(), t.wall.Seconds()),
	}
	for _, e := range endToEnd {
		fmt.Printf("%-22s %14.4f %-6s %s\n", e.name, m[e.name], e.unit, notes[e.name])
	}
	fmt.Printf("%-22s %14.4f %-6s %d of %d units\n", "failed_frac", ratio(float64(t.failed), float64(t.units)), "frac", t.failed, t.units)
}

func printLayers(r result) {
	for _, pl := range perLayer {
		fmt.Printf("%-32s %16.4f %s\n", pl.name, r.metrics[pl.name], pl.unit)
	}
}

// output is the last line's JSON shape.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "stamp-guided, synquake-guided, kv-mix or all")
		seed    = flag.Int64("seed", 1, "input seed (non-negative)")
		seconds = flag.Float64("seconds", 15, "measurement time per workload")
		traceOn = flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	)
	flag.Parse()
	if *name == "" || *seed < 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <name> -seed <n≥0> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceOn == 1}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	out := output{Correct: true, Metrics: map[string]metricJSON{}}
	for _, n := range names {
		r, err := runWorkload(n, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		out.Failed += r.fails
		keys := make([]string, 0, len(r.metrics))
		for k := range r.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := r.metrics[k]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			key := k
			if len(names) > 1 {
				key = n + "." + k
			}
			out.Metrics[key] = metricJSON{Value: v, Unit: r.units[k]}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: validation failed")
		os.Exit(1)
	}
}
