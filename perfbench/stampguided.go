package main

import (
	"fmt"
	"time"

	"gstm/internal/analyze"
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/progress"
	"gstm/internal/stamp"
	"gstm/internal/stamp/intruder"
	"gstm/internal/tl2"
	"gstm/internal/trace"
)

// Training and measurement seeds never meet: training draws negative
// content seeds, measurement non-negative ones.
func trainSeed(seed int64, run int) int64   { return -(seed<<16 | int64(run)) - 1 }
func measureSeed(seed int64, run int) int64 { return seed<<24 | int64(run) }

// stampProfileRuns is the number of intruder training runs per set-up.
// More runs do not make the model repeat: rare abort states keep
// appearing (16–19 states after 40 runs, 21–28 after 240), so instead
// the measurement rotates over the models of all set-ups.
const stampProfileRuns = 40

// modelTrainer runs the profile → model → analyze → prune pipeline and
// times each step at its public call.
type modelTrainer struct {
	m  *model.TSA
	ms modelSetup
}

func newModelTrainer(threads int) *modelTrainer { return &modelTrainer{m: model.New(threads)} }

// add folds one profiled run.
func (b *modelTrainer) add(col *trace.Collector) {
	c, a := col.Counts()
	b.ms.events += c + a
	b.ms.profileRuns++
	t0 := time.Now()
	seq, _ := col.Sequence()
	t1 := time.Now()
	b.m.AddRun(seq)
	b.ms.sequenceNs += int64(t1.Sub(t0))
	b.ms.buildNs += int64(time.Since(t1))
}

// finish analyzes and prunes the model. Guidance is installed whatever
// the verdict (the verdict is reported), so that two runs of the same
// code always run the same code.
func (b *modelTrainer) finish() modelSetup {
	t0 := time.Now()
	rep := analyze.Analyze(b.m, analyze.Options{})
	t1 := time.Now()
	pruned := b.m.Prune(model.DefaultTfactor)
	b.ms.analyzeNs = int64(t1.Sub(t0))
	b.ms.pruneNs = int64(time.Since(t1))
	b.ms.states, b.ms.prunedStates = b.m.NumStates(), pruned.NumStates()
	b.ms.encoded = pruned.EncodedSize()
	b.ms.metricPct, b.ms.fit = rep.Metric, rep.Fit
	b.ms.pruned = pruned
	fmt.Printf("# model: %d profile runs, %d states, %d after pruning; %s\n", b.ms.profileRuns, b.ms.states, b.ms.prunedStates, rep)
	return b.ms
}

// profileTracer is the tracer a profile run installs: the collector,
// timed when a set-up probe is given.
func profileTracer(col *trace.Collector, sp *probe) trace.Tracer {
	if sp == nil {
		return col
	}
	return timedTracer{inner: col, p: sp}
}

// stampGuided runs STAMP intruder, large input, on TL2 under a gate
// built from profiled medium-input runs. A unit is one whole run.
type stampGuided struct {
	seed  int64
	ctrls []*guide.Controller // one per untraced set-up, used in turn
	model modelSetup
	runs  int // measurement runs so far, for their seeds

	// Traced-round accounting.
	stats               *stateStats
	gate                guide.Stats
	commits, aborts, ro uint64
	escalations         uint64
	setupNs, validateNs int64
	lat                 *progress.LatencyRecorder
	tracedRuns          int
}

func newStampGuided(seed int64) *stampGuided {
	return &stampGuided{seed: seed, stats: newStateStats(workers), lat: progress.NewLatencyRecorder()}
}

func (w *stampGuided) latencyBlock() int { return threadBlock }
func (w *stampGuided) rootName() string  { return "thread" }
func (w *stampGuided) rootWorkers() int  { return 1 }

func (w *stampGuided) setup(sp *probe) error {
	b := newModelTrainer(workers)
	for i := 0; i < stampProfileRuns; i++ {
		s := tl2.New(tl2.Options{})
		col := trace.NewCollector()
		cfg := stamp.Config{Threads: workers, Size: stamp.Medium, Seed: trainSeed(w.seed, i)}
		if _, err := stamp.Run(s, intruder.New(), cfg, func() { s.SetTracer(profileTracer(col, sp)) }); err != nil {
			return err
		}
		b.add(col)
	}
	ms := b.finish()
	if sp == nil {
		w.model = ms
		w.ctrls = append(w.ctrls, guide.New(ms.pruned, guide.Options{}))
	}
	return nil
}

// timedWorkload wraps a STAMP kernel: with a probe it records a root
// span per thread run and times Setup and Validate.
type timedWorkload struct {
	stamp.Workload
	p                   *probe
	setupNs, validateNs int64
}

func (t *timedWorkload) Setup(s *tl2.STM, cfg stamp.Config) error {
	t0 := time.Now()
	err := t.Workload.Setup(s, cfg)
	t.setupNs = int64(time.Since(t0))
	return err
}

func (t *timedWorkload) Thread(s *tl2.STM, thread int) {
	if t.p == nil {
		t.Workload.Thread(s, thread)
		return
	}
	start := t.p.beginUnit(thread)
	t.Workload.Thread(s, thread)
	t.p.endUnit(thread, start)
}

func (t *timedWorkload) Validate() error {
	t0 := time.Now()
	err := t.Workload.Validate()
	t.validateNs = int64(time.Since(t0))
	return err
}

func (w *stampGuided) round(p *probe, t *tally) error {
	s := tl2.New(tl2.Options{})
	ctrl := w.ctrls[w.runs%len(w.ctrls)]
	var col *trace.Collector
	attach := func() {
		ctrl.Reset()
		if p == nil {
			s.SetTracer(ctrl)
			s.SetGate(ctrl)
			return
		}
		col = trace.NewCollector()
		s.SetTracer(timedTracer{inner: ctrl, col: col, p: p})
		s.SetGate(timedGate{inner: ctrl, p: p})
		s.SetMonitor(attemptMonitor{p: p})
		s.SetLatencyRecorder(w.lat)
	}
	cfg := stamp.Config{Threads: workers, Size: stamp.Large, Seed: measureSeed(w.seed, w.runs)}
	w.runs++
	tw := &timedWorkload{Workload: intruder.New(), p: p}
	before := ctrl.Stats()
	res, err := stamp.Run(s, tw, cfg, attach)
	t.units++
	if err != nil {
		t.failed++
		return nil
	}
	for th, d := range res.ThreadTimes {
		us := float64(d.Nanoseconds()) / 1e3
		t.addLatency(us)
		if p == nil {
			w.stats.perThread[th] = append(w.stats.perThread[th], us)
		}
	}
	if p == nil {
		return nil
	}
	w.tracedRuns++
	w.gate = addGateDelta(w.gate, before, ctrl.Stats())
	w.commits += s.Commits()
	w.aborts += s.Aborts()
	w.ro += s.ROCommits()
	w.escalations += s.ProgressStats().Escalations
	w.setupNs += tw.setupNs
	w.validateNs += tw.validateNs
	for th, n := range col.AbortCountByThread() {
		if int(th) < len(w.stats.aborts) {
			_ = w.stats.aborts[th].Add(n) // n ≥ 0
		}
	}
	seq, _ := col.Sequence()
	for _, k := range trace.Keys(seq) {
		w.stats.keys[k] = struct{}{}
	}
	return nil
}

func (w *stampGuided) check() error { return nil }

func (w *stampGuided) layers(l layerSet, p *probe) {
	n := float64(w.tracedRuns)
	guideLayers(l, p, w.gate, w.tracedRuns)
	runtimeLayers(l, "tl2", p, w.tracedRuns)
	l["tl2.commits_per_unit"] = ratio(float64(w.commits), n)
	l["tl2.aborts_per_commit"] = ratio(float64(w.aborts), float64(w.commits))
	l["tl2.ro_commit_frac"] = ratio(float64(w.ro), float64(w.commits))
	l["tl2.escalations_per_unit"] = ratio(float64(w.escalations), n)
	l["tl2.atomic_us_p99"] = w.lat.P99() * 1e6
	l["stamp.setup_ms_per_run"] = ratio(float64(w.setupNs)/1e6, n)
	l["stamp.validate_ms_per_run"] = ratio(float64(w.validateNs)/1e6, n)
	t := p.totals()
	out := t.ns[spanUnit] - t.ns[spanAdmit] - t.ns[spanCommit] - t.ns[spanAbort] - t.ns[spanBackoff]
	l["stamp.outside_tx_frac"] = ratio(float64(out), float64(t.ns[spanUnit]))
	w.model.report(l)
	w.stats.report(l)
}
