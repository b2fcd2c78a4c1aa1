package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/debug"
	"testing"

	"gstm/internal/guide"
	"gstm/internal/libtm"
	"gstm/internal/model"
	"gstm/internal/stamp"
	"gstm/internal/stamp/intruder"
	"gstm/internal/synquake"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// checkPartition asserts the gate's accounting identity and that the
// probe timed every admission.
func checkPartition(t *testing.T, ctrl *guide.Controller, p *probe) {
	t.Helper()
	st := ctrl.Stats()
	if st.Admits == 0 {
		t.Fatal("no admissions: the wrapped gate was bypassed")
	}
	if got := st.ImmediateAdmits + st.Holds + st.ReadOnlyAdmits; got != st.Admits {
		t.Fatalf("Admits %d != ImmediateAdmits %d + Holds %d + ReadOnlyAdmits %d",
			st.Admits, st.ImmediateAdmits, st.Holds, st.ReadOnlyAdmits)
	}
	if n := p.totals().n[spanAdmit]; n != int64(st.Admits) {
		t.Fatalf("probe timed %d admissions, gate counted %d", n, st.Admits)
	}
}

func TestWrappedGuidedRunKeepsAdmitPartitionTL2(t *testing.T) {
	b := newModelTrainer(workers)
	for i := 0; i < 4; i++ {
		s := tl2.New(tl2.Options{})
		col := trace.NewCollector()
		cfg := stamp.Config{Threads: workers, Size: stamp.Small, Seed: trainSeed(1, i)}
		if _, err := stamp.Run(s, intruder.New(), cfg, func() { s.SetTracer(col) }); err != nil {
			t.Fatal(err)
		}
		b.add(col)
	}
	ctrl := guide.New(b.finish().pruned, guide.Options{})
	p := newProbe()
	for run := 0; run < 3; run++ {
		s := tl2.New(tl2.Options{})
		attach := func() {
			ctrl.Reset()
			s.SetTracer(timedTracer{inner: ctrl, col: trace.NewCollector(), p: p})
			s.SetGate(timedGate{inner: ctrl, p: p})
			s.SetMonitor(attemptMonitor{p: p})
		}
		cfg := stamp.Config{Threads: workers, Size: stamp.Small, Seed: measureSeed(1, run)}
		if _, err := stamp.Run(s, &timedWorkload{Workload: intruder.New(), p: p}, cfg, attach); err != nil {
			t.Fatal(err)
		}
		if got, want := p.totals().n[spanCommit], int64(0); got == want {
			t.Fatal("monitor saw no committed attempts")
		}
	}
	checkPartition(t, ctrl, p)
}

func TestWrappedGuidedRunKeepsAdmitPartitionLibTM(t *testing.T) {
	cfg := synquake.Config{Players: 64, MapSize: 64, Threads: workers, Scenario: "4worst_case", Seed: trainSeed(1, 0)}
	g, err := synquake.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	g.STM().SetTracer(col)
	if _, err := g.RunFrames(50); err != nil {
		t.Fatal(err)
	}
	seq, _ := col.Sequence()
	ctrl := guide.New(model.Build(workers, seq).Prune(model.DefaultTfactor), guide.Options{})
	cfg.Scenario, cfg.Seed = "4quadrants", measureSeed(1, 0)
	if g, err = synquake.New(cfg); err != nil {
		t.Fatal(err)
	}
	p := newProbe()
	s := g.STM()
	s.SetTracer(timedTracer{inner: ctrl, p: p})
	s.SetGate(timedGate{inner: ctrl, p: p})
	s.SetMonitor(attemptMonitor{p: p})
	for f := 0; f < 20; f++ {
		start := p.beginShared(workers)
		if _, err := g.RunFrames(1); err != nil {
			t.Fatal(err)
		}
		p.endShared(start)
	}
	checkPartition(t, ctrl, p)
}

// recordingGate counts what the wrapper forwards.
type recordingGate struct{ admits, irrevocable, sheds int }

func (r *recordingGate) Admit(tts.Pair)            { r.admits++ }
func (r *recordingGate) AdmitIrrevocable(tts.Pair) { r.irrevocable++ }
func (r *recordingGate) NoteShed(tts.Pair)         { r.sheds++ }

func TestTimedGateForwardsOptionalInterfaces(t *testing.T) {
	inner := &recordingGate{}
	var tg tl2.Gate = timedGate{inner: inner, p: newProbe()}
	var lg libtm.Gate = timedGate{inner: inner, p: newProbe()}
	pr := tts.Pair{Tx: 1, Thread: 0}
	for _, g := range []any{tg, lg} {
		ig, ok := g.(tl2.IrrevocableGate)
		if !ok {
			t.Fatal("wrapped gate lost tl2.IrrevocableGate")
		}
		sg, ok := g.(tl2.ShedGate)
		if !ok {
			t.Fatal("wrapped gate lost tl2.ShedGate")
		}
		if _, ok := g.(libtm.IrrevocableGate); !ok {
			t.Fatal("wrapped gate lost libtm.IrrevocableGate")
		}
		if _, ok := g.(libtm.ShedGate); !ok {
			t.Fatal("wrapped gate lost libtm.ShedGate")
		}
		ig.AdmitIrrevocable(pr)
		sg.NoteShed(pr)
		g.(tl2.Gate).Admit(pr)
	}
	if *inner != (recordingGate{admits: 2, irrevocable: 2, sheds: 2}) {
		t.Fatalf("forwarded %+v, want 2 of each", *inner)
	}
}

func TestSpanBreakdownSumsToUnit(t *testing.T) {
	p := newProbe()
	tp := &p.th[0]
	p.record(tp, spanUnit, 0, 1000)
	p.record(tp, spanAdmit, 10, 110)
	p.record(tp, spanAbort, 110, 310)
	p.record(tp, spanBackoff, 310, 360)
	p.record(tp, spanCommit, 360, 760)
	l := layerSet{}
	breakdown(l, p, 1)
	sum := l["breakdown.admit_us"] + l["breakdown.commit_us"] + l["breakdown.abort_us"] +
		l["breakdown.backoff_us"] + l["breakdown.outside_us"]
	if math.Abs(sum-l["breakdown.unit_us"]) > 1e-12 || math.Abs(l["breakdown.outside_us"]-0.25) > 1e-12 {
		t.Fatalf("breakdown %v does not sum to the unit", l)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{200, 0.95}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the
// metric lists in this package in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the benchmark %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, e := range endToEnd {
		if spec.EndToEnd[i].Name != e.name || spec.EndToEnd[i].Unit != e.unit {
			t.Errorf("end_to_end[%d] = %+v, want %s %s", i, spec.EndToEnd[i], e.name, e.unit)
		}
	}
	for i, e := range perLayer {
		if spec.PerLayer[i].Name != e.name || spec.PerLayer[i].Unit != e.unit {
			t.Errorf("per_layer[%d] = %+v, want %s %s", i, spec.PerLayer[i], e.name, e.unit)
		}
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
}

func TestCalibrationRestoresGCAndScalesByMedian(t *testing.T) {
	old := debug.SetGCPercent(137)
	defer debug.SetGCPercent(old)
	var m speedMeter
	for i := 0; i < calWindow+3; i++ {
		m.calibrate()
	}
	if got := debug.SetGCPercent(137); got != 137 {
		t.Fatalf("GC percent after calibrate = %d, want 137 restored", got)
	}
	if len(m.recent) != calWindow {
		t.Fatalf("kept %d calibrations, want the latest %d", len(m.recent), calWindow)
	}
	m.recent = []float64{8, 2, 100}
	if f := m.factor(); f != calRefNs/8 {
		t.Fatalf("factor = %v, want calRefNs over the median, %v", f, calRefNs/8)
	}
}
