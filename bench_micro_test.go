package gstm

// Micro-benchmarks of the STM primitives and ablation benchmarks for
// the design knobs DESIGN.md calls out: the Tfactor threshold (paper
// Section VI explored 1..10 and settled on 4), the guide's k escape
// bound, and the LibTM detection/resolution mode matrix.

import (
	"testing"

	"gstm/internal/guide"
	"gstm/internal/harness"
	"gstm/internal/libtm"
	"gstm/internal/stamp"
	"gstm/internal/synquake"
	"gstm/internal/tl2"
)

func BenchmarkTL2UncontendedRMW(b *testing.B) {
	s := tl2.New(tl2.Options{YieldEvery: -1})
	v := tl2.NewVar(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Atomic(0, 0, func(tx *tl2.Tx) error {
			tx.Write(v, tx.Read(v)+1)
			return nil
		})
	}
}

func BenchmarkTL2ReadOnly10(b *testing.B) {
	s := tl2.New(tl2.Options{YieldEvery: -1})
	a := tl2.NewArray(10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Atomic(0, 0, func(tx *tl2.Tx) error {
			var sum int64
			for j := 0; j < 10; j++ {
				sum += a.Get(tx, j)
			}
			_ = sum
			return nil
		})
	}
}

// BenchmarkTL2ContendedCounter keeps the interleaving yields on
// explicitly: every worker runs as thread 0, which the adaptive default
// would read as one thread and run without them, and the committed
// baseline row was recorded with them.
func BenchmarkTL2ContendedCounter(b *testing.B) {
	s := tl2.New(tl2.Options{YieldEvery: 4})
	v := tl2.NewVar(0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = s.Atomic(0, 0, func(tx *tl2.Tx) error {
				tx.Write(v, tx.Read(v)+1)
				return nil
			})
		}
	})
}

func BenchmarkTL2MapPutGet(b *testing.B) {
	s := tl2.New(tl2.Options{YieldEvery: -1})
	m := tl2.NewMap(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % 512)
		_ = s.Atomic(0, 0, func(tx *tl2.Tx) error {
			m.Put(tx, k, k)
			_, _ = m.Get(tx, k)
			return nil
		})
	}
}

func BenchmarkLibTMModesRMW(b *testing.B) {
	modes := map[string]libtm.Mode{
		"FullyOptimistic":  libtm.FullyOptimistic,
		"FullyPessimistic": libtm.FullyPessimistic,
		"VisCommitAbortRd": {Reads: libtm.VisibleReads, Writes: libtm.CommitWrites, Resolution: libtm.AbortReaders},
		"InvisEncounter":   {Reads: libtm.InvisibleReads, Writes: libtm.EncounterWrites, Resolution: libtm.AbortReaders},
	}
	for name, mode := range modes {
		b.Run(name, func(b *testing.B) {
			s := libtm.New(libtm.Options{Mode: mode, YieldEvery: -1})
			o := libtm.NewObj(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.Atomic(0, 0, func(tx *libtm.Tx) error {
					tx.Write(o, tx.Read(o)+1)
					return nil
				})
			}
		})
	}
}

// BenchmarkGateOverhead measures the admission gate's cost on the
// transaction fast path (immediate admits, no holds).
func BenchmarkGateOverhead(b *testing.B) {
	e := harness.Experiment{
		Workload: "kmeans", Threads: 2,
		ProfileRuns: 2, MeasureRuns: 1,
		ProfileSize: stamp.Small, MeasureSize: stamp.Small, Seed: 3,
	}
	m, err := e.Profile()
	if err != nil {
		b.Fatal(err)
	}
	ctrl := guide.New(m, guide.Options{K: 1})
	s := tl2.New(tl2.Options{YieldEvery: -1})
	s.SetGate(ctrl)
	s.SetTracer(ctrl)
	v := tl2.NewVar(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Atomic(0, 0, func(tx *tl2.Tx) error {
			tx.Write(v, tx.Read(v)+1)
			return nil
		})
	}
}

// BenchmarkAblationTfactor sweeps the guidance threshold divisor on the
// kmeans pipeline and reports the resulting variance improvement and
// slowdown — the trade-off the paper's Section VI describes (low
// Tfactor over-restricts, high Tfactor admits the low-probability
// tail).
func BenchmarkAblationTfactor(b *testing.B) {
	for _, tf := range []float64{1, 2, 4, 8} {
		b.Run(map[float64]string{1: "T1", 2: "T2", 4: "T4", 8: "T8"}[tf], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := harness.Experiment{
					Workload: "kmeans", Threads: 4,
					ProfileRuns: 4, MeasureRuns: 6,
					ProfileSize: stamp.Small, MeasureSize: stamp.Small,
					Tfactor: tf, Seed: 7, Force: true,
				}
				out, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if out.Compared != nil {
					b.ReportMetric(out.Compared.AvgVarianceImprovement(), "var-improve-%")
					b.ReportMetric(out.Compared.Slowdown, "slowdown-x")
				}
			}
		})
	}
}

// BenchmarkAblationK sweeps the guide's progress-escape bound k: small
// k escapes quickly (weaker guidance), large k holds longer (stronger
// bias, more overhead).
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "K1", 4: "K4", 16: "K16"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := harness.Experiment{
					Workload: "vacation", Threads: 4,
					ProfileRuns: 4, MeasureRuns: 6,
					ProfileSize: stamp.Small, MeasureSize: stamp.Small,
					K: k, Seed: 7, Force: true,
				}
				out, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if out.Compared != nil {
					b.ReportMetric(out.Compared.Slowdown, "slowdown-x")
					b.ReportMetric(float64(out.Guided.Guide.Escapes), "escapes")
				}
			}
		})
	}
}

// BenchmarkAblationContentionManagers compares the classic contention
// managers against stock TL2 and against guided execution on the same
// workload — the paper's Section IX argument that managers trade
// fairness for throughput while the guide targets variance directly.
func BenchmarkAblationContentionManagers(b *testing.B) {
	cms := map[string]tl2.ContentionManager{
		"Stock":  nil,
		"Polite": &tl2.Polite{},
		"Karma":  &tl2.Karma{},
		"Greedy": &tl2.Greedy{},
	}
	for name, cm := range cms {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := harness.Experiment{
					Workload: "vacation", Threads: 4,
					ProfileRuns: 1, MeasureRuns: 8,
					ProfileSize: stamp.Small, MeasureSize: stamp.Medium,
					Seed: 7, CM: cm,
				}
				res, err := e.Measure(nil)
				if err != nil {
					b.Fatal(err)
				}
				sds := res.ThreadStdDevs()
				var sum float64
				for _, sd := range sds {
					sum += sd
				}
				b.ReportMetric(sum/float64(len(sds))*1e6, "thread-sd-us")
				b.ReportMetric(float64(res.Aborts), "aborts")
			}
		})
	}
}

// BenchmarkSynQuakeFrame measures raw frame processing cost (default
// mode, no guidance) at the benchmark scale.
func BenchmarkSynQuakeFrame(b *testing.B) {
	g, err := synquake.New(synquake.Config{
		Players: 96, MapSize: 256, Threads: 4, Scenario: "4quadrants", Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RunFrames(1); err != nil {
			b.Fatal(err)
		}
	}
}
