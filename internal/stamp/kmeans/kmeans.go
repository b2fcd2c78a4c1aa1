// Package kmeans ports STAMP's kmeans: iterative K-means clustering
// where threads partition the points, compute nearest centroids, and
// transactionally fold each point into the shared per-cluster
// accumulators. The accumulators are few and hot, giving kmeans its
// characteristic high abort rate and large execution variance (the
// paper's motivating example varied by 8 seconds).
//
// Static transaction IDs:
//
//	0 — fold one point into its cluster accumulator
//	1 — add a thread's per-iteration assignment count to the global delta
//	2 — recompute centroids from the accumulators (thread 0, between iterations)
package kmeans

import (
	"fmt"
	"math"

	"gstm/internal/stamp"
	"gstm/internal/tl2"
)

// params holds the per-size workload scale.
type params struct {
	points int
	k      int
	iters  int
}

func sizeParams(s stamp.Size) params {
	switch s {
	case stamp.Small:
		return params{points: 240, k: 4, iters: 2}
	case stamp.Large:
		return params{points: 6000, k: 12, iters: 3}
	default:
		return params{points: 2000, k: 8, iters: 3}
	}
}

// Workload is one kmeans run. Create with New.
type Workload struct {
	cfg stamp.Config
	p   params

	px, py []float64 // point coordinates (read-only after setup)

	cx, cy       *tl2.Array // centroid coordinates (K entries, float bits)
	sumX, sumY   *tl2.Array // per-cluster accumulators (float bits)
	counts       *tl2.Array // per-cluster point counts
	globalDelta  *tl2.Var   // total points folded across all iterations
	barrier      *stamp.Barrier
	doneBarriers int
}

// New returns an unconfigured kmeans workload.
func New() *Workload { return &Workload{} }

// Name implements stamp.Workload.
func (w *Workload) Name() string { return "kmeans" }

// Setup implements stamp.Workload: generates points around p.k true
// centers and initializes shared centroids to the first k points.
func (w *Workload) Setup(_ *tl2.STM, cfg stamp.Config) error {
	w.cfg = cfg
	w.p = sizeParams(cfg.Size)
	rng := stamp.NewRand(cfg.Seed)
	n, k := w.p.points, w.p.k
	w.px = make([]float64, n)
	w.py = make([]float64, n)
	for i := 0; i < n; i++ {
		c := i % k
		w.px[i] = float64(c)*10 + rng.Float64()*2
		w.py[i] = float64(c)*-7 + rng.Float64()*2
	}
	w.cx = tl2.NewArray(k, 0)
	w.cy = tl2.NewArray(k, 0)
	for c := 0; c < k; c++ {
		w.cx.At(c).StoreFloat(w.px[c])
		w.cy.At(c).StoreFloat(w.py[c])
	}
	w.sumX = tl2.NewArray(k, 0)
	w.sumY = tl2.NewArray(k, 0)
	w.counts = tl2.NewArray(k, 0)
	w.globalDelta = tl2.NewVar(0)
	w.barrier = stamp.NewBarrier(cfg.Threads)
	return nil
}

// Thread implements stamp.Workload.
func (w *Workload) Thread(s *tl2.STM, thread int) {
	n, k := w.p.points, w.p.k
	lo := thread * n / w.cfg.Threads
	hi := (thread + 1) * n / w.cfg.Threads

	for iter := 0; iter < w.p.iters; iter++ {
		// Snapshot centroids: stable within an iteration (only thread 0
		// rewrites them, and only between barriers).
		snapX := make([]float64, k)
		snapY := make([]float64, k)
		for c := 0; c < k; c++ {
			snapX[c] = w.cx.At(c).FloatValue()
			snapY[c] = w.cy.At(c).FloatValue()
		}

		assigned := 0
		for i := lo; i < hi; i++ {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				dx, dy := w.px[i]-snapX[c], w.py[i]-snapY[c]
				if d := dx*dx + dy*dy; d < bestD {
					best, bestD = c, d
				}
			}
			c := best
			_ = s.Atomic(uint16(thread), 0, func(tx *tl2.Tx) error {
				stamp.Spin(tx, 256) // distance re-evaluation in the original's tx
				tx.WriteFloat(w.sumX.At(c), tx.ReadFloat(w.sumX.At(c))+w.px[i])
				tx.WriteFloat(w.sumY.At(c), tx.ReadFloat(w.sumY.At(c))+w.py[i])
				w.counts.Set(tx, c, w.counts.Get(tx, c)+1)
				return nil
			})
			assigned++
		}
		_ = s.Atomic(uint16(thread), 1, func(tx *tl2.Tx) error {
			tx.Write(w.globalDelta, tx.Read(w.globalDelta)+int64(assigned))
			return nil
		})

		w.barrier.Wait()
		if thread == 0 {
			_ = s.Atomic(0, 2, func(tx *tl2.Tx) error {
				for c := 0; c < k; c++ {
					cnt := w.counts.Get(tx, c)
					if cnt > 0 {
						tx.WriteFloat(w.cx.At(c), tx.ReadFloat(w.sumX.At(c))/float64(cnt))
						tx.WriteFloat(w.cy.At(c), tx.ReadFloat(w.sumY.At(c))/float64(cnt))
					}
					tx.WriteFloat(w.sumX.At(c), 0)
					tx.WriteFloat(w.sumY.At(c), 0)
					w.counts.Set(tx, c, 0)
				}
				return nil
			})
		}
		w.barrier.Wait()
	}
}

// Validate implements stamp.Workload: every point must have been folded
// exactly once per iteration, and centroids must be finite.
func (w *Workload) Validate() error {
	want := int64(w.p.points) * int64(w.p.iters)
	if got := w.globalDelta.Value(); got != want {
		return fmt.Errorf("kmeans: folded %d point-iterations, want %d", got, want)
	}
	for c := 0; c < w.p.k; c++ {
		x, y := w.cx.At(c).FloatValue(), w.cy.At(c).FloatValue()
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("kmeans: centroid %d is not finite (%v, %v)", c, x, y)
		}
	}
	return nil
}
