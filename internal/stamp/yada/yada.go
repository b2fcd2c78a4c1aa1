// Package yada ports STAMP's yada (Yet Another Delaunay Application):
// Ruppert's mesh refinement. Threads pop "bad triangles" from a shared
// worklist, claim the triangle's cavity cells in a shared grid, and may
// produce new bad triangles that go back on the worklist. The
// combination of a hot worklist and overlapping cavities yields the
// high state counts the paper reports for yada (Table III).
//
// Static transaction IDs:
//
//	0 — pop one work item from the shared worklist
//	1 — refine: claim the cavity, mark the item done, push children
package yada

import (
	"fmt"
	"runtime"

	"gstm/internal/stamp"
	"gstm/internal/tl2"
)

type params struct {
	initial  int // seed triangles
	children int // extra triangles spawned during refinement
	gridW    int // cavity grid side
	cavity   int // cells per cavity
}

func sizeParams(s stamp.Size) params {
	switch s {
	case stamp.Small:
		return params{initial: 64, children: 64, gridW: 16, cavity: 3}
	case stamp.Large:
		return params{initial: 1024, children: 1024, gridW: 48, cavity: 5}
	default:
		return params{initial: 384, children: 384, gridW: 32, cavity: 4}
	}
}

// Workload is one yada run. Create with New.
type Workload struct {
	cfg stamp.Config
	p   params

	cavities [][]int // per-item cavity cell indices
	children [][]int // per-item child item IDs

	//gstm:ignore gstm010 -- the shared refinement work queue is yada's documented bottleneck
	work      *tl2.Queue
	grid      *tl2.Array // refinement counters per cell
	done      *tl2.Array // per-item done flag
	processed *tl2.Var
}

// New returns an unconfigured yada workload.
func New() *Workload { return &Workload{} }

// Name implements stamp.Workload.
func (w *Workload) Name() string { return "yada" }

// total returns the total number of items that will ever exist.
func (w *Workload) total() int { return w.p.initial + w.p.children }

// Setup implements stamp.Workload: precomputes each item's cavity and
// assigns every child item to a parent among the earlier items, so the
// refinement terminates with exactly total() processed items.
func (w *Workload) Setup(s *tl2.STM, cfg stamp.Config) error {
	w.cfg = cfg
	w.p = sizeParams(cfg.Size)
	rng := stamp.NewRand(cfg.Seed)

	total := w.total()
	w.cavities = make([][]int, total)
	w.children = make([][]int, total)
	cells := w.p.gridW * w.p.gridW
	for i := 0; i < total; i++ {
		// A cavity is a small cluster of nearby cells.
		base := rng.Intn(cells)
		cav := make([]int, w.p.cavity)
		for j := range cav {
			cav[j] = (base + j*w.p.gridW + rng.Intn(3)) % cells
		}
		w.cavities[i] = cav
	}
	// Children i in [initial, total) hang off a parent with smaller ID,
	// guaranteeing acyclic production.
	for c := w.p.initial; c < total; c++ {
		parent := rng.Intn(c)
		w.children[parent] = append(w.children[parent], c)
	}

	w.work = tl2.NewQueue(total + 1)
	w.grid = tl2.NewArray(cells, 0)
	w.done = tl2.NewArray(total, 0)
	w.processed = tl2.NewVar(0)

	var err error
	for i := 0; i < w.p.initial; i++ {
		item := int64(i)
		err = s.Atomic(0, 0, func(tx *tl2.Tx) error {
			if !w.work.Push(tx, item) {
				return fmt.Errorf("yada: worklist overflow")
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	s.ResetCounters()
	return nil
}

// Thread implements stamp.Workload.
func (w *Workload) Thread(s *tl2.STM, thread int) {
	th := uint16(thread)
	total := int64(w.total())
	for {
		var item int64
		var got bool
		_ = s.Atomic(th, 0, func(tx *tl2.Tx) error {
			item, got = w.work.Pop(tx)
			return nil
		})
		if !got {
			var doneAll bool
			_ = s.Atomic(th, 0, func(tx *tl2.Tx) error {
				doneAll = tx.Read(w.processed) == total && w.work.Len(tx) == 0
				return nil
			})
			if doneAll {
				return
			}
			runtime.Gosched() // in-flight refinements may push more work
			continue
		}

		_ = s.Atomic(th, 1, func(tx *tl2.Tx) error {
			stamp.Spin(tx, 512) // cavity retriangulation
			for _, c := range w.cavities[item] {
				w.grid.Set(tx, c, w.grid.Get(tx, c)+1)
			}
			w.done.Set(tx, int(item), 1)
			tx.Write(w.processed, tx.Read(w.processed)+1)
			for _, child := range w.children[item] {
				w.work.Push(tx, int64(child))
			}
			return nil
		})
	}
}

// Validate implements stamp.Workload: every item processed exactly
// once, and the grid's refinement counters sum to the total cavity
// volume.
func (w *Workload) Validate() error {
	total := w.total()
	if got := w.processed.Value(); got != int64(total) {
		return fmt.Errorf("yada: processed %d items, want %d", got, total)
	}
	for i := 0; i < total; i++ {
		if w.done.At(i).Value() != 1 {
			return fmt.Errorf("yada: item %d not processed", i)
		}
	}
	var gridSum int64
	for c := 0; c < w.grid.Len(); c++ {
		gridSum += w.grid.At(c).Value()
	}
	if want := int64(total * w.p.cavity); gridSum != want {
		return fmt.Errorf("yada: grid refinement volume %d, want %d", gridSum, want)
	}
	return nil
}
