// Package ssca2 ports STAMP's ssca2 (Scalable Synthetic Compact
// Applications 2, kernel 1): parallel construction of a large sparse
// graph's adjacency structure. Threads append edges whose source nodes
// are partitioned across threads, so transactions are tiny and almost
// never conflict. This is the paper's negative case: the model has very
// few states, the analyzer's guidance metric exceeds the cutoff, and
// forcing guidance only adds overhead (Figure 8).
//
// Static transaction IDs:
//
//	0 — append one directed edge to its source node's adjacency list
package ssca2

import (
	"fmt"

	"gstm/internal/stamp"
	"gstm/internal/tl2"
)

type params struct {
	nodes  int
	edges  int
	maxDeg int
}

func sizeParams(s stamp.Size) params {
	switch s {
	case stamp.Small:
		return params{nodes: 128, edges: 512, maxDeg: 16}
	case stamp.Large:
		return params{nodes: 4096, edges: 16384, maxDeg: 24}
	default:
		return params{nodes: 1024, edges: 4096, maxDeg: 24}
	}
}

// Workload is one ssca2 run. Create with New.
type Workload struct {
	cfg stamp.Config
	p   params

	srcs, dsts []int // pre-generated edge list (src partitioned by thread)

	deg *tl2.Array // per-node out-degree cursor
	adj *tl2.Array // node*maxDeg + slot → destination+1 (0 = empty)
}

// New returns an unconfigured ssca2 workload.
func New() *Workload { return &Workload{} }

// Name implements stamp.Workload.
func (w *Workload) Name() string { return "ssca2" }

// Setup implements stamp.Workload: generates edges whose sources are
// partitioned by inserting thread, the disjoint-write pattern of the
// original kernel.
func (w *Workload) Setup(_ *tl2.STM, cfg stamp.Config) error {
	w.cfg = cfg
	w.p = sizeParams(cfg.Size)
	rng := stamp.NewRand(cfg.Seed)

	w.srcs = make([]int, w.p.edges)
	w.dsts = make([]int, w.p.edges)
	perThread := w.p.edges / cfg.Threads
	nodeSpan := w.p.nodes / cfg.Threads
	if nodeSpan == 0 {
		nodeSpan = 1
	}
	for i := range w.srcs {
		th := i / perThread
		if th >= cfg.Threads {
			th = cfg.Threads - 1
		}
		base := (th * nodeSpan) % w.p.nodes
		w.srcs[i] = base + rng.Intn(nodeSpan)
		if w.srcs[i] >= w.p.nodes {
			w.srcs[i] = w.p.nodes - 1
		}
		w.dsts[i] = rng.Intn(w.p.nodes)
	}

	w.deg = tl2.NewArray(w.p.nodes, 0)
	w.adj = tl2.NewArray(w.p.nodes*w.p.maxDeg, 0)
	return nil
}

// Thread implements stamp.Workload.
func (w *Workload) Thread(s *tl2.STM, thread int) {
	n := len(w.srcs)
	lo := thread * n / w.cfg.Threads
	hi := (thread + 1) * n / w.cfg.Threads
	for i := lo; i < hi; i++ {
		src, dst := w.srcs[i], w.dsts[i]
		_ = s.Atomic(uint16(thread), 0, func(tx *tl2.Tx) error {
			stamp.Spin(tx, 64) // edge endpoint computation
			d := w.deg.Get(tx, src)
			if d >= int64(w.p.maxDeg) {
				return nil // degree cap reached: drop edge (counted below)
			}
			w.adj.Set(tx, src*w.p.maxDeg+int(d), int64(dst)+1)
			w.deg.Set(tx, src, d+1)
			return nil
		})
	}
}

// Validate implements stamp.Workload: degree cursors and filled
// adjacency slots must agree exactly.
func (w *Workload) Validate() error {
	var totalDeg int64
	for n := 0; n < w.p.nodes; n++ {
		d := w.deg.At(n).Value()
		if d < 0 || d > int64(w.p.maxDeg) {
			return fmt.Errorf("ssca2: node %d degree %d out of range", n, d)
		}
		totalDeg += d
		for slot := 0; slot < w.p.maxDeg; slot++ {
			filled := w.adj.At(n*w.p.maxDeg+slot).Value() != 0
			if filled != (int64(slot) < d) {
				return fmt.Errorf("ssca2: node %d slot %d fill/degree mismatch", n, slot)
			}
		}
	}
	if totalDeg == 0 {
		return fmt.Errorf("ssca2: no edges inserted")
	}
	if totalDeg > int64(w.p.edges) {
		return fmt.Errorf("ssca2: inserted %d edges, more than the %d generated", totalDeg, w.p.edges)
	}
	return nil
}
