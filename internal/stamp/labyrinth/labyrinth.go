// Package labyrinth ports STAMP's labyrinth: threads route paths
// through a shared maze grid with Lee's algorithm — plan a shortest
// path on a snapshot of the grid (breadth-first expansion), then
// transactionally claim every cell of the path; if another route
// claimed a cell in the meantime the transaction aborts the claim and
// the thread replans around the new obstacle. Long read/write sets over
// the shared grid give labyrinth its few-but-expensive conflicts.
//
// Static transaction IDs:
//
//	0 — claim the full cell path of one planned route
package labyrinth

import (
	"errors"
	"fmt"

	"gstm/internal/stamp"
	"gstm/internal/tl2"
)

type params struct {
	w, h    int
	routes  int
	replans int // planning attempts per route before giving up
}

func sizeParams(s stamp.Size) params {
	switch s {
	case stamp.Small:
		return params{w: 32, h: 32, routes: 64, replans: 3}
	case stamp.Large:
		return params{w: 96, h: 96, routes: 512, replans: 3}
	default:
		return params{w: 64, h: 64, routes: 256, replans: 3}
	}
}

type route struct {
	x1, y1, x2, y2 int
}

// Workload is one labyrinth run. Create with New.
type Workload struct {
	cfg stamp.Config
	p   params

	routes []route
	grid   *tl2.Array // 0 = free, otherwise routeID+1
	routed *tl2.Var   // successfully claimed routes
	failed *tl2.Var   // routes abandoned (no path after replans)

	// paths records each successful route's claimed cells for
	// validation.
	paths [][]int
}

// New returns an unconfigured labyrinth workload.
func New() *Workload { return &Workload{} }

// Name implements stamp.Workload.
func (w *Workload) Name() string { return "labyrinth" }

// Setup implements stamp.Workload.
func (w *Workload) Setup(_ *tl2.STM, cfg stamp.Config) error {
	w.cfg = cfg
	w.p = sizeParams(cfg.Size)
	rng := stamp.NewRand(cfg.Seed)
	w.routes = make([]route, w.p.routes)
	for i := range w.routes {
		w.routes[i] = route{
			x1: rng.Intn(w.p.w), y1: rng.Intn(w.p.h),
			x2: rng.Intn(w.p.w), y2: rng.Intn(w.p.h),
		}
	}
	w.grid = tl2.NewArray(w.p.w*w.p.h, 0)
	w.routed = tl2.NewVar(0)
	w.failed = tl2.NewVar(0)
	w.paths = make([][]int, w.p.routes)
	return nil
}

// bfs plans a shortest path from (x1,y1) to (x2,y2) over the snapshot,
// treating non-zero cells as walls (endpoints excepted if free). It
// returns the cell indices of the path, or nil when unreachable —
// Lee's algorithm: breadth-first wavefront expansion plus backtrace.
func (w *Workload) bfs(snapshot []int64, r route) []int {
	W, H := w.p.w, w.p.h
	src := r.y1*W + r.x1
	dst := r.y2*W + r.x2
	if snapshot[src] != 0 || snapshot[dst] != 0 {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	prev := make([]int32, W*H)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = int32(src)
	queue := make([]int, 0, W*H/4)
	queue = append(queue, src)
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		cx, cy := c%W, c/W
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := cx+d[0], cy+d[1]
			if nx < 0 || nx >= W || ny < 0 || ny >= H {
				continue
			}
			n := ny*W + nx
			if prev[n] != -1 || snapshot[n] != 0 {
				continue
			}
			prev[n] = int32(c)
			if n == dst {
				// Backtrace.
				var path []int
				for at := dst; ; at = int(prev[at]) {
					path = append(path, at)
					if at == src {
						break
					}
				}
				return path
			}
			queue = append(queue, n)
		}
	}
	return nil
}

// errCellTaken aborts a claim whose planned path was invalidated by a
// concurrent route; the thread replans.
var errCellTaken = errors.New("labyrinth: planned cell taken")

// Thread implements stamp.Workload: plan-claim-replan for this thread's
// share of the routes.
func (w *Workload) Thread(s *tl2.STM, thread int) {
	n := len(w.routes)
	lo := thread * n / w.cfg.Threads
	hi := (thread + 1) * n / w.cfg.Threads
	for ri := lo; ri < hi; ri++ {
		id := int64(ri) + 1
		claimed := false
		for attempt := 0; attempt < w.p.replans && !claimed; attempt++ {
			// Plan on a snapshot of committed state (the original plans
			// on a private grid copy).
			path := w.bfs(w.grid.Snapshot(), w.routes[ri])
			if path == nil {
				break // walled in: no path exists right now
			}
			err := s.Atomic(uint16(thread), 0, func(tx *tl2.Tx) error {
				stamp.Spin(tx, 16*len(path)) // wavefront bookkeeping in the original's tx
				for _, c := range path {
					if w.grid.Get(tx, c) != 0 {
						return errCellTaken // invalidated: replan
					}
				}
				for _, c := range path {
					w.grid.Set(tx, c, id)
				}
				tx.Write(w.routed, tx.Read(w.routed)+1)
				return nil
			})
			switch {
			case err == nil:
				claimed = true
				w.paths[ri] = path
			case errors.Is(err, errCellTaken):
				continue // somebody claimed a planned cell: replan
			default:
				return // unexpected STM failure; validation will flag it
			}
		}
		if !claimed {
			_ = s.Atomic(uint16(thread), 0, func(tx *tl2.Tx) error {
				tx.Write(w.failed, tx.Read(w.failed)+1)
				return nil
			})
		}
	}
}

// Validate implements stamp.Workload: every successful route owns its
// entire path exclusively, paths are connected, and routed+failed
// accounts for every route.
func (w *Workload) Validate() error {
	if got := w.routed.Value() + w.failed.Value(); got != int64(w.p.routes) {
		return fmt.Errorf("labyrinth: routed+failed = %d, want %d", got, w.p.routes)
	}
	if w.routed.Value() == 0 {
		return fmt.Errorf("labyrinth: no route succeeded")
	}
	grid := w.grid.Snapshot()
	var claimedRoutes int64
	for ri, path := range w.paths {
		if path == nil {
			continue
		}
		claimedRoutes++
		id := int64(ri) + 1
		for i, c := range path {
			if grid[c] != id {
				return fmt.Errorf("labyrinth: route %d lost cell %d to %d", id, c, grid[c])
			}
			if i > 0 { // adjacency: a real path, not teleportation
				dx := path[i]%w.p.w - path[i-1]%w.p.w
				dy := path[i]/w.p.w - path[i-1]/w.p.w
				if dx*dx+dy*dy != 1 {
					return fmt.Errorf("labyrinth: route %d has disconnected cells %d→%d", id, path[i-1], c)
				}
			}
		}
		// Endpoints must be the route's request.
		r := w.routes[ri]
		last, first := path[0], path[len(path)-1]
		if first != r.y1*w.p.w+r.x1 || last != r.y2*w.p.w+r.x2 {
			return fmt.Errorf("labyrinth: route %d endpoints wrong", id)
		}
	}
	if claimedRoutes != w.routed.Value() {
		return fmt.Errorf("labyrinth: %d recorded paths, %d routed", claimedRoutes, w.routed.Value())
	}
	// No orphan claims on the grid.
	for c, v := range grid {
		if v == 0 {
			continue
		}
		ri := int(v) - 1
		found := false
		for _, pc := range w.paths[ri] {
			if pc == c {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("labyrinth: cell %d claimed by route %d outside its path", c, v)
		}
	}
	return nil
}
