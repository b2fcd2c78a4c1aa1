// Package vacation ports STAMP's vacation: an in-memory travel
// reservation database. Client threads issue a pseudo-random mix of
// operations against three resource tables (flights, rooms, cars) and a
// customer table — make a reservation, cancel a customer, and grow
// table capacity. Operations touch a handful of random rows each, the
// classic OLTP contention profile.
//
// Static transaction IDs:
//
//	0 — make a reservation (decrement capacity, record it on the customer)
//	1 — cancel a customer (release all their reservations)
//	2 — grow capacity of a random item
package vacation

import (
	"fmt"

	"gstm/internal/stamp"
	"gstm/internal/tl2"
)

type params struct {
	items int // rows per table
	ops   int // operations per thread
	cap0  int // initial capacity per row
}

func sizeParams(s stamp.Size) params {
	// The relation size is constant across input sizes (as in STAMP,
	// where -n fixes the relations and the task count scales): only the
	// operation count grows, so the contention structure a model learns
	// on one size transfers to another.
	switch s {
	case stamp.Small:
		return params{items: 32, ops: 64, cap0: 30}
	case stamp.Large:
		return params{items: 32, ops: 1024, cap0: 30}
	default:
		return params{items: 32, ops: 384, cap0: 30}
	}
}

const numTables = 3 // flights, rooms, cars

// Workload is one vacation run. Create with New.
type Workload struct {
	cfg stamp.Config
	p   params

	//gstm:ignore gstm010 -- STAMP vacation's point: every reservation type contends on the capacity rows
	free     [numTables]*tl2.Array // remaining capacity per row
	reserved [numTables]*tl2.Array // outstanding reservations per row
	added    *tl2.Var              // total capacity added by tx 2
	// customers maps customerID → packed reservation (table*2^20 + item
	// + 1), one live reservation per customer at a time.
	customers *tl2.Map
}

// New returns an unconfigured vacation workload.
func New() *Workload { return &Workload{} }

// Name implements stamp.Workload.
func (w *Workload) Name() string { return "vacation" }

// Setup implements stamp.Workload.
func (w *Workload) Setup(_ *tl2.STM, cfg stamp.Config) error {
	w.cfg = cfg
	w.p = sizeParams(cfg.Size)
	for t := 0; t < numTables; t++ {
		w.free[t] = tl2.NewArray(w.p.items, int64(w.p.cap0))
		w.reserved[t] = tl2.NewArray(w.p.items, 0)
	}
	w.added = tl2.NewVar(0)
	w.customers = tl2.NewMap(cfg.Threads * w.p.ops)
	return nil
}

const itemBits = 20

// Thread implements stamp.Workload: each thread is a client issuing a
// random operation mix (≈80% reserve, 10% cancel, 10% grow — the
// original's default mix).
func (w *Workload) Thread(s *tl2.STM, thread int) {
	th := uint16(thread)
	rng := stamp.NewRand(w.cfg.Seed ^ int64(thread+1)<<32)
	for op := 0; op < w.p.ops; op++ {
		custID := int64(thread*w.p.ops + op)
		table := rng.Intn(numTables)
		item := rng.Intn(w.p.items)
		switch r := rng.Intn(10); {
		case r < 8:
			_ = s.Atomic(th, 0, func(tx *tl2.Tx) error {
				stamp.Spin(tx, 384) // tree lookups across the relations
				f := w.free[table].Get(tx, item)
				if f <= 0 {
					return nil // sold out; committed no-op
				}
				w.free[table].Set(tx, item, f-1)
				w.reserved[table].Set(tx, item, w.reserved[table].Get(tx, item)+1)
				w.customers.Put(tx, custID, int64(table)<<itemBits|int64(item)+1)
				return nil
			})
		case r < 9:
			// Cancel a random earlier customer of this thread.
			victim := int64(thread*w.p.ops + rng.Intn(op+1))
			_ = s.Atomic(th, 1, func(tx *tl2.Tx) error {
				stamp.Spin(tx, 384) // customer record scan
				packed, ok := w.customers.Get(tx, victim)
				if !ok {
					return nil
				}
				w.customers.Delete(tx, victim)
				t := int(packed >> itemBits)
				i := int(packed&((1<<itemBits)-1)) - 1
				w.free[t].Set(tx, i, w.free[t].Get(tx, i)+1)
				w.reserved[t].Set(tx, i, w.reserved[t].Get(tx, i)-1)
				return nil
			})
		default:
			_ = s.Atomic(th, 2, func(tx *tl2.Tx) error {
				stamp.Spin(tx, 384) // table maintenance
				w.free[table].Set(tx, item, w.free[table].Get(tx, item)+1)
				tx.Write(w.added, tx.Read(w.added)+1)
				return nil
			})
		}
	}
}

// Validate implements stamp.Workload: capacity conservation — for the
// whole system, free + reserved must equal initial + added — and no row
// may go negative.
func (w *Workload) Validate() error {
	var free, reserved int64
	for t := 0; t < numTables; t++ {
		for i := 0; i < w.p.items; i++ {
			f := w.free[t].At(i).Value()
			r := w.reserved[t].At(i).Value()
			if f < 0 || r < 0 {
				return fmt.Errorf("vacation: table %d item %d negative (free=%d reserved=%d)", t, i, f, r)
			}
			free += f
			reserved += r
		}
	}
	want := int64(numTables*w.p.items*w.p.cap0) + w.added.Value()
	if free+reserved != want {
		return fmt.Errorf("vacation: capacity not conserved: free+reserved=%d, want %d", free+reserved, want)
	}
	// Every live customer's packed reservation must be in range.
	for _, k := range w.customers.SnapshotKeys() {
		if k < 0 || k >= int64(w.cfg.Threads*w.p.ops) {
			return fmt.Errorf("vacation: bogus customer ID %d", k)
		}
	}
	return nil
}
