package libtm

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Irrevocable serial fallback, mirroring internal/tl2: after an
// AtomicCtx call exhausts its escalation threshold it re-runs holding a
// global single-holder token, with every access taking the object's
// write lock at encounter time (two-phase locking). Regular committers
// quiesce on the token before acquiring their *first* write lock and
// never block on locks otherwise (writer-writer conflicts abort the
// newcomer), so the escalated transaction's lock acquisition always
// terminates and the attempt is guaranteed to commit.

// irrevocableState is the per-STM token and the committers' fast-path
// flag (set only while a transaction holds the token).
type irrevocableState struct {
	token  sync.Mutex
	active atomic.Bool
}

// acquire takes the token and raises the active flag, spinning with
// cancellation checks (the current holder finishes in bounded time).
// yield, when non-nil, replaces runtime.Gosched (see Options.Yield).
// Returns false if ctx expired first.
func (ir *irrevocableState) acquire(ctx context.Context, yield func()) bool {
	done := ctx.Done()
	for !ir.token.TryLock() {
		if done != nil {
			select {
			case <-done:
				return false
			default:
			}
		}
		if yield != nil {
			yield()
		} else {
			runtime.Gosched()
		}
	}
	ir.active.Store(true)
	return true
}

// release lowers the active flag and returns the token.
func (ir *irrevocableState) release() {
	ir.active.Store(false)
	ir.token.Unlock()
}

// quiesce blocks a committer until the active irrevocable transaction
// (if any) finishes. MUST only be called while holding zero write
// locks; see the deadlock-freedom comment in lockForWrite. Under a
// deterministic scheduler (yield non-nil) the wait spins on the active
// flag through the yield hook instead of parking on the mutex — a
// blocked goroutine would be invisible to the cooperative scheduler
// and deadlock the exploration.
func (ir *irrevocableState) quiesce(yield func()) {
	if !ir.active.Load() {
		return
	}
	if yield != nil {
		for ir.active.Load() {
			yield()
		}
		return
	}
	ir.token.Lock()
	ir.token.Unlock() //nolint:staticcheck // gate-only acquisition: waiting is the point.
}

// runEscalated executes fn once on the irrevocable serial path.
func (s *STM) runEscalated(ctx context.Context, tx *Tx, fn func(*Tx) error) error {
	if !s.irrevocable.acquire(ctx, s.opts.Yield) {
		return s.deadlineErr(ctx)
	}
	defer s.irrevocable.release()

	// Consult the gate only through the non-blocking IrrevocableGate
	// surface: a hold loop (or an injected fault.HoldStall) here would
	// stall every committer quiescing behind the token.
	if gb := s.gate.Load(); gb != nil {
		if ig, ok := gb.g.(IrrevocableGate); ok {
			ig.AdmitIrrevocable(tx.pair)
		}
	}

	tx.reset()
	tx.irrev = true
	// An escalated attempt never runs certified: the serial path locks
	// at encounter time and is always safe, and a stale roCert would
	// misroute Write into the soundness guard.
	tx.roCert = false
	tx.mon = s.monLoad()
	if tx.mon != nil {
		tx.mon.OnTxBegin(tx.instance, tx.pair)
	}
	committed := false
	defer func() {
		// Runs on user error and on panics out of fn alike: stores were
		// buffered, so releasing the locks undoes everything.
		tx.irrev = false
		if !committed {
			tx.cleanupAfterAbort()
		}
	}()

	if err := fn(tx); err != nil {
		if tx.mon != nil {
			tx.mon.OnTxAbort(tx.instance)
		}
		return err
	}
	tx.commitIrrev()
	committed = true
	s.commits.Add(tx.commitUnits())
	s.escalations.Add(1)
	s.tracer.Load().t.OnCommit(tx.instance, tx.pair)
	if tx.mon != nil {
		tx.mon.OnTxCommit(tx.instance)
	}
	return nil
}

// lockIrrev acquires o's write lock for an escalated transaction
// (idempotently). Foreign writers finish in bounded time — they never
// block while holding locks — so the spin terminates; foreign visible
// readers are doomed unconditionally (AbortReaders semantics regardless
// of mode), because an irrevocable transaction must not wait on them.
func (tx *Tx) lockIrrev(o *Obj) {
	for {
		o.mu.Lock()
		if o.writerTx == tx {
			o.mu.Unlock()
			return
		}
		if o.writerInst != 0 {
			o.mu.Unlock()
			tx.stm.yield()
			continue
		}
		if len(o.readers) != 0 {
			for r := range o.readers {
				if r == tx {
					continue
				}
				r.killer.Store(tx.instance)
				r.doomed.Store(true)
				delete(o.readers, r)
			}
		}
		o.writerInst = tx.instance
		o.writerTx = tx
		tx.locked = append(tx.locked, o)
		o.mu.Unlock()
		return
	}
}

// commitIrrev publishes the buffered stores under the held locks and
// releases everything. No validation is needed: escalated reads took
// write locks, so no snapshot can have been invalidated, and the fault
// hooks are intentionally not consulted — an injected CommitAbort must
// not be able to abort a guaranteed-to-commit transaction.
func (tx *Tx) commitIrrev() {
	for _, w := range tx.writes {
		w.o.mu.Lock()
		w.o.val = w.val
		w.o.version++
		w.o.lastWriter = tx.instance
		w.o.writerInst = 0
		w.o.writerTx = nil
		w.o.mu.Unlock()
	}
	// Release read-only locks without a version bump (values unchanged,
	// so concurrent invisible-read validation is undisturbed).
	for _, o := range tx.locked {
		o.mu.Lock()
		if o.writerTx == tx {
			o.writerInst = 0
			o.writerTx = nil
		}
		o.mu.Unlock()
	}
	tx.locked = tx.locked[:0]
	tx.releaseVisibleReads()
}
