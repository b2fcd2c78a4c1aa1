package libtm

import (
	"sync"

	"gstm/internal/tts"
)

// txPool recycles transaction descriptors across Atomic calls — the
// general-path successor of the certified-readonly-only pool this file
// replaces. A LibTM RMW used to cost four allocations (the descriptor
// plus its read/write/locked slices); with pooling and capacity-
// retaining truncation the steady state is zero, pinned by the
// alloc-free tests in bench_scale_test.go.
//
// Pooling is safe for writing transactions too, not just certified
// read-only ones, because every externally visible registration of the
// descriptor pointer dies before AtomicPri returns: visible-reader
// entries (only VisibleReads mode registers any; o.readers is made on
// the first) are deleted under o.mu by releaseVisibleReads on every
// exit path (commit, abort, user error, escalation), write locks are
// released by commit/cleanupAfterAbort/commitIrrev the same way, and a
// writer can only doom a descriptor while it is still registered in
// o.readers — so no stale doom can reach a recycled Tx. The one path
// that must NOT recycle is a user panic out of fn: runAttempt re-raises
// it without cleanup, registrations may still be live, and AtomicPri
// deliberately leaks the descriptor there (Put is not deferred).
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// putTx scrubs a descriptor and returns it to the pool. Slices are
// truncated, not nilled, so their capacity survives reuse; every
// identity and per-call field is cleared so a recycled descriptor can
// never leak a prior transaction's read/write entries, doom state or
// STM binding (the pool-hygiene property test pins this).
func putTx(tx *Tx) {
	tx.stm = nil
	tx.done = nil
	tx.mon = nil
	tx.roCert = false
	tx.irrev = false
	tx.instance = 0
	tx.pair = tts.Pair{}
	tx.ops = 0
	tx.yielding = false
	tx.batch = 0
	tx.invReads = tx.invReads[:0]
	tx.writes = tx.writes[:0]
	tx.visReads = tx.visReads[:0]
	tx.locked = tx.locked[:0]
	tx.doomed.Store(false)
	tx.killer.Store(0)
	txPool.Put(tx)
}
