// Package interleave decides when the STM runtimes insert their
// interleaving yields: the scheduler yields both runtimes make every
// few transactional accesses and once at commit entry
// (tl2.Options.YieldEvery, libtm.Options.YieldEvery), and TL2's
// tl2.Tx.Preempt, which simulated work in transaction bodies offers.
//
// The yields exist for hosts with fewer cores than worker threads.
// There a goroutine would otherwise run a whole short transaction
// without being descheduled, and conflicts would vanish. With a core per
// worker the hardware interleaves critical sections by itself, and the
// yields only add scheduler work: runtime.Gosched takes the global
// run-queue lock on every call.
//
// The default rule is adaptive. Yields are on while the highest thread
// ID the STM has seen, plus one, exceeds GOMAXPROCS as sampled when the
// STM was built. That reads the ID as a thread count, which holds for
// the dense 0..n-1 worker IDs every harness and benchmark in this
// repository uses.
// The regime is one-way per STM: once an oversubscribing ID appears,
// every later attempt on every thread yields at the old cadence.
package interleave

import (
	"runtime"
	"sync/atomic"
)

// defaultEvery is the access interval between yields when a runtime
// yields under the adaptive default.
const defaultEvery = 4

// Policy is one STM's yield decision. The zero value never yields; use
// Init. A Policy must not be copied after Init.
type Policy struct {
	// every is the access interval between yields: the configured
	// YieldEvery when positive, defaultEvery under the adaptive rule.
	every int
	// adaptive marks the default (YieldEvery 0): the regime follows
	// seen against procs. Otherwise every > 0 always yields and a
	// negative setting (stored as 0) never does.
	adaptive bool
	procs    uint32
	// seen is the highest thread ID registered so far, plus one. It is
	// read once per attempt and written only when a new highest ID
	// appears, so it sits on its own cache line, away from the commit
	// counters a runtime writes on every attempt.
	_    [64]byte
	seen atomic.Uint32
	_    [60]byte
}

// Init resolves a runtime's Options.YieldEvery: positive yields every
// that many accesses, negative never yields, and 0 selects the adaptive
// rule against the current runtime.GOMAXPROCS.
func (p *Policy) Init(yieldEvery int) {
	switch {
	case yieldEvery > 0:
		p.every = yieldEvery
	case yieldEvery == 0:
		p.every = defaultEvery
		p.adaptive = true
		p.procs = uint32(runtime.GOMAXPROCS(0))
	}
}

// Every is the access interval between yields while they are on.
func (p *Policy) Every() int { return p.every }

// Enter registers the thread starting an attempt and reports whether
// that attempt yields. Runtimes call it once per attempt and cache the
// answer in the transaction descriptor.
func (p *Policy) Enter(thread uint16) bool {
	if !p.adaptive {
		return p.every > 0
	}
	n := uint32(thread) + 1
	cur := p.seen.Load()
	for n > cur {
		if p.seen.CompareAndSwap(cur, n) {
			cur = n
			break
		}
		cur = p.seen.Load()
	}
	return cur > p.procs
}

// On reports whether attempts starting now yield.
func (p *Policy) On() bool {
	if !p.adaptive {
		return p.every > 0
	}
	return p.seen.Load() > p.procs
}
