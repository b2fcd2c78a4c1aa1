// Package trace captures the transaction sequence (Tseq) of an STM
// execution: the ordered stream of commit events, each grouped with the
// aborts it caused. The grouped tuples are thread transactional states
// (tts.State); the ordered list of them is what model generation
// consumes (paper Section II-C, "Profile Execution").
//
// Attribution works by transaction *instance*: every transaction attempt
// gets a unique instance ID from the STM. A victim that aborts knows the
// instance of the attempt that killed it (the writer of the conflicting
// version, or the holder of a commit-time lock). Grouping aborts by
// killer instance reconstructs exactly the paper's tuples.
package trace

import (
	"sync"

	"gstm/internal/tts"
)

// Tracer receives raw commit/abort events from an STM. Implementations
// must be safe for concurrent use. The zero instance (0) means "killer
// unknown".
type Tracer interface {
	// OnCommit reports that transaction attempt `instance`, identified
	// as pair p (static tx ID + thread ID), committed.
	OnCommit(instance uint64, p tts.Pair)
	// OnAbort reports that an attempt running pair p aborted, killed by
	// the attempt with the given instance ID (0 if unknown).
	OnAbort(p tts.Pair, killer uint64)
}

// Nop is a Tracer that discards all events; the default for un-profiled
// runs.
type Nop struct{}

// OnCommit implements Tracer.
func (Nop) OnCommit(uint64, tts.Pair) {}

// OnAbort implements Tracer.
func (Nop) OnAbort(tts.Pair, uint64) {}

type commitRec struct {
	instance uint64
	pair     tts.Pair
}

type abortRec struct {
	pair   tts.Pair
	killer uint64
}

// Collector accumulates events and groups them into the transaction
// sequence. It is safe for concurrent use by many STM threads.
type Collector struct {
	mu      sync.Mutex
	commits []commitRec
	aborts  []abortRec
}

var _ Tracer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// OnCommit implements Tracer.
func (c *Collector) OnCommit(instance uint64, p tts.Pair) {
	c.mu.Lock()
	c.commits = append(c.commits, commitRec{instance, p})
	c.mu.Unlock()
}

// OnAbort implements Tracer.
func (c *Collector) OnAbort(p tts.Pair, killer uint64) {
	c.mu.Lock()
	c.aborts = append(c.aborts, abortRec{p, killer})
	c.mu.Unlock()
}

// Reset discards all recorded events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.commits = nil
	c.aborts = nil
	c.mu.Unlock()
}

// Counts returns the number of recorded commit and abort events.
func (c *Collector) Counts() (commits, aborts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.commits), len(c.aborts)
}

// AbortCountByThread returns, for each thread ID, how many aborts that
// thread experienced. This feeds the per-thread abort histograms of
// Figures 5, 7 and 8.
func (c *Collector) AbortCountByThread() map[uint16]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint16]int)
	for _, a := range c.aborts {
		out[a.pair.Thread]++
	}
	return out
}

// Sequence groups the recorded events into the ordered transaction
// sequence. Aborts are attached to the commit of their killer instance;
// aborts whose killer never committed (the killer itself aborted, or
// the killer is unknown) are dropped from the sequence and reported in
// the second return value, matching the paper's definition where a
// state is always anchored by a commit.
func (c *Collector) Sequence() (seq []tts.State, unattributed int) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Index only the instances some abort names as its killer: a
	// profile run has far fewer distinct killers than commits. When an
	// instance committed more than once, the last commit anchors it.
	killers := make(map[uint64]int)
	for _, a := range c.aborts {
		if a.killer != 0 {
			killers[a.killer] = -1
		}
	}
	seq = make([]tts.State, len(c.commits))
	for i, cr := range c.commits {
		seq[i] = tts.State{Commit: cr.pair}
		if _, ok := killers[cr.instance]; ok {
			killers[cr.instance] = i
		}
	}
	for _, a := range c.aborts {
		if i, ok := killers[a.killer]; ok && i >= 0 {
			seq[i].Aborts = append(seq[i].Aborts, a.pair)
		} else {
			unattributed++
		}
	}
	for i := range seq {
		if len(seq[i].Aborts) > 1 {
			seq[i].Canonicalize()
		}
	}
	return seq, unattributed
}

// Keys returns the canonical key of every state in the sequence, in
// order. DistinctStates over the keys of an execution is the paper's
// non-determinism measure.
func Keys(seq []tts.State) []string {
	out := make([]string, len(seq))
	for i, s := range seq {
		out[i] = s.Key()
	}
	return out
}
