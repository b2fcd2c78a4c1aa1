package tl2

import (
	"runtime"
	"sync/atomic"
	"testing"

	"gstm/internal/fault"
)

// withGOMAXPROCS pins GOMAXPROCS for one test, so the adaptive
// interleaving rule reads the same on any host, and restores it after.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// yieldProbe is an STM whose every suspension point is counted. Its
// first commit is force-aborted and EscalateAfter is 1, so the first
// call made through it escalates to the irrevocable path.
type yieldProbe struct {
	s      *STM
	yields atomic.Int64
	a, b   *Var
}

func newYieldProbe(yieldEvery int) *yieldProbe {
	p := &yieldProbe{a: NewVar(0), b: NewVar(0)}
	p.s = New(Options{
		YieldEvery:    yieldEvery,
		Yield:         func() { p.yields.Add(1) },
		EscalateAfter: 1,
		Inject:        fault.NewInjector(1).Set(fault.CommitAbort, fault.Rule{Every: 1, Limit: 1}),
	})
	return p
}

// body makes four transactional accesses.
func (p *yieldProbe) body(tx *Tx) error {
	tx.Write(p.a, tx.Read(p.a)+1)
	tx.Write(p.b, tx.Read(p.b)+1)
	return nil
}

// count runs op and returns the yields it made.
func (p *yieldProbe) count(t *testing.T, op func() error) int64 {
	t.Helper()
	before := p.yields.Load()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return p.yields.Load() - before
}

// escalated runs the probe's first call: one aborted attempt, one
// backoff, then the irrevocable path.
func (p *yieldProbe) escalated(t *testing.T, thread uint16) int64 {
	t.Helper()
	n := p.count(t, func() error { return p.s.Atomic(thread, 0, p.body) })
	if e := p.s.ProgressStats().Escalations; e != 1 {
		t.Fatalf("escalations = %d, want 1", e)
	}
	return n
}

func (p *yieldProbe) plain(t *testing.T, thread uint16) int64 {
	return p.count(t, func() error { return p.s.Atomic(thread, 0, p.body) })
}

func (p *yieldProbe) batch(t *testing.T, thread uint16) int64 {
	return p.count(t, func() error {
		return p.s.AtomicBatch(thread, 0, []func(*Tx) error{p.body, p.body})
	})
}

// Yield counts of the probe's paths at the old cadence (every 4
// accesses plus commit entry) and with interleaving off. The escalated
// call always makes its one backoff yield; the irrevocable attempt has
// no commit-entry yield.
const (
	onPlain, offPlain         = 4/4 + 1, 0
	onBatch, offBatch         = 8/4 + 1, 0
	onEscalated, offEscalated = (4/4 + 1) + 1 + 4/4, 1
)

func TestInterleavingDefaultOffWithinGOMAXPROCS(t *testing.T) {
	withGOMAXPROCS(t, 2)
	p := newYieldProbe(0)
	if got := p.escalated(t, 1); got != offEscalated {
		t.Errorf("escalated yields = %d, want %d", got, offEscalated)
	}
	for thread := uint16(0); thread < 2; thread++ {
		if got := p.plain(t, thread); got != offPlain {
			t.Errorf("thread %d: plain yields = %d, want %d", thread, got, offPlain)
		}
		if got := p.batch(t, thread); got != offBatch {
			t.Errorf("thread %d: batch yields = %d, want %d", thread, got, offBatch)
		}
	}
	if p.s.Interleaving() {
		t.Error("Interleaving() = true with thread IDs below GOMAXPROCS")
	}
}

func TestInterleavingDefaultResumesWhenOversubscribed(t *testing.T) {
	withGOMAXPROCS(t, 2)
	p, q := newYieldProbe(0), newYieldProbe(0)
	// GOMAXPROCS is sampled at New: raising it now changes neither
	// probe's rule.
	runtime.GOMAXPROCS(8)
	if got := p.escalated(t, 0); got != offEscalated {
		t.Fatalf("escalated yields before oversubscription = %d, want %d", got, offEscalated)
	}
	if got := p.plain(t, 1); got != offPlain {
		t.Fatalf("plain yields before oversubscription = %d, want %d", got, offPlain)
	}
	if got := p.plain(t, 2); got != onPlain {
		t.Errorf("first plain call on thread 2 yields = %d, want %d", got, onPlain)
	}
	if !p.s.Interleaving() {
		t.Error("Interleaving() = false after thread 2 ran at GOMAXPROCS 2")
	}
	// The regime is STM-wide: the lower threads yield again too.
	for _, thread := range []uint16{0, 1, 2} {
		if got := p.plain(t, thread); got != onPlain {
			t.Errorf("thread %d: plain yields = %d, want %d", thread, got, onPlain)
		}
		if got := p.batch(t, thread); got != onBatch {
			t.Errorf("thread %d: batch yields = %d, want %d", thread, got, onBatch)
		}
	}
	if got := q.escalated(t, 2); got != onEscalated {
		t.Errorf("escalated yields on thread 2 = %d, want %d", got, onEscalated)
	}
}

func TestInterleavingExplicitSettingsIgnoreThreads(t *testing.T) {
	withGOMAXPROCS(t, 2)
	for _, tc := range []struct {
		every                   int
		plain, batch, escalated int64
		interleaving            bool
	}{
		{every: 4, plain: onPlain, batch: onBatch, escalated: onEscalated, interleaving: true},
		{every: -1, plain: offPlain, batch: offBatch, escalated: offEscalated},
	} {
		for _, thread := range []uint16{0, 5} {
			p := newYieldProbe(tc.every)
			if got := p.escalated(t, thread); got != tc.escalated {
				t.Errorf("YieldEvery %d, thread %d: escalated yields = %d, want %d", tc.every, thread, got, tc.escalated)
			}
			if got := p.plain(t, thread); got != tc.plain {
				t.Errorf("YieldEvery %d, thread %d: plain yields = %d, want %d", tc.every, thread, got, tc.plain)
			}
			if got := p.batch(t, thread); got != tc.batch {
				t.Errorf("YieldEvery %d, thread %d: batch yields = %d, want %d", tc.every, thread, got, tc.batch)
			}
			if got := p.s.Interleaving(); got != tc.interleaving {
				t.Errorf("YieldEvery %d, thread %d: Interleaving() = %v, want %v", tc.every, thread, got, tc.interleaving)
			}
		}
	}
}
