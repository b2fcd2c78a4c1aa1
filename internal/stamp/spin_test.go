package stamp

import (
	"runtime"
	"sync/atomic"
	"testing"

	"gstm/internal/fault"
	"gstm/internal/tl2"
)

// withGOMAXPROCS pins GOMAXPROCS for one test, so the adaptive
// interleaving rule reads the same on any host, and restores it after.
func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// spinUnits is the work one probe body spins: four Preempt offers.
const spinUnits = 1024

// spinProbe runs Spin inside transaction bodies on an STM whose every
// suspension point is counted, and records the yields each Spin call
// made. Its first commit is force-aborted and EscalateAfter is 1, so
// the first call made through it escalates to the irrevocable path.
type spinProbe struct {
	s      *tl2.STM
	yields atomic.Int64
	spins  []int64
}

func newSpinProbe(yieldEvery int) *spinProbe {
	p := &spinProbe{}
	p.s = tl2.New(tl2.Options{
		YieldEvery:    yieldEvery,
		Yield:         func() { p.yields.Add(1) },
		EscalateAfter: 1,
		Inject:        fault.NewInjector(1).Set(fault.CommitAbort, fault.Rule{Every: 1, Limit: 1}),
	})
	return p
}

func (p *spinProbe) body(tx *tl2.Tx) error {
	before := p.yields.Load()
	Spin(tx, spinUnits)
	p.spins = append(p.spins, p.yields.Load()-before)
	return nil
}

// check runs op and fails unless it ran the body runs times and every
// Spin call made want yields.
func (p *spinProbe) check(t *testing.T, what string, runs int, want int64, op func() error) {
	t.Helper()
	p.spins = p.spins[:0]
	if err := op(); err != nil {
		t.Fatal(err)
	}
	if len(p.spins) != runs {
		t.Fatalf("%s: body ran %d times, want %d", what, len(p.spins), runs)
	}
	for i, got := range p.spins {
		if got != want {
			t.Errorf("%s: Spin call %d yielded %d times, want %d", what, i, got, want)
		}
	}
}

// escalated checks the probe's first call: an aborted attempt, then
// the irrevocable one, each running Spin once.
func (p *spinProbe) escalated(t *testing.T, thread uint16, want int64) {
	t.Helper()
	p.check(t, "escalated", 2, want, func() error { return p.s.Atomic(thread, 0, p.body) })
	if e := p.s.ProgressStats().Escalations; e != 1 {
		t.Fatalf("escalations = %d, want 1", e)
	}
}

func (p *spinProbe) plain(t *testing.T, thread uint16, want int64) {
	t.Helper()
	p.check(t, "plain", 1, want, func() error { return p.s.Atomic(thread, 0, p.body) })
}

func (p *spinProbe) batch(t *testing.T, thread uint16, want int64) {
	t.Helper()
	p.check(t, "batch", 2, want, func() error {
		return p.s.AtomicBatch(thread, 0, []func(*tl2.Tx) error{p.body, p.body})
	})
}

// Yields one Spin(tx, spinUnits) call makes with preemption on (one
// per 256 units, the cadence Spin always had) and off.
const spinOn, spinOff = spinUnits / 256, 0

func TestSpinDefaultSilentWithinGOMAXPROCS(t *testing.T) {
	withGOMAXPROCS(t, 2)
	p := newSpinProbe(0)
	p.escalated(t, 1, spinOff)
	for thread := uint16(0); thread < 2; thread++ {
		p.plain(t, thread, spinOff)
		p.batch(t, thread, spinOff)
	}
}

func TestSpinDefaultPreemptsWhenOversubscribed(t *testing.T) {
	withGOMAXPROCS(t, 2)
	p, q := newSpinProbe(0), newSpinProbe(0)
	p.escalated(t, 0, spinOff)
	p.plain(t, 1, spinOff)
	p.plain(t, 2, spinOn)
	// The regime is STM-wide: the lower threads preempt again too.
	for _, thread := range []uint16{0, 1, 2} {
		p.plain(t, thread, spinOn)
		p.batch(t, thread, spinOn)
	}
	q.escalated(t, 2, spinOn)
}

func TestSpinExplicitSettingsIgnoreThreads(t *testing.T) {
	withGOMAXPROCS(t, 2)
	for _, tc := range []struct {
		every int
		want  int64
	}{
		{every: 4, want: spinOn},
		{every: -1, want: spinOff},
	} {
		for _, thread := range []uint16{0, 5} {
			p := newSpinProbe(tc.every)
			p.escalated(t, thread, tc.want)
			p.plain(t, thread, tc.want)
			p.batch(t, thread, tc.want)
		}
	}
}
