package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gstm/internal/libtm"
	"gstm/internal/tl2"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// The traced run attaches a probe to the runtimes' public hooks: a
// timing wrapper around the gate (SetGate), a timing wrapper around the
// tracer (SetTracer) and an attempt monitor (SetMonitor). Each records
// spans at its boundary, so a unit of work splits into
//
//	unit (thread run, frame or call) → admit → attempt → backoff
//
// and the unit's self time is what its children do not cover: work
// outside transactions.

// spanKind names a span's layer boundary.
type spanKind uint8

const (
	spanUnit    spanKind = iota // the root: a thread run, a frame or a call
	spanAdmit                   // gate admission, holds included
	spanCommit                  // an attempt that committed
	spanAbort                   // an attempt that aborted: wasted work
	spanBackoff                 // from an abort to the next admission or attempt
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"unit", "admit", "attempt.commit", "attempt.abort", "backoff"}

// maxThreads bounds the STM thread IDs a probe follows; events of
// higher IDs are ignored.
const maxThreads = 4

// spanCap is how many spans each thread keeps in memory for the span
// file. Durations and counts are accumulated for every span; only the
// file is capped.
const spanCap = 1 << 15

// latCap is the reservoir size for admission and attempt latencies.
const latCap = 1 << 14

type span struct {
	unit       uint64
	start, end int64 // ns since the probe's origin
	kind       spanKind
	thread     uint8
}

// threadProbe is one STM thread's slice of the probe. Only the
// goroutine running that thread writes it; inst is atomic because the
// monitor's commit and abort events carry only an instance number, and
// finding the thread that owns it reads every thread's inst.
type threadProbe struct {
	inst       atomic.Uint64 // in-flight attempt instance, 0 when none
	id         uint8
	unit       uint64 // current unit id
	attemptAt  int64
	backoffAt  int64 // abort time awaiting the next admission, -1 when none
	unitAborts int

	ns [numSpanKinds]int64 // summed span durations
	n  [numSpanKinds]int64 // span counts

	observeNs, observeN int64 // time spent in the wrapped tracer

	admitLat, attemptLat *reservoir
	spans                []span
	dropped              int64
	_                    [64]byte // keep neighbouring threads off one cache line
}

// probe is the recorder for one traced run.
type probe struct {
	origin  time.Time
	th      [maxThreads]threadProbe
	unitSeq atomic.Uint64
}

func newProbe() *probe {
	p := &probe{origin: time.Now()}
	for i := range p.th {
		p.th[i].id = uint8(i)
		p.th[i].backoffAt = -1
		p.th[i].admitLat = newReservoir(latCap, uint64(2*i+1))
		p.th[i].attemptLat = newReservoir(latCap, uint64(2*i+2))
		p.th[i].spans = make([]span, 0, spanCap)
	}
	return p
}

func (p *probe) now() int64 { return int64(time.Since(p.origin)) }

func (p *probe) thread(id uint16) *threadProbe {
	if int(id) >= maxThreads {
		return nil
	}
	return &p.th[id]
}

func (p *probe) byInstance(inst uint64) *threadProbe {
	for i := range p.th {
		if p.th[i].inst.Load() == inst {
			return &p.th[i]
		}
	}
	return nil
}

func (p *probe) record(tp *threadProbe, k spanKind, start, end int64) {
	tp.ns[k] += end - start
	tp.n[k]++
	if len(tp.spans) < spanCap {
		tp.spans = append(tp.spans, span{unit: tp.unit, start: start, end: end, kind: k, thread: tp.id})
	} else {
		tp.dropped++
	}
}

// closeBackoff ends a pending backoff span at t.
func (p *probe) closeBackoff(tp *threadProbe, t int64) {
	if tp.backoffAt >= 0 {
		p.record(tp, spanBackoff, tp.backoffAt, t)
		tp.backoffAt = -1
	}
}

// beginUnit opens a root span on one thread and returns its start.
func (p *probe) beginUnit(thread int) int64 {
	tp := &p.th[thread]
	tp.unit = p.unitSeq.Add(1)
	tp.unitAborts = 0
	return p.now()
}

// endUnit closes the root span opened by beginUnit and returns the
// number of aborted attempts inside it.
func (p *probe) endUnit(thread int, start int64) int {
	tp := &p.th[thread]
	p.record(tp, spanUnit, start, p.now())
	return tp.unitAborts
}

// beginShared opens a root span that workers share (a frame): every
// thread's children attach to it. Call it before the workers start and
// endShared after they have ended; the root is recorded on thread 0.
func (p *probe) beginShared(workers int) int64 {
	id := p.unitSeq.Add(1)
	for i := 0; i < workers; i++ {
		p.th[i].unit = id
		p.th[i].unitAborts = 0
	}
	return p.now()
}

func (p *probe) endShared(start int64) { p.record(&p.th[0], spanUnit, start, p.now()) }

// controllerGate is the gate surface the wrapper forwards: admission
// plus both optional extensions, so escalated transactions still pass
// without holding and sheds are still counted.
type controllerGate interface {
	Admit(tts.Pair)
	AdmitIrrevocable(tts.Pair)
	NoteShed(tts.Pair)
}

// timedGate times every admission.
type timedGate struct {
	inner controllerGate
	p     *probe
}

var (
	_ tl2.Gate              = timedGate{}
	_ tl2.ShedGate          = timedGate{}
	_ tl2.IrrevocableGate   = timedGate{}
	_ libtm.Gate            = timedGate{}
	_ libtm.ShedGate        = timedGate{}
	_ libtm.IrrevocableGate = timedGate{}
)

func (g timedGate) Admit(pr tts.Pair) { g.timed(pr, g.inner.Admit) }

func (g timedGate) AdmitIrrevocable(pr tts.Pair) { g.timed(pr, g.inner.AdmitIrrevocable) }

func (g timedGate) NoteShed(pr tts.Pair) { g.inner.NoteShed(pr) }

func (g timedGate) timed(pr tts.Pair, admit func(tts.Pair)) {
	tp := g.p.thread(pr.Thread)
	if tp == nil {
		admit(pr)
		return
	}
	t0 := g.p.now()
	g.p.closeBackoff(tp, t0)
	admit(pr)
	t1 := g.p.now()
	g.p.record(tp, spanAdmit, t0, t1)
	tp.admitLat.add(float64(t1 - t0))
}

// timedTracer forwards every event unchanged to inner, timing it, and
// then to an optional collector used for the state statistics.
type timedTracer struct {
	inner trace.Tracer
	col   *trace.Collector
	p     *probe
}

func (t timedTracer) OnCommit(inst uint64, pr tts.Pair) {
	tp := t.p.thread(pr.Thread)
	t0 := t.p.now()
	t.inner.OnCommit(inst, pr)
	t.observed(tp, t0)
	if t.col != nil {
		t.col.OnCommit(inst, pr)
	}
}

func (t timedTracer) OnAbort(pr tts.Pair, killer uint64) {
	tp := t.p.thread(pr.Thread)
	t0 := t.p.now()
	t.inner.OnAbort(pr, killer)
	t.observed(tp, t0)
	if t.col != nil {
		t.col.OnAbort(pr, killer)
	}
}

func (t timedTracer) observed(tp *threadProbe, t0 int64) {
	if tp != nil {
		tp.observeNs += t.p.now() - t0
		tp.observeN++
	}
}

// attemptMonitor turns the monitor's begin/commit/abort events into
// attempt spans. It implements tl2.Monitor and libtm.Monitor.
type attemptMonitor struct{ p *probe }

var (
	_ tl2.Monitor   = attemptMonitor{}
	_ libtm.Monitor = attemptMonitor{}
)

func (m attemptMonitor) OnTxBegin(inst uint64, pr tts.Pair) {
	tp := m.p.thread(pr.Thread)
	if tp == nil {
		return
	}
	t := m.p.now()
	m.p.closeBackoff(tp, t)
	tp.attemptAt = t
	tp.inst.Store(inst)
}

func (attemptMonitor) OnTxRead(uint64, any, int64)  {}
func (attemptMonitor) OnTxWrite(uint64, any, int64) {}

func (m attemptMonitor) OnTxCommit(inst uint64) { m.end(inst, spanCommit) }

func (m attemptMonitor) OnTxAbort(inst uint64) { m.end(inst, spanAbort) }

func (m attemptMonitor) end(inst uint64, k spanKind) {
	tp := m.p.byInstance(inst)
	if tp == nil {
		return
	}
	t := m.p.now()
	m.p.record(tp, k, tp.attemptAt, t)
	tp.attemptLat.add(float64(t - tp.attemptAt))
	tp.inst.Store(0)
	if k == spanAbort {
		tp.backoffAt = t
		tp.unitAborts++
	}
}

// probeTotals sums the per-thread accumulators once the run is over.
type probeTotals struct {
	ns, n               [numSpanKinds]int64
	observeNs, observeN int64
	admitLat            []float64
	attemptLat          []float64
	spans, dropped      int64
}

func (p *probe) totals() probeTotals {
	var t probeTotals
	var admit, attempt []*reservoir
	for i := range p.th {
		tp := &p.th[i]
		for k := range tp.ns {
			t.ns[k] += tp.ns[k]
			t.n[k] += tp.n[k]
		}
		t.observeNs += tp.observeNs
		t.observeN += tp.observeN
		t.spans += int64(len(tp.spans))
		t.dropped += tp.dropped
		admit = append(admit, tp.admitLat)
		attempt = append(attempt, tp.attemptLat)
	}
	t.admitLat, t.attemptLat = pooled(admit...), pooled(attempt...)
	return t
}

// writeSpans writes the kept spans as CSV, one line per span. Parent
// is the root span's name for children and "-" for roots.
func (p *probe) writeSpans(path, rootName string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "unit,thread,name,parent,start_ns,end_ns")
	for i := range p.th {
		for _, s := range p.th[i].spans {
			name, parent := spanNames[s.kind], rootName
			if s.kind == spanUnit {
				name, parent = rootName, "-"
			}
			fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", s.unit, s.thread, name, parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
