// Package libtm re-implements the LibTM software transactional memory
// of Lupei et al. (PPoPP'10) that SynQuake is built on (paper
// Section VIII): an object-based STM with selectable conflict
// *detection* — from fully pessimistic (visible readers and
// encounter-time write locks) to fully optimistic (invisible reads
// validated at commit, commit-time write locks) — and selectable
// conflict *resolution* between writers and visible readers:
// abort-readers or wait-for-readers.
//
// The paper's SynQuake experiments use fully-optimistic detection with
// abort-readers resolution; the other modes exist because LibTM offers
// them and the mode choice materially changes the abort/variance
// profile (they are exercised by the mode-equivalence tests and the
// ablation benchmarks).
//
// As in package tl2, every transaction attempt has a unique instance ID
// and aborts carry their killer's instance, so the same trace/model/
// guide pipeline plugs in unchanged.
package libtm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/effect"
	"gstm/internal/fault"
	"gstm/internal/interleave"
	"gstm/internal/overload"
	"gstm/internal/progress"
	"gstm/internal/trace"
	"gstm/internal/tts"
)

// ReadDetection selects how reads are detected.
type ReadDetection int

// Read detection modes.
const (
	// VisibleReads registers the reader on the object so writers see it
	// (pessimistic reads).
	VisibleReads ReadDetection = iota
	// InvisibleReads records a version and validates at commit
	// (optimistic reads).
	InvisibleReads
)

// WriteDetection selects when write locks are acquired.
type WriteDetection int

// Write detection modes.
const (
	// EncounterWrites acquires the object's write lock at Write() time.
	EncounterWrites WriteDetection = iota
	// CommitWrites buffers writes and locks at commit (lazy).
	CommitWrites
)

// Resolution selects how a writer treats visible readers it conflicts
// with.
type Resolution int

// Conflict resolution policies.
const (
	// AbortReaders kills conflicting visible readers.
	AbortReaders Resolution = iota
	// WaitForReaders spins (bounded) until readers drain, then aborts
	// itself if they do not.
	WaitForReaders
)

// Mode is a full LibTM configuration.
type Mode struct {
	Reads      ReadDetection
	Writes     WriteDetection
	Resolution Resolution
}

// FullyOptimistic is the configuration the paper's SynQuake experiments
// use: invisible reads, commit-time write locks, abort-readers.
var FullyOptimistic = Mode{Reads: InvisibleReads, Writes: CommitWrites, Resolution: AbortReaders}

// FullyPessimistic acquires read and write locks at encounter time.
var FullyPessimistic = Mode{Reads: VisibleReads, Writes: EncounterWrites, Resolution: WaitForReaders}

// String renders the mode compactly.
func (m Mode) String() string {
	r, w, c := "vis", "enc", "abort-readers"
	if m.Reads == InvisibleReads {
		r = "invis"
	}
	if m.Writes == CommitWrites {
		w = "commit"
	}
	if m.Resolution == WaitForReaders {
		c = "wait-for-readers"
	}
	return fmt.Sprintf("libtm(%s-reads/%s-writes/%s)", r, w, c)
}

// Gate is the guided-execution admission hook (same contract as
// tl2.Gate).
type Gate interface {
	Admit(p tts.Pair)
}

// IrrevocableGate is the optional non-blocking admission surface for
// escalated (irrevocable serial) transactions; same contract as
// tl2.IrrevocableGate. Gates that do not implement it are bypassed for
// escalated transactions.
type IrrevocableGate interface {
	AdmitIrrevocable(p tts.Pair)
}

// ShedGate is the optional Gate extension notified when the overload
// limiter sheds a pair before it could reach Admit; same contract as
// tl2.ShedGate (count only, never hold).
type ShedGate interface {
	NoteShed(p tts.Pair)
}

// Options configures an STM instance.
type Options struct {
	// Mode selects detection and resolution. The zero value is
	// fully pessimistic with abort-readers; most callers pass
	// FullyOptimistic or FullyPessimistic.
	Mode Mode
	// MaxRetries bounds conflict retries per Atomic call (0 = unbounded).
	MaxRetries int
	// WaitSpin bounds how long WaitForReaders spins before self-abort.
	// Defaults to 64 yields.
	WaitSpin int
	// YieldEvery inserts a scheduler yield every N transactional
	// accesses and once at commit entry, emulating multicore
	// interleaving of critical sections on hosts with fewer cores than
	// threads (see tl2.Options). 0 means the adaptive default: yield
	// every 4 accesses only while the highest thread ID seen, plus one,
	// exceeds GOMAXPROCS sampled at New (see internal/interleave and
	// Interleaving). Positive always yields; negative never does.
	YieldEvery int
	// Inject, when non-nil, arms the deterministic fault-injection
	// hooks in the commit path (fault.CommitAbort, fault.CommitDelay,
	// fault.LockReleaseDelay); same contract as tl2.Options.Inject.
	Inject *fault.Injector
	// EscalateAfter is the abort count at which an Atomic call falls
	// back to the irrevocable serial path; 0 means the default
	// (DefaultEscalateAfter), negative disables escalation. Same
	// contract as tl2.Options.EscalateAfter.
	EscalateAfter int
	// EscalateTime escalates a call retrying for at least this long
	// (0 disables time-based escalation).
	EscalateTime time.Duration
	// DefaultDeadline, when positive, bounds every plain Atomic call
	// with a context.WithTimeout of this duration.
	DefaultDeadline time.Duration
	// WatchdogWindow is the livelock watchdog's sampling window: 0
	// means progress.DefaultWatchdogWindow, negative disables.
	WatchdogWindow time.Duration
	// Yield, when non-nil, replaces runtime.Gosched at every suspension
	// point (YieldEvery interleaving, lock spins, backoff, quiesce), so
	// a deterministic scheduler (internal/sched) can serialize the
	// runtime's interleavings. Waits that would park a goroutine on a
	// mutex become spins through this hook instead — a parked goroutine
	// is invisible to a cooperative scheduler. nil (the default) keeps
	// the stock Gosched behavior.
	Yield func()
	// Manifest registers a sealed static-effect manifest (produced by
	// `gstmlint -manifest`, loaded with effect.ReadFile). Transaction
	// IDs whose every static site proved readonly draw their
	// descriptor from a pool (alloc-free at steady state) and are
	// guarded against writes. Nil — the default — costs one pointer
	// check per call.
	Manifest *effect.Manifest
	// ROGuard selects the certified-readonly soundness guard's
	// consequence when a certified transaction issues a write: trap
	// the call with ErrReadOnlyViolation, or decertify and retry
	// uncertified. The zero value (effect.GuardAuto) traps under -race
	// builds and recovers in production.
	ROGuard effect.GuardMode
	// BatchMax caps how many bodies one AtomicBatch call coalesces
	// into a single commit envelope; same contract as
	// tl2.Options.BatchMax (0 means DefaultBatchMax, negative
	// disables the cap).
	BatchMax int
	// Overload, when non-nil, attaches the adaptive admission
	// controller (internal/overload) in front of every Atomic call;
	// same contract as tl2.Options.Overload, including the certified
	// read-only non-counted lane.
	Overload *overload.Limiter
	// Mutate enables deliberate correctness knockouts for the opacity
	// oracle's mutation harness (internal/oracle); see Mutations. All
	// fields false (the default) leaves the runtime stock.
	Mutate Mutations
}

// Mutations are deliberate, test-only correctness knockouts used to
// prove the opacity oracle can detect real bugs (ISSUE 5's mutation
// harness). They are plain Options fields rather than build tags so the
// explorer can run stock and mutated instances in one process.
type Mutations struct {
	// SkipReaderWait makes a writer take the write lock immediately even
	// when foreign visible readers are registered, without dooming or
	// waiting for them — breaking the visible-read protection both
	// resolution policies provide.
	SkipReaderWait bool
	// SkipReadValidation disables commit-time validation of invisible
	// reads, letting a transaction commit on top of a torn snapshot.
	SkipReadValidation bool
	// SkipROValidation disables commit-time invisible-read validation
	// on certified-readonly attempts only, so the explorer can prove
	// the certified path's validation is load-bearing: with it knocked
	// out, a certified scanner commits torn snapshots — an opacity
	// violation the oracle must catch.
	SkipROValidation bool
	// SkipVersionBump publishes commit-time writes without advancing
	// the object's version — LibTM's per-object analogue of a broken
	// clock merge. Invisible readers validating against the stale
	// version cannot see that their snapshot was overwritten, so torn
	// snapshots commit — an opacity violation the explorer's
	// sharded/batch mutation harness must catch.
	SkipVersionBump bool
}

// DefaultEscalateAfter is the escalation abort threshold when
// Options.EscalateAfter is zero (same value as tl2's).
const DefaultEscalateAfter = 256

// Monitor observes every transactional operation with its value, for
// the opacity oracle (internal/oracle). The structurally identical
// interface exists in package tl2 so one recorder serves both runtimes.
// Implementations must be safe for concurrent use. loc is the *Obj the
// operation touched.
type Monitor interface {
	OnTxBegin(instance uint64, p tts.Pair)
	OnTxRead(instance uint64, loc any, val int64)
	OnTxWrite(instance uint64, loc any, val int64)
	OnTxCommit(instance uint64)
	OnTxAbort(instance uint64)
}

// STM is a LibTM transactional memory domain.
type STM struct {
	opts Options
	// yields decides per attempt whether the YieldEvery interleaving
	// yields are on (see internal/interleave).
	yields    interleave.Policy
	instances atomic.Uint64
	commits   atomic.Uint64
	aborts    atomic.Uint64
	tracer    atomic.Pointer[tracerBox]
	gate      atomic.Pointer[gateBox]
	mon       atomic.Pointer[monBox]

	irrevocable irrevocableState

	// Progress-guarantee state, mirroring tl2 (see internal/progress).
	escalations  atomic.Uint64
	deadlineMiss atomic.Uint64
	sheds        atomic.Uint64
	escThreshold atomic.Int64
	watchdog     *progress.Watchdog
	lat          atomic.Pointer[latBox]

	// Certified read-only fast path (see readonly.go): the manifest's
	// certified transaction IDs, the certified-commit counter, and the
	// soundness guard's violation log.
	ro        *effect.ROSet
	roCommits atomic.Uint64
	roLog     effect.ViolationLog
}

type tracerBox struct{ t trace.Tracer }
type gateBox struct{ g Gate }
type latBox struct{ r *progress.LatencyRecorder }
type monBox struct{ m Monitor }

// New returns an STM with the given options.
func New(opts Options) *STM {
	if opts.WaitSpin <= 0 {
		opts.WaitSpin = 64
	}
	s := &STM{opts: opts}
	s.yields.Init(opts.YieldEvery)
	s.ro = effect.NewROSet(opts.Manifest)
	s.escThreshold.Store(configuredThreshold(opts.EscalateAfter))
	if opts.WatchdogWindow >= 0 {
		s.watchdog = progress.NewWatchdog(opts.WatchdogWindow)
	}
	s.SetTracer(trace.Nop{})
	return s
}

// configuredThreshold maps Options.EscalateAfter to the effective
// escalation threshold (0 → default, negative → disabled as -1).
func configuredThreshold(after int) int64 {
	switch {
	case after == 0:
		return DefaultEscalateAfter
	case after < 0:
		return -1
	default:
		return int64(after)
	}
}

// Mode returns the configured mode.
func (s *STM) Mode() Mode { return s.opts.Mode }

// SetTracer installs the event sink (nil restores the no-op tracer).
func (s *STM) SetTracer(t trace.Tracer) {
	if t == nil {
		t = trace.Nop{}
	}
	s.tracer.Store(&tracerBox{t})
}

// SetGate installs (or removes, with nil) the guided-execution gate.
func (s *STM) SetGate(g Gate) {
	if g == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&gateBox{g})
}

// SetMonitor installs (or removes, with nil) the operation monitor.
// The nil fast path costs one atomic pointer load per transaction.
func (s *STM) SetMonitor(m Monitor) {
	if m == nil {
		s.mon.Store(nil)
		return
	}
	s.mon.Store(&monBox{m})
}

// monLoad returns the installed monitor, or nil.
func (s *STM) monLoad() Monitor {
	if mb := s.mon.Load(); mb != nil {
		return mb.m
	}
	return nil
}

// yield is the runtime's single suspension primitive: Options.Yield
// when armed, runtime.Gosched otherwise.
func (s *STM) yield() {
	if y := s.opts.Yield; y != nil {
		y()
		return
	}
	runtime.Gosched()
}

// Interleaving reports whether attempts starting now insert the
// YieldEvery interleaving yields; same contract as tl2's.
func (s *STM) Interleaving() bool { return s.yields.On() }

// Commits returns the number of committed transactions.
func (s *STM) Commits() uint64 { return s.commits.Load() }

// Aborts returns the number of aborted attempts.
func (s *STM) Aborts() uint64 { return s.aborts.Load() }

// ResetCounters zeroes the commit/abort counters.
func (s *STM) ResetCounters() {
	s.commits.Store(0)
	s.aborts.Store(0)
	s.sheds.Store(0)
}

// Obj is one transactional object holding an int64. Create with NewObj
// and never copy it after first use (enforced by `go vet -copylocks`
// and gstmlint's gstm003).
type Obj struct {
	_          noCopy
	mu         sync.Mutex
	version    uint64
	writerInst uint64         // instance holding the write lock (0 = none)
	writerTx   *Tx            // the locking transaction
	lastWriter uint64         // instance of the last committed writer
	readers    map[*Tx]uint64 // visible readers → their instance; made on first registration
	val        int64
}

// NewObj returns an Obj initialized to x.
func NewObj(x int64) *Obj {
	return &Obj{val: x}
}

// NewFloatObj returns an Obj initialized to the bit pattern of f.
func NewFloatObj(f float64) *Obj {
	return NewObj(int64(math.Float64bits(f)))
}

// Value loads the committed value non-transactionally (for setup and
// post-run verification).
func (o *Obj) Value() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.val
}

// FloatValue loads the committed value as a float64.
func (o *Obj) FloatValue() float64 {
	return math.Float64frombits(uint64(o.Value()))
}

// Store sets the value non-transactionally (setup only).
func (o *Obj) Store(x int64) {
	o.mu.Lock()
	o.val = x
	o.mu.Unlock()
}

// StoreFloat sets a float64 non-transactionally (setup only).
func (o *Obj) StoreFloat(f float64) {
	o.Store(int64(math.Float64bits(f)))
}

// abortSignal is the internal conflict-abort control signal.
type abortSignal struct{ killer uint64 }

// ErrRetryLimit is returned when Options.MaxRetries is exceeded.
var ErrRetryLimit = errors.New("libtm: transaction exceeded retry limit")

// ErrDeadline is returned by AtomicCtx when the context expires before
// the transaction commits; the returned error wraps both ErrDeadline
// and the context's own error.
var ErrDeadline = errors.New("libtm: transaction deadline exceeded")

type readEntry struct {
	o   *Obj
	ver uint64
}

type writeEntry struct {
	o   *Obj
	val int64
}

// Tx is one transaction attempt.
type Tx struct {
	stm      *STM
	pair     tts.Pair
	instance uint64

	invReads []readEntry // invisible-read validation set
	visReads []*Obj      // objects we registered on as visible readers
	writes   []writeEntry
	locked   []*Obj // objects whose write lock we hold (encounter mode)

	// batch is the number of logical transactions this attempt commits
	// (>1 only inside AtomicBatch envelopes); counters and the overload
	// window attribute commitUnits() commits per successful attempt.
	batch int

	// doomed is set by a writer that abort-readers'ed us; killer is its
	// instance.
	doomed atomic.Bool
	killer atomic.Uint64

	// ops counts transactional accesses for YieldEvery interleaving;
	// yielding caches the attempt's interleaving decision, made once
	// per attempt by reset.
	ops      int
	yielding bool
	// done is the AtomicCtx context's Done channel (nil = no deadline).
	done <-chan struct{}
	// roCert marks an attempt running under a certified-readonly
	// transaction ID (Options.Manifest): the descriptor came from
	// roTxPool and Write trips the soundness guard.
	roCert bool
	// irrev marks an escalated (irrevocable serial) attempt: reads and
	// writes take write locks at encounter time and cannot abort.
	irrev bool
	// mon is the per-attempt monitor snapshot (nil = no monitoring).
	mon Monitor
}

// ctxDone reports whether the transaction's deadline has expired.
func (tx *Tx) ctxDone() bool {
	if tx.done == nil {
		return false
	}
	select {
	case <-tx.done:
		return true
	default:
		return false
	}
}

// maybeYield emulates multicore interleaving of transactional code on
// under-provisioned hosts (see Options.YieldEvery). It is split so the
// no-yield fast path inlines into Read and Write.
func (tx *Tx) maybeYield() {
	if tx.yielding {
		tx.yieldEvery()
	}
}

func (tx *Tx) yieldEvery() {
	tx.ops++
	if tx.ops%tx.stm.yields.Every() == 0 {
		tx.stm.yield()
	}
}

// reset prepares the descriptor for a new attempt of tx.pair. Both
// attempt-start paths (atomicCtx, and through it AtomicBatch, plus
// runEscalated) go through here, so this is where the thread is
// registered with the interleaving policy.
func (tx *Tx) reset() {
	tx.instance = tx.stm.instances.Add(1)
	tx.invReads = tx.invReads[:0]
	tx.writes = tx.writes[:0]
	tx.ops = 0
	tx.yielding = tx.stm.yields.Enter(tx.pair.Thread)
	tx.doomed.Store(false)
	tx.killer.Store(0)
}

// Pair returns the (transaction, thread) identity of the attempt.
func (tx *Tx) Pair() tts.Pair { return tx.pair }

func (tx *Tx) abort(killer uint64) {
	panic(abortSignal{killer})
}

// checkDoomed aborts the transaction if a writer killed it.
func (tx *Tx) checkDoomed() {
	if tx.doomed.Load() {
		tx.abort(tx.killer.Load())
	}
}

func (tx *Tx) lookupWrite(o *Obj) (int64, bool) {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].o == o {
			return tx.writes[i].val, true
		}
	}
	return 0, false
}

// monRead reports a completed transactional read to the monitor.
func (tx *Tx) monRead(o *Obj, v int64) {
	if tx.mon != nil {
		tx.mon.OnTxRead(tx.instance, o, v)
	}
}

// Read returns the transactional value of o.
func (tx *Tx) Read(o *Obj) int64 {
	tx.maybeYield()
	tx.checkDoomed()
	if v, ok := tx.lookupWrite(o); ok {
		tx.monRead(o, v)
		return v
	}
	if tx.irrev {
		// Escalated: reads take the write lock (two-phase locking), so
		// no invisible read can be invalidated and no visible-reader
		// registration can be doomed — the attempt cannot abort.
		tx.lockIrrev(o)
		o.mu.Lock()
		v := o.val
		o.mu.Unlock()
		tx.monRead(o, v)
		return v
	}
	o.mu.Lock()
	if o.writerInst != 0 && o.writerTx != tx {
		k := o.writerInst
		o.mu.Unlock()
		tx.abort(k)
	}
	v := o.val
	if tx.stm.opts.Mode.Reads == VisibleReads {
		if o.readers == nil {
			o.readers = make(map[*Tx]uint64)
		}
		if _, already := o.readers[tx]; !already {
			o.readers[tx] = tx.instance
			tx.visReads = append(tx.visReads, o)
		}
	} else {
		tx.invReads = append(tx.invReads, readEntry{o, o.version})
	}
	o.mu.Unlock()
	tx.monRead(o, v)
	return v
}

// Write transactionally stores x into o. In encounter mode the write
// lock is taken now; in commit mode the write is buffered.
func (tx *Tx) Write(o *Obj, x int64) {
	if tx.roCert {
		// Soundness guard: the manifest certified this transaction ID
		// readonly, so no write may ever reach here. Trap before
		// anything is buffered or locked; runAttempt decides the
		// consequence per Options.ROGuard.
		panic(roViolation{key: tx.stm.ro.Key(tx.pair.Tx)})
	}
	tx.maybeYield()
	tx.checkDoomed()
	if tx.irrev {
		// Escalated: lock at encounter time regardless of mode, but
		// keep the store buffered so a user error rolls back cleanly.
		tx.lockIrrev(o)
	} else if tx.stm.opts.Mode.Writes == EncounterWrites {
		tx.lockForWrite(o)
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].o == o {
			tx.writes[i].val = x
			if tx.mon != nil {
				tx.mon.OnTxWrite(tx.instance, o, x)
			}
			return
		}
	}
	tx.writes = append(tx.writes, writeEntry{o, x})
	if tx.mon != nil {
		tx.mon.OnTxWrite(tx.instance, o, x)
	}
}

// ReadFloat reads o as a float64.
func (tx *Tx) ReadFloat(o *Obj) float64 {
	return math.Float64frombits(uint64(tx.Read(o)))
}

// WriteFloat writes f into o.
func (tx *Tx) WriteFloat(o *Obj, f float64) {
	tx.Write(o, int64(math.Float64bits(f)))
}

// lockForWrite acquires o's write lock, resolving conflicts with
// visible readers per the configured policy. Aborts self on
// writer-writer conflict.
func (tx *Tx) lockForWrite(o *Obj) {
	// Quiesce against an active irrevocable transaction before taking
	// the first write lock (and only the first: lock holders must never
	// block on the token or the irrevocable spin-acquire deadlocks).
	if len(tx.locked) == 0 {
		tx.stm.irrevocable.quiesce(tx.stm.opts.Yield)
	}
	for spin := 0; ; spin++ {
		o.mu.Lock()
		if o.writerTx == tx {
			o.mu.Unlock()
			return // already ours
		}
		if o.writerInst != 0 {
			k := o.writerInst
			o.mu.Unlock()
			tx.abort(k) // writer-writer: newcomer yields
		}
		// Resolve visible readers (other than ourselves).
		others := 0
		if len(o.readers) != 0 {
			for r := range o.readers {
				if r != tx {
					others++
				}
			}
		}
		if others == 0 || tx.stm.opts.Mutate.SkipReaderWait {
			o.writerInst = tx.instance
			o.writerTx = tx
			tx.locked = append(tx.locked, o)
			o.mu.Unlock()
			return
		}
		switch tx.stm.opts.Mode.Resolution {
		case AbortReaders:
			for r := range o.readers {
				if r == tx {
					continue
				}
				r.killer.Store(tx.instance)
				r.doomed.Store(true)
				delete(o.readers, r)
			}
			o.writerInst = tx.instance
			o.writerTx = tx
			tx.locked = append(tx.locked, o)
			o.mu.Unlock()
			return
		case WaitForReaders:
			o.mu.Unlock()
			// The wait observes the deadline and the irrevocable flag: a
			// cancelled transaction stops waiting, and a lock holder must
			// not out-wait an irrevocable transaction that needs its locks.
			if spin >= tx.stm.opts.WaitSpin || tx.ctxDone() ||
				(len(tx.locked) > 0 && tx.stm.irrevocable.active.Load()) {
				tx.abort(0) // readers did not drain: self-abort, unknown killer
			}
			tx.stm.yield()
		}
	}
}

// commit finishes the attempt: acquire commit-time locks, validate
// invisible reads, publish writes, release everything.
func (tx *Tx) commit() {
	// Suspension point between body and commit protocol (see
	// Options.YieldEvery): guarantees overlap windows for short
	// transactions on under-provisioned hosts.
	if tx.yielding {
		tx.stm.yield()
	}
	if inj := tx.stm.opts.Inject; inj != nil {
		if inj.Fire(fault.CommitAbort) {
			tx.abort(0)
		}
		inj.Sleep(fault.CommitDelay)
	}
	if tx.stm.opts.Mode.Writes == CommitWrites {
		for _, w := range tx.writes {
			tx.lockForWrite(w.o)
		}
	}
	tx.checkDoomed()
	// Validate invisible reads: version unchanged and no foreign writer.
	// The mutation knockout (oracle sensitivity harness) skips this loop
	// wholesale, committing on top of whatever snapshot the reads saw.
	if !tx.stm.opts.Mutate.SkipReadValidation &&
		!(tx.roCert && tx.stm.opts.Mutate.SkipROValidation) {
		for _, r := range tx.invReads {
			r.o.mu.Lock()
			bad := r.o.version != r.ver || (r.o.writerInst != 0 && r.o.writerTx != tx)
			var k uint64
			if bad {
				if r.o.writerInst != 0 && r.o.writerTx != tx {
					k = r.o.writerInst // a foreign writer holds the lock
				} else {
					// The version moved (possibly while we hold our own
					// commit-time lock): the culprit is the committer that
					// bumped it, never ourselves.
					k = r.o.lastWriter
				}
			}
			r.o.mu.Unlock()
			if bad {
				tx.abort(k)
			}
		}
	}
	// Validation passed and every write lock is held: an injected
	// stall here starves rivals blocked on those locks — the
	// worst-case committer.
	if inj := tx.stm.opts.Inject; inj != nil {
		inj.Sleep(fault.LockReleaseDelay)
	}
	// Publish writes and release write locks. The SkipVersionBump
	// mutation (oracle sensitivity harness) publishes the value without
	// moving the version, blinding concurrent invisible-read validation.
	for _, w := range tx.writes {
		w.o.mu.Lock()
		w.o.val = w.val
		if !tx.stm.opts.Mutate.SkipVersionBump {
			w.o.version++
		}
		w.o.lastWriter = tx.instance
		w.o.writerInst = 0
		w.o.writerTx = nil
		w.o.mu.Unlock()
	}
	tx.locked = tx.locked[:0]
	tx.releaseVisibleReads()
	if tx.roCert {
		tx.stm.roCommits.Add(tx.commitUnits())
	}
}

// cleanupAfterAbort releases everything the failed attempt held.
func (tx *Tx) cleanupAfterAbort() {
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

func (tx *Tx) releaseVisibleReads() {
	for _, o := range tx.visReads {
		o.mu.Lock()
		delete(o.readers, tx)
		o.mu.Unlock()
	}
	tx.visReads = tx.visReads[:0]
}

// Atomic executes fn transactionally as static transaction txID on the
// given thread, retrying on conflicts. A non-nil error from fn rolls
// back and returns without retry. When Options.DefaultDeadline is set
// the call is bounded by that duration and may return ErrDeadline;
// otherwise it delegates to AtomicCtx with a background context.
func (s *STM) Atomic(thread, txID uint16, fn func(*Tx) error) error {
	ctx := context.Background()
	if d := s.opts.DefaultDeadline; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	return s.AtomicCtx(ctx, thread, txID, fn)
}

// AtomicCtx is Atomic with a deadline: the retry loop, backoff sleeps,
// the WaitForReaders spin and escalation token acquisition all observe
// ctx.Done(), returning an error wrapping ErrDeadline and ctx.Err()
// when the context expires first. Once the abort count reaches the
// (watchdog-adjusted) escalation threshold or the call outlives
// Options.EscalateTime, the transaction re-runs on the irrevocable
// serial path and is guaranteed to commit. A nil ctx behaves like
// context.Background().
func (s *STM) AtomicCtx(ctx context.Context, thread, txID uint16, fn func(*Tx) error) error {
	return s.AtomicPri(ctx, thread, txID, overload.PriNormal, fn)
}

// AtomicPri is AtomicCtx with an explicit admission priority class for
// the overload limiter (Options.Overload); same contract as
// tl2.AtomicPri. A shed call returns an error wrapping
// overload.ErrShed before any descriptor exists.
func (s *STM) AtomicPri(ctx context.Context, thread, txID uint16, pri overload.Pri, fn func(*Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	roCert := s.ro != nil && s.ro.Certified(txID)
	lim := s.opts.Overload
	counted := false
	var admitted time.Time
	if lim != nil {
		if roCert {
			// Certified read-only transactions ride the non-counted
			// lane: no charge, no shed.
			lim.NoteReadOnly()
		} else if err := lim.Acquire(ctx, pri); err != nil {
			if errors.Is(err, overload.ErrShed) {
				s.sheds.Add(1)
				if gb := s.gate.Load(); gb != nil {
					if sg, ok := gb.g.(ShedGate); ok {
						sg.NoteShed(tts.Pair{Tx: txID, Thread: thread})
					}
				}
				return err
			}
			return s.deadlineErr(ctx)
		} else {
			counted = true
			admitted = lim.Now()
		}
	}
	// Every transaction draws a pooled descriptor whose set slices keep
	// their capacity across calls: the alloc-free steady state. Pooling
	// the general (writing) path is safe because every attempt path —
	// commit, abort, user error, escalation — deregisters the
	// descriptor from reader maps and write locks before atomicCtx
	// returns; see pool.go for the full argument.
	tx := txPool.Get().(*Tx)
	tx.stm = s
	tx.batch = 1
	tx.pair = tts.Pair{Tx: txID, Thread: thread}
	tx.done = ctx.Done()
	tx.roCert = roCert

	var t0 time.Time
	var rec *progress.LatencyRecorder
	if lb := s.lat.Load(); lb != nil {
		rec = lb.r
	}
	if rec != nil || s.opts.EscalateTime > 0 {
		t0 = time.Now()
	}
	err := s.atomicCtx(ctx, tx, fn, t0)
	if rec != nil {
		rec.Record(tx.pair, time.Since(t0))
	}
	if counted {
		lim.Release(admitted, err == nil)
	}
	// Deliberately not deferred: a user panic out of fn propagates
	// without cleanup, so its descriptor may still be registered on
	// objects and must leak rather than recycle.
	putTx(tx)
	return err
}

// atomicCtx is the retry loop behind AtomicCtx.
func (s *STM) atomicCtx(ctx context.Context, tx *Tx, fn func(*Tx) error, t0 time.Time) error {
	attempts := 0
	for {
		if tx.ctxDone() {
			return s.deadlineErr(ctx)
		}
		if attempts > 0 && s.shouldEscalate(attempts, t0) {
			return s.runEscalated(ctx, tx, fn)
		}
		if gb := s.gate.Load(); gb != nil {
			gb.g.Admit(tx.pair)
		}
		tx.reset()
		tx.mon = s.monLoad()
		if tx.mon != nil {
			tx.mon.OnTxBegin(tx.instance, tx.pair)
		}

		killer, userErr, committed := s.runAttempt(tx, fn)
		if committed {
			if tx.mon != nil {
				tx.mon.OnTxCommit(tx.instance)
			}
			s.commits.Add(tx.commitUnits())
			s.tracer.Load().t.OnCommit(tx.instance, tx.pair)
			return nil
		}
		if tx.mon != nil {
			tx.mon.OnTxAbort(tx.instance)
		}
		if userErr != nil {
			return userErr
		}
		s.aborts.Add(1)
		s.opts.Overload.NoteAbort()
		s.tracer.Load().t.OnAbort(tx.pair, killer)
		attempts++
		if s.opts.MaxRetries > 0 && attempts > s.opts.MaxRetries {
			return ErrRetryLimit
		}
		s.observeWatchdog()
		if y := s.opts.Yield; y != nil {
			// Under the deterministic scheduler real-time sleeps are both
			// nondeterministic and useless (one goroutine runs at a time);
			// a single yield point stands in for the whole backoff.
			y()
		} else {
			backoff(tx.done, attempts)
		}
	}
}

// deadlineErr counts and builds the ErrDeadline-wrapping error.
func (s *STM) deadlineErr(ctx context.Context) error {
	s.deadlineMiss.Add(1)
	return fmt.Errorf("%w: %w", ErrDeadline, ctx.Err())
}

// shouldEscalate reports whether the retrying call exhausted its
// escalation budget (aborts against the watchdog-adjusted threshold,
// or age against Options.EscalateTime).
func (s *STM) shouldEscalate(attempts int, t0 time.Time) bool {
	if th := s.escThreshold.Load(); th > 0 && int64(attempts) >= th {
		return true
	}
	if et := s.opts.EscalateTime; et > 0 && !t0.IsZero() && time.Since(t0) >= et {
		return true
	}
	return false
}

// observeWatchdog feeds the livelock watchdog from the abort path and
// applies its verdict, mirroring tl2: trip → halve the effective
// escalation threshold (floor 1, arming it even when configured off);
// healthy → restore the configured value.
func (s *STM) observeWatchdog() {
	if s.watchdog == nil {
		return
	}
	switch s.watchdog.Observe(time.Now(), s.commits.Load(), s.aborts.Load()) {
	case progress.VerdictTrip:
		s.opts.Overload.NotePressure()
		if th := s.escThreshold.Load(); th > 1 {
			half := th / 2
			if half < 1 {
				half = 1
			}
			s.escThreshold.CompareAndSwap(th, half)
		} else if th <= 0 {
			s.escThreshold.CompareAndSwap(th, DefaultEscalateAfter)
		}
	case progress.VerdictHealthy:
		if th, want := s.escThreshold.Load(), configuredThreshold(s.opts.EscalateAfter); th != want {
			s.escThreshold.CompareAndSwap(th, want)
		}
	}
}

// ProgressStats snapshots the progress-guarantee counters.
func (s *STM) ProgressStats() progress.Stats {
	return progress.Stats{
		Escalations:       s.escalations.Load(),
		DeadlineExceeded:  s.deadlineMiss.Load(),
		WatchdogTrips:     s.watchdog.Trips(),
		EscalateThreshold: s.escThreshold.Load(),
		Sheds:             s.sheds.Load(),
	}
}

// SetLatencyRecorder attaches (nil detaches) a per-(tx,thread) Atomic
// latency recorder; off by default, same contract as tl2's.
func (s *STM) SetLatencyRecorder(r *progress.LatencyRecorder) {
	if r == nil {
		s.lat.Store(nil)
		return
	}
	s.lat.Store(&latBox{r})
}

func (s *STM) runAttempt(tx *Tx, fn func(*Tx) error) (killer uint64, userErr error, committed bool) {
	defer func() {
		if r := recover(); r != nil {
			switch sig := r.(type) {
			case abortSignal:
				tx.cleanupAfterAbort()
				killer = sig.killer
			case roViolation:
				// Certified-readonly soundness guard: trap mode surfaces
				// the violation to the caller; recover mode decertifies
				// the ID and retries the attempt uncertified.
				tx.cleanupAfterAbort()
				userErr = s.handleROViolation(tx, sig)
			default:
				panic(r)
			}
		}
	}()
	if err := fn(tx); err != nil {
		tx.cleanupAfterAbort()
		return 0, err, false
	}
	tx.commit()
	return 0, nil, true
}

// backoff damps retry livelock; sleeps observe the deadline so a
// cancelled transaction is noticed promptly.
func backoff(done <-chan struct{}, attempts int) {
	if attempts < 4 {
		for i := 0; i < attempts; i++ {
			runtime.Gosched()
		}
		return
	}
	d := time.Duration(attempts)
	if d > 32 {
		d = 32
	}
	d *= time.Microsecond
	if done == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}
