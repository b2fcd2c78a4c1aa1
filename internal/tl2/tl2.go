// Package tl2 implements the Transactional Locking II software
// transactional memory of Dice, Shalev and Shavit (DISC'06), the STM the
// paper instruments for its STAMP experiments (Section II-A): a
// write-back STM with invisible reads, a global version clock, per-word
// versioned write-locks and commit-time locking (lazy conflict
// detection).
//
// Beyond stock TL2, every transaction attempt carries a unique instance
// ID and every Var remembers the instance that last locked/wrote it, so
// an aborting transaction can name its killer. Those (victim, killer)
// edges are exactly what the paper's profiler logs to build thread
// transactional states.
//
// Transactions run through STM.Atomic, which retries on conflict:
//
//	v := tl2.NewVar(0)
//	err := s.Atomic(threadID, txID, func(tx *tl2.Tx) error {
//		tx.Write(v, tx.Read(v)+1)
//		return nil
//	})
package tl2

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
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

// lock word layout: bit 0 = locked, bits 1..63 = version.
const lockedBit = 1

// Var is one transactional memory word holding an int64. The zero value
// is a Var with value 0 and version 0, ready for use. Vars must not be
// copied after first use (enforced by `go vet -copylocks` and
// gstmlint's gstm003) and must not be shared between STM instances.
type Var struct {
	_    noCopy
	lock atomic.Uint64 // version<<1 | locked
	val  atomic.Int64
	// who is the instance ID of the attempt currently holding the lock,
	// or of the last committer. Victims read it to attribute aborts.
	who atomic.Uint64
}

// NewVar returns a Var initialized to x.
func NewVar(x int64) *Var {
	v := &Var{}
	v.val.Store(x)
	return v
}

// NewFloatVar returns a Var initialized to the bit pattern of f.
func NewFloatVar(f float64) *Var {
	return NewVar(floatToBits(f))
}

// floatToBits and floatFromBits convert between float64 values and the
// int64 representation Vars store.
func floatToBits(f float64) int64   { return int64(math.Float64bits(f)) }
func floatFromBits(x int64) float64 { return math.Float64frombits(uint64(x)) }

// pairOfIDs builds a tts.Pair (helper shared with irrevocable commits).
func pairOfIDs(txID, thread uint16) tts.Pair {
	return tts.Pair{Tx: txID, Thread: thread}
}

// Value loads the current committed value non-transactionally. Intended
// for post-run verification, not for use inside transactions.
func (v *Var) Value() int64 { return v.val.Load() }

// FloatValue loads the current committed value as a float64.
func (v *Var) FloatValue() float64 { return math.Float64frombits(uint64(v.val.Load())) }

// Store sets the value non-transactionally. Only for setup code that
// runs before any transaction touches the Var.
func (v *Var) Store(x int64) { v.val.Store(x) }

// StoreFloat sets a float64 value non-transactionally (setup only).
func (v *Var) StoreFloat(f float64) { v.val.Store(int64(math.Float64bits(f))) }

// Gate is consulted at the start of every transaction attempt when
// guided execution is active. Admit blocks (per the controller's
// hold/retry/escape policy) until the pair may proceed.
type Gate interface {
	Admit(p tts.Pair)
}

// ShedGate is an optional Gate extension notified when the overload
// limiter sheds a pair before it could reach Admit. Implementations
// must only count — the transaction is already rejected, and the
// notification rides the shed fast path (no holding, no allocation).
// guide.Controller implements it so shed accounting stays outside the
// gate's admit partition.
type ShedGate interface {
	NoteShed(p tts.Pair)
}

// IrrevocableGate is an optional Gate extension consulted when a
// transaction escalates to the irrevocable serial path. Implementations
// must return without holding — an irrevocable transaction owns the
// global token, and stalling it (the gate's hold loop, or an injected
// fault.HoldStall) would stall every committer quiescing against it.
// Gates that do not implement this interface are bypassed entirely for
// escalated transactions.
type IrrevocableGate interface {
	AdmitIrrevocable(p tts.Pair)
}

// Monitor receives one event per transactional operation — the
// operation-level analogue of trace.Tracer's transaction-level events.
// It exists for the opacity oracle (internal/oracle): a recorder hooked
// in here captures per-attempt operation logs with values, from which
// the oracle searches for a legal sequential witness. loc is the *Var
// touched, passed as an opaque key (implementations map it to a dense
// location ID); val is the value read or written. Implementations must
// be safe for concurrent use. Events for one instance arrive in program
// order; OnTxBegin precedes and OnTxCommit/OnTxAbort follows them.
//
// The same interface exists verbatim in package libtm, so a single
// recorder serves both runtimes.
type Monitor interface {
	OnTxBegin(instance uint64, p tts.Pair)
	OnTxRead(instance uint64, loc any, val int64)
	OnTxWrite(instance uint64, loc any, val int64)
	OnTxCommit(instance uint64)
	OnTxAbort(instance uint64)
}

// Options configures an STM instance.
type Options struct {
	// MaxRetries bounds conflict retries per Atomic call; 0 means
	// unbounded (the TL2 default).
	MaxRetries int
	// LockSpin is how many times Commit re-tries acquiring a busy
	// write-lock before aborting. Defaults to 8.
	LockSpin int
	// BackoffBase is the initial randomized backoff after an abort.
	// Defaults to 500ns; doubles per consecutive abort up to 64x.
	BackoffBase time.Duration
	// YieldEvery inserts a scheduler yield every N transactional
	// accesses and once at commit entry. On hosts with fewer cores than
	// worker threads this emulates the instruction-level interleaving
	// of critical sections that true multicore parallelism produces
	// (and that the paper's pinned-thread testbeds exhibit); without
	// it, goroutines on a single P run whole transactions atomically
	// and conflicts vanish. 0 means the adaptive default: yield every 4
	// accesses only while the highest thread ID seen, plus one, exceeds
	// GOMAXPROCS sampled at New, and not at all otherwise (see
	// internal/interleave and Interleaving). Positive always yields;
	// negative never does. The same decision gates Tx.Preempt, the
	// suspension point of simulated work inside transaction bodies.
	YieldEvery int
	// Inject, when non-nil, arms the deterministic fault-injection
	// hooks in the commit path (fault.CommitAbort, fault.CommitDelay,
	// fault.LockReleaseDelay). Nil — the default — costs one pointer
	// check per commit.
	Inject *fault.Injector
	// EscalateAfter is the abort count at which an Atomic call falls
	// back to the irrevocable serial path (guaranteed to commit). 0
	// means the default (DefaultEscalateAfter); negative disables
	// escalation. The livelock watchdog may lower the effective
	// threshold at runtime; see ProgressStats.
	EscalateAfter int
	// EscalateTime escalates an Atomic call that has been retrying for
	// at least this long, regardless of its abort count. 0 disables
	// time-based escalation.
	EscalateTime time.Duration
	// DefaultDeadline, when positive, bounds every plain Atomic call
	// with a context.WithTimeout of this duration (AtomicCtx callers
	// manage their own deadlines).
	DefaultDeadline time.Duration
	// WatchdogWindow is the livelock watchdog's sampling window. 0
	// means progress.DefaultWatchdogWindow; negative disables the
	// watchdog.
	WatchdogWindow time.Duration
	// Yield, when non-nil, replaces runtime.Gosched at every
	// scheduler-visible suspension point — transactional accesses
	// (YieldEvery), simulated work in bodies (Tx.Preempt), commit
	// entry, lock-acquisition spins, abort backoff, irrevocable token
	// waits and quiesce. internal/sched's deterministic explorer
	// installs its cooperative-scheduler hook here to serialize
	// goroutine interleavings under a seed. Nil (the default) keeps
	// the stock runtime.Gosched behaviour.
	Yield func()
	// Manifest registers a sealed static-effect manifest (produced by
	// `gstmlint -manifest`, loaded with effect.ReadFile). Transaction
	// IDs whose every static site proved readonly run the certified
	// fast path: no read-set bookkeeping, validation-only commit. Nil —
	// the default — costs one pointer check per attempt.
	Manifest *effect.Manifest
	// ROGuard selects the certified-readonly soundness guard's
	// consequence when a certified transaction issues a write: trap the
	// Atomic call with ErrReadOnlyViolation, or decertify and retry
	// uncertified. The zero value (effect.GuardAuto) traps under -race
	// builds and recovers in production. See internal/effect.
	ROGuard effect.GuardMode
	// ClockMode selects the commit-clock organization: ClockGlobal
	// (stock TL2, the zero value) or ClockSharded (cache-line-padded
	// per-shard clocks so commit traffic scales past one cache line).
	// See clock.go for the protocol deltas sharding requires.
	ClockMode ClockMode
	// BatchMax caps how many bodies one AtomicBatch call coalesces into
	// a single commit (one gate admission, one clock interaction). 0
	// means DefaultBatchMax; negative disables the cap.
	BatchMax int
	// Overload, when non-nil, attaches an adaptive admission controller
	// (internal/overload) in front of every Atomic call: in-flight
	// transactions are capped by its AIMD limit, and calls that cannot
	// be admitted in time are shed with overload.ErrShed before any
	// transactional state is touched. Certified read-only transactions
	// (Manifest) bypass the cap on a non-counted lane. Nil — the
	// default — costs one pointer check per call.
	Overload *overload.Limiter
	// Mutate arms testing-only correctness knockouts that deliberately
	// break the TL2 protocol so the opacity oracle (internal/oracle)
	// can prove it would catch a real bug. Never set outside tests.
	Mutate Mutations
}

// Mutations are deliberate protocol defects, off by default. Each one
// converts a safety property into a detectable opacity or
// serializability violation; internal/sched's mutation harness asserts
// the schedule explorer finds each within its budget.
type Mutations struct {
	// SkipReadPostCheck disables Read's per-access validation (the
	// l1==l2 / version≤rv check). Writing transactions stay consistent
	// (commit-time validation still runs), but read-only transactions —
	// which TL2 commits without validation precisely because every read
	// was validated inline — and doomed attempts can observe and even
	// commit inconsistent snapshots: an opacity violation.
	SkipReadPostCheck bool
	// SkipReadSetValidation disables commit-time read-set validation,
	// letting transactions commit against stale reads — a strict-
	// serializability violation (write skew becomes observable).
	SkipReadSetValidation bool
	// SkipROValidation disables the per-read inline validation on
	// certified-readonly attempts only. The certified fast path commits
	// on the strength of exactly that validation (it keeps no read set
	// to re-validate), so this knockout turns the validation-only
	// commit into an opacity violation the explorer must catch.
	SkipROValidation bool
	// SkipShardPublish breaks the sharded clock's commit advance
	// (ClockSharded only): the committer re-uses its shard's current
	// time instead of ticking it, so distinct commits publish duplicate
	// versions at or below concurrent readers' shard samples and the
	// staleness checks go blind — a broken clock merge the explorer's
	// PathShardedClock mutation test must catch.
	SkipShardPublish bool
}

// DefaultEscalateAfter is the abort threshold for irrevocable
// escalation when Options.EscalateAfter is zero. High enough that
// ordinary contention never reaches it; a transaction that aborts this
// many times in a row is starving.
const DefaultEscalateAfter = 256

func (o *Options) fill() {
	if o.LockSpin <= 0 {
		o.LockSpin = 8
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 500 * time.Nanosecond
	}
}

// STM is a TL2 transactional memory domain: a global version clock plus
// run-wide configuration. Vars are independent objects but must only be
// used through a single STM at a time.
type STM struct {
	clock atomic.Uint64
	// shards is the ClockSharded commit clock: one padded counter per
	// shard, advanced by committers whose thread hashes there. Unused
	// (zero bytes of traffic) under ClockGlobal.
	shards    [clockShards]paddedClock
	instances atomic.Uint64
	commits   atomic.Uint64
	aborts    atomic.Uint64
	tracer    atomic.Pointer[tracerBox]
	gate      atomic.Pointer[gateBox]
	cm        atomic.Pointer[cmBox]
	mon       atomic.Pointer[monBox]
	opts      Options
	// yields decides per attempt whether the YieldEvery interleaving
	// yields are on (see internal/interleave).
	yields interleave.Policy

	irrevocable irrevocableState

	// Progress-guarantee state (see internal/progress): escalation and
	// deadline counters, the watchdog-adjusted effective escalation
	// threshold, and the optional latency recorder.
	escalations  atomic.Uint64
	deadlineMiss atomic.Uint64
	sheds        atomic.Uint64
	escThreshold atomic.Int64
	watchdog     *progress.Watchdog
	lat          atomic.Pointer[latBox]

	// Certified read-only fast path (see readonly.go): the manifest's
	// certified transaction IDs, the fast-path commit counter, and the
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
	opts.fill()
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
// threshold stored in escThreshold: 0 → default, negative → disabled
// (stored as -1).
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

// SetTracer installs the event sink for commit/abort events. Passing
// nil restores the no-op tracer. Safe to call between runs; calling it
// while transactions are in flight applies to subsequent events.
func (s *STM) SetTracer(t trace.Tracer) {
	if t == nil {
		t = trace.Nop{}
	}
	s.tracer.Store(&tracerBox{t})
}

// SetGate installs (or, with nil, removes) the guided-execution gate.
func (s *STM) SetGate(g Gate) {
	if g == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&gateBox{g})
}

// SetMonitor installs (or, with nil, removes) the per-operation event
// monitor. Off — the default — costs one pointer check per attempt;
// armed, it costs one interface call per transactional access, so it is
// strictly a correctness-testing hook, not a profiling one.
func (s *STM) SetMonitor(m Monitor) {
	if m == nil {
		s.mon.Store(nil)
		return
	}
	s.mon.Store(&monBox{m})
}

// monLoad returns the armed monitor, or nil.
func (s *STM) monLoad() Monitor {
	if b := s.mon.Load(); b != nil {
		return b.m
	}
	return nil
}

// yield is the runtime's suspension point: runtime.Gosched by default,
// or the deterministic scheduler's hook when Options.Yield is set.
func (s *STM) yield() {
	if y := s.opts.Yield; y != nil {
		y()
		return
	}
	runtime.Gosched()
}

// Interleaving reports whether attempts starting now insert the
// YieldEvery interleaving yields: always for a positive YieldEvery,
// never for a negative one, and under the default only once a thread
// ID at or above GOMAXPROCS (sampled at New) has run a transaction.
func (s *STM) Interleaving() bool { return s.yields.On() }

// Commits returns the total number of committed transactions. Certified
// read-only commits are counted in roCommits only (one atomic add on
// the fast path instead of two) and folded in here.
func (s *STM) Commits() uint64 { return s.commits.Load() + s.roCommits.Load() }

// Aborts returns the total number of aborted transaction attempts.
func (s *STM) Aborts() uint64 { return s.aborts.Load() }

// ResetCounters zeroes the commit/abort counters (between runs),
// including the certified read-only commit count that Commits() folds
// in.
func (s *STM) ResetCounters() {
	s.commits.Store(0)
	s.roCommits.Store(0)
	s.aborts.Store(0)
	s.sheds.Store(0)
}

// abortSignal is the internal control-flow signal for a conflict abort;
// it carries the killer's instance for attribution.
type abortSignal struct {
	killer uint64
}

// ErrRetryLimit is returned by Atomic when Options.MaxRetries was
// exceeded.
var ErrRetryLimit = errors.New("tl2: transaction exceeded retry limit")

// ErrDeadline is returned by AtomicCtx when the context expires before
// the transaction commits. The returned error wraps both ErrDeadline
// and the context's own error, so errors.Is works against either.
var ErrDeadline = errors.New("tl2: transaction deadline exceeded")

type writeEntry struct {
	v   *Var
	val int64
	// prevWho is the Var's last writer before we locked it at commit,
	// kept for abort attribution when our own lock hides it.
	prevWho uint64
}

// readSlot is one read-set entry: the Var and the lock word the read
// observed. The global-clock commit validation only needs the Var (its
// version-≤-rv test re-derives consistency from the clock), but the
// sharded clock's exact-match validation and the extension path both
// compare against the word actually seen.
type readSlot struct {
	v *Var
	l uint64
}

// Tx is a single transaction attempt. A Tx is only valid inside the
// function passed to Atomic and must not be retained or shared.
type Tx struct {
	stm      *STM
	pair     tts.Pair
	instance uint64
	rv       uint64
	// rvs is the per-shard begin-time clock sample (ClockSharded only);
	// allocated once per pooled Tx, indexed by shard.
	rvs []uint64
	// batch is the number of logical transactions this attempt commits
	// (>1 only inside AtomicBatch envelopes); counters and the overload
	// window attribute commitUnits() commits per successful attempt.
	batch  int
	reads  []readSlot
	writes []writeEntry
	// writeIdx accelerates read-own-write lookups once the write set
	// grows beyond linear-scan comfort.
	writeIdx map[*Var]int
	// ops counts transactional accesses for YieldEvery interleaving;
	// yielding caches the attempt's interleaving decision (made once
	// per attempt by reset) so maybeYield's off switch inlines into
	// Read and Write and the commit-entry yield keys on the same flag.
	ops      int
	yielding bool
	// done is the AtomicCtx context's Done channel (nil when the call
	// has no deadline); spin loops and backoff sleeps observe it.
	done <-chan struct{}
	// rng is per-transaction xorshift state for backoff jitter, seeded
	// lazily once per pooled Tx (replaces a time.Now call per abort).
	rng uint64
	// mon is the armed per-operation monitor, loaded once per attempt
	// (nil when off); see SetMonitor.
	mon Monitor
	// roCert marks an attempt running under a certified-readonly
	// transaction ID (Options.Manifest): Read keeps no read set, commit
	// is validation-only, and Write trips the soundness guard.
	roCert bool
	// irrev marks an escalated (irrevocable serial) attempt: reads and
	// writes lock Vars at encounter time and cannot abort. ilocked,
	// iprev and iprevWho track the acquired locks and their pre-lock
	// words for publish/rollback (see irrevocable.go).
	irrev    bool
	ilocked  []*Var
	iprev    []uint64
	iprevWho []uint64
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
// under-provisioned hosts (see Options.YieldEvery).
// maybeYield is split so the no-yield fast path stays under the
// inlining budget: with interleaving off, Read and Write pay one flag
// load and a branch here instead of a function call.
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

// Preempt is a suspension point for transaction bodies that model long
// computation between accesses (stamp.Spin). It yields through the
// runtime's yield (Options.Yield, else runtime.Gosched) exactly when
// the attempt's accesses would (see Options.YieldEvery), so simulated
// work is preempted only on hosts with fewer cores than worker threads.
func (tx *Tx) Preempt() {
	if tx.yielding {
		tx.stm.yield()
	}
}

const writeIdxThreshold = 64

// reset prepares the descriptor for a new attempt of tx.pair. Every
// attempt-start path (atomicCtx, and through it AtomicBatch, plus
// runEscalated) goes through here, so this is where the thread is
// registered with the interleaving policy.
func (tx *Tx) reset(instance uint64) {
	tx.instance = instance
	tx.ops = 0
	tx.yielding = tx.stm.yields.Enter(tx.pair.Thread)
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.ilocked = tx.ilocked[:0]
	tx.iprev = tx.iprev[:0]
	tx.iprevWho = tx.iprevWho[:0]
	if tx.writeIdx != nil {
		clear(tx.writeIdx)
	}
}

// Pair returns the (transaction, thread) identity of this attempt.
func (tx *Tx) Pair() tts.Pair { return tx.pair }

// abort signals a conflict abort killed by the given instance.
func (tx *Tx) abort(killer uint64) {
	panic(abortSignal{killer})
}

func (tx *Tx) lookupWrite(v *Var) (int64, bool) {
	if tx.writeIdx != nil && len(tx.writes) > writeIdxThreshold {
		if i, ok := tx.writeIdx[v]; ok {
			return tx.writes[i].val, true
		}
		return 0, false
	}
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if tx.writes[i].v == v {
			return tx.writes[i].val, true
		}
	}
	return 0, false
}

// monRead reports a transactional read to the armed monitor.
func (tx *Tx) monRead(v *Var, x int64) {
	if tx.mon != nil {
		tx.mon.OnTxRead(tx.instance, v, x)
	}
}

// Read returns the transactional value of v, observing the
// transaction's own pending writes. On conflict the attempt aborts and
// Atomic retries the whole function.
func (tx *Tx) Read(v *Var) int64 {
	tx.maybeYield()
	if x, ok := tx.lookupWrite(v); ok {
		tx.monRead(v, x)
		return x
	}
	if tx.irrev {
		tx.lockIrrev(v)
		x := v.val.Load()
		tx.monRead(v, x)
		return x
	}
	l1 := v.lock.Load()
	for attempt := 0; l1&lockedBit != 0; attempt++ {
		if tx.ctxDone() || !tx.consultCM(v, attempt) {
			tx.abort(v.who.Load())
		}
		l1 = v.lock.Load()
	}
	x := v.val.Load()
	l2 := v.lock.Load()
	if !tx.roCert {
		// Certified-readonly attempts keep no read set: the inline
		// validation below is the entire commit obligation, so commit
		// has nothing left to visit. The entry is appended *before*
		// validating so the sharded extension path re-validates the
		// triggering read together with the rest of the snapshot.
		tx.reads = append(tx.reads, readSlot{v: v, l: l2})
	}
	tx.validateRead(v, l1, l2)
	tx.monRead(v, x)
	return x
}

// skipReadCheck gathers the mutation knockouts that disable Read's
// inline validation; off the mutation paths it folds to two false
// flags. Only consulted when the validation would have failed.
func (tx *Tx) skipReadCheck() bool {
	m := &tx.stm.opts.Mutate
	return m.SkipReadPostCheck || (m.SkipROValidation && tx.roCert)
}

// Write buffers a transactional store of x into v (write-back: shared
// memory is untouched until commit).
func (tx *Tx) Write(v *Var, x int64) {
	if tx.roCert {
		// Soundness guard: the manifest certified this transaction ID
		// readonly, so no write may ever reach here. Trap before
		// anything is buffered; runAttempt decides the consequence.
		panic(roViolation{key: tx.stm.ro.Key(tx.pair.Tx)})
	}
	tx.maybeYield()
	if tx.mon != nil {
		tx.mon.OnTxWrite(tx.instance, v, x)
	}
	if tx.irrev {
		// Escalated: lock at encounter time, but still buffer the store
		// so a user error from fn rolls back cleanly (Atomic's contract).
		tx.lockIrrev(v)
	}
	if tx.writeIdx != nil && len(tx.writes) >= writeIdxThreshold {
		if i, ok := tx.writeIdx[v]; ok {
			tx.writes[i].val = x
			return
		}
	} else {
		for i := len(tx.writes) - 1; i >= 0; i-- {
			if tx.writes[i].v == v {
				tx.writes[i].val = x
				return
			}
		}
	}
	tx.writes = append(tx.writes, writeEntry{v: v, val: x})
	if len(tx.writes) == writeIdxThreshold+1 {
		if tx.writeIdx == nil {
			tx.writeIdx = make(map[*Var]int, 2*writeIdxThreshold)
		}
		for i, w := range tx.writes {
			tx.writeIdx[w.v] = i
		}
	} else if tx.writeIdx != nil && len(tx.writes) > writeIdxThreshold {
		tx.writeIdx[v] = len(tx.writes) - 1
	}
}

// ReadFloat reads v as a float64.
func (tx *Tx) ReadFloat(v *Var) float64 {
	return math.Float64frombits(uint64(tx.Read(v)))
}

// WriteFloat writes f into v as a float64 bit pattern.
func (tx *Tx) WriteFloat(v *Var, f float64) {
	tx.Write(v, int64(math.Float64bits(f)))
}

// commit runs the TL2 commit protocol: lock the write set, increment
// the global clock, validate the read set, write back, release.
func (tx *Tx) commit() {
	// A suspension point between the transaction body and the commit
	// protocol: even two-access transactions overlap with concurrent
	// committers here, as they do under true parallelism.
	if tx.yielding {
		tx.stm.yield()
	}
	if inj := tx.stm.opts.Inject; inj != nil {
		if inj.Fire(fault.CommitAbort) {
			tx.abort(0)
		}
		inj.Sleep(fault.CommitDelay)
	}
	if len(tx.writes) == 0 {
		// Read-only fast path: per-read validation against rv already
		// guarantees a consistent snapshot at rv. Certified attempts
		// always land here (Write is trapped), with the read-set append
		// skipped too — the validation-only commit.
		if tx.roCert {
			tx.stm.roCommits.Add(tx.commitUnits())
		}
		return
	}
	s := tx.stm
	// Quiesce against an active irrevocable transaction before taking
	// any write locks. The ordering is the deadlock-freedom argument:
	// committers only ever block on the token while holding zero locks,
	// and lock holders never block on the token, so the irrevocable
	// transaction's encounter-time spin-acquires always terminate.
	s.irrevocable.quiesce(s.opts.Yield)
	locked := 0
	for i := range tx.writes {
		w := &tx.writes[i]
		for attempt := 0; !tx.tryLock(w.v); attempt++ {
			// While an irrevocable transaction is active, waiting here
			// (holding locks it may need) would deadlock its spin —
			// abort immediately instead of consulting the manager.
			if tx.ctxDone() || s.irrevocable.active.Load() || !tx.consultCM(w.v, attempt) {
				killer := w.v.who.Load()
				tx.unlockPrefix(locked)
				tx.abort(killer)
			}
		}
		w.prevWho = w.v.who.Load()
		w.v.who.Store(tx.instance)
		locked++
	}
	// With the whole write set locked, an injected stall here starves
	// every rival spinning on those locks — the worst-case committer.
	if inj := s.opts.Inject; inj != nil {
		inj.Sleep(fault.LockReleaseDelay)
	}
	var wv uint64
	if s.sharded() {
		// Sharded clock: the write set is fully locked *before* the
		// shard advance (the ordering the opacity argument leans on —
		// see clock.go), then the read set is validated exact-match
		// against the words each read recorded.
		wv = s.advanceClock(tx.pair.Thread)
		if !s.opts.Mutate.SkipReadSetValidation {
			if killer, ok := tx.validateReadsSharded(); !ok {
				tx.unlockPrefix(locked)
				tx.abort(killer)
			}
		}
	} else if wv = s.clock.Add(1); wv > tx.rv+1 && !s.opts.Mutate.SkipReadSetValidation {
		for _, r := range tx.reads {
			l := r.v.lock.Load()
			if l&lockedBit != 0 && r.v.who.Load() != tx.instance {
				killer := r.v.who.Load()
				tx.unlockPrefix(locked)
				tx.abort(killer)
			}
			// Validate the version even when we hold the lock ourselves:
			// the locked bit leaves the pre-lock version intact, and a
			// version newer than rv means our earlier read of this Var
			// (it is in both our read and write sets) saw a value that a
			// concurrent commit has since replaced.
			if l>>1 > tx.rv {
				killer := r.v.who.Load()
				if killer == tx.instance {
					// We overwrote who when locking; recover the real
					// culprit (the committer that bumped the version).
					for i := range tx.writes {
						if tx.writes[i].v == r.v {
							killer = tx.writes[i].prevWho
							break
						}
					}
				}
				tx.unlockPrefix(locked)
				tx.abort(killer)
			}
		}
	}
	newLock := wv << 1
	for _, w := range tx.writes {
		w.v.val.Store(w.val)
		w.v.lock.Store(newLock)
	}
}

// tryLock attempts to acquire v's write lock with bounded spinning.
func (tx *Tx) tryLock(v *Var) bool {
	spin := tx.stm.opts.LockSpin
	for i := 0; i < spin; i++ {
		l := v.lock.Load()
		if l&lockedBit == 0 {
			if v.lock.CompareAndSwap(l, l|lockedBit) {
				return true
			}
		} else if v.who.Load() == tx.instance {
			return true // already ours (duplicate write entry cannot happen, but be safe)
		}
		tx.stm.yield()
	}
	return false
}

// unlockPrefix releases the first n acquired write locks, restoring
// their pre-lock versions (no writeback happened yet).
func (tx *Tx) unlockPrefix(n int) {
	for i := 0; i < n; i++ {
		v := tx.writes[i].v
		l := v.lock.Load()
		v.lock.Store(l &^ lockedBit)
	}
}

// Atomic executes fn transactionally as static transaction txID on the
// given thread, retrying on conflicts until commit. If fn returns a
// non-nil error the transaction is rolled back (its writes discarded)
// and the error is returned without retrying — the caller-level abort
// idiom. Returns ErrRetryLimit if Options.MaxRetries is exceeded.
// When Options.DefaultDeadline is set, the call is bounded by that
// duration and may return ErrDeadline; otherwise it delegates to
// AtomicCtx with a background context.
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
// contention-manager waits and escalation token acquisition all observe
// ctx.Done(), and when the context expires before the transaction
// commits the call returns an error wrapping both ErrDeadline and
// ctx.Err(). A nil ctx behaves like context.Background().
//
// Progress guarantee: once an attempt's abort count reaches the
// escalation threshold (Options.EscalateAfter, adaptively lowered by
// the livelock watchdog) or its age exceeds Options.EscalateTime, the
// transaction re-runs on the irrevocable serial path and is guaranteed
// to commit — so with a deadline set, every AtomicCtx call terminates
// with a commit, a user error, ErrRetryLimit or ErrDeadline.
func (s *STM) AtomicCtx(ctx context.Context, thread, txID uint16, fn func(*Tx) error) error {
	return s.AtomicPri(ctx, thread, txID, overload.PriNormal, fn)
}

// AtomicPri is AtomicCtx with an explicit admission priority class for
// the overload limiter (Options.Overload): under backlog pressure
// lower classes shed first. Without a limiter attached the priority is
// ignored. A shed call returns an error wrapping overload.ErrShed
// before any transactional state is touched — distinguishable from
// ErrDeadline, which means the runtime ran and lost to the clock.
func (s *STM) AtomicPri(ctx context.Context, thread, txID uint16, pri overload.Pri, fn func(*Tx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	lim := s.opts.Overload
	counted := false
	var admitted time.Time
	if lim != nil {
		if s.ro != nil && s.ro.Certified(txID) {
			// Certified read-only transactions ride the non-counted
			// lane: they cannot cause the aborts that collapse the
			// system, so the limiter neither charges nor sheds them.
			lim.NoteReadOnly()
		} else if err := lim.Acquire(ctx, pri); err != nil {
			if errors.Is(err, overload.ErrShed) {
				s.sheds.Add(1)
				if gb := s.gate.Load(); gb != nil {
					if sg, ok := gb.g.(ShedGate); ok {
						sg.NoteShed(pairOfIDs(txID, thread))
					}
				}
				return err
			}
			// The context expired while waiting for a token: the usual
			// deadline outcome, just decided in the queue.
			return s.deadlineErr(ctx)
		} else {
			counted = true
			admitted = lim.Now()
		}
	}
	tx := txPool.Get().(*Tx)
	defer txPool.Put(tx)
	tx.stm = s
	tx.batch = 1
	tx.pair = tts.Pair{Tx: txID, Thread: thread}
	tx.done = ctx.Done()

	var t0 time.Time
	var rec *progress.LatencyRecorder
	if lb := s.lat.Load(); lb != nil {
		rec = lb.r
	}
	if rec != nil || s.opts.EscalateTime > 0 {
		// time.Now is kept off the uncontended fast path unless a
		// feature that needs it is armed.
		t0 = time.Now()
	}
	err := s.atomicCtx(ctx, tx, fn, t0)
	if rec != nil {
		rec.Record(tx.pair, time.Since(t0))
	}
	if counted {
		lim.Release(admitted, err == nil)
	}
	tx.done = nil
	tx.mon = nil
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
		inst := s.instances.Add(1)
		tx.reset(inst)
		s.sampleClock(tx)
		tx.roCert = s.ro != nil && s.ro.Certified(tx.pair.Tx)
		tx.mon = s.monLoad()
		if tx.mon != nil {
			tx.mon.OnTxBegin(inst, tx.pair)
		}

		killer, userErr, committed := s.runAttempt(tx, fn)
		if committed {
			if tx.mon != nil {
				tx.mon.OnTxCommit(inst)
			}
			if !tx.roCert {
				// Certified attempts were already counted by commit()'s
				// roCommits.Add; Commits() reports the sum of the two
				// counters, keeping the fast path at one atomic add.
				s.commits.Add(tx.commitUnits())
			}
			if b := s.cm.Load(); b != nil {
				b.cm.OnCommit(tx)
			}
			s.tracer.Load().t.OnCommit(inst, tx.pair)
			return nil
		}
		if tx.mon != nil {
			tx.mon.OnTxAbort(inst)
		}
		if userErr != nil {
			return userErr
		}
		s.aborts.Add(1)
		s.opts.Overload.NoteAbort()
		if b := s.cm.Load(); b != nil {
			b.cm.OnAbort(tx)
		}
		s.tracer.Load().t.OnAbort(tx.pair, killer)
		attempts++
		if s.opts.MaxRetries > 0 && attempts > s.opts.MaxRetries {
			return ErrRetryLimit
		}
		s.observeWatchdog()
		tx.backoff(attempts)
	}
}

// deadlineErr counts and builds the ErrDeadline-wrapping error.
func (s *STM) deadlineErr(ctx context.Context) error {
	s.deadlineMiss.Add(1)
	return fmt.Errorf("%w: %w", ErrDeadline, ctx.Err())
}

// shouldEscalate reports whether a retrying Atomic call has exhausted
// its escalation budget (abort count against the watchdog-adjusted
// threshold, or elapsed time against Options.EscalateTime).
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
// applies its verdict: a zero-commit window halves the effective
// escalation threshold (floor 1) so starving transactions reach the
// serial path sooner; a healthy window restores the configured value.
func (s *STM) observeWatchdog() {
	if s.watchdog == nil {
		return
	}
	switch s.watchdog.Observe(time.Now(), s.Commits(), s.aborts.Load()) {
	case progress.VerdictTrip:
		s.opts.Overload.NotePressure()
		if th := s.escThreshold.Load(); th > 1 {
			s.escThreshold.CompareAndSwap(th, max64(th/2, 1))
		} else if th <= 0 {
			// Even with escalation disabled by configuration, a tripped
			// watchdog arms it: liveness over configuration.
			s.escThreshold.CompareAndSwap(th, DefaultEscalateAfter)
		}
	case progress.VerdictHealthy:
		if th, want := s.escThreshold.Load(), configuredThreshold(s.opts.EscalateAfter); th != want {
			s.escThreshold.CompareAndSwap(th, want)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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

// SetLatencyRecorder attaches (or with nil detaches) a per-(tx,thread)
// Atomic latency recorder. Recording adds a clock read plus a mutex
// acquisition per Atomic call, so it is off by default.
func (s *STM) SetLatencyRecorder(r *progress.LatencyRecorder) {
	if r == nil {
		s.lat.Store(nil)
		return
	}
	s.lat.Store(&latBox{r})
}

// runAttempt runs one attempt of fn, converting the internal abort
// panic into a (killer, committed=false) result.
func (s *STM) runAttempt(tx *Tx, fn func(*Tx) error) (killer uint64, userErr error, committed bool) {
	defer func() {
		if r := recover(); r != nil {
			switch sig := r.(type) {
			case abortSignal:
				killer = sig.killer
			case roViolation:
				// Certified-readonly soundness guard: trap mode surfaces
				// the violation to the caller; recover mode decertifies
				// the ID and retries the attempt uncertified.
				userErr = s.handleROViolation(tx, sig)
			default:
				panic(r)
			}
		}
	}()
	if err := fn(tx); err != nil {
		return 0, err, false
	}
	tx.commit()
	return 0, nil, true
}

// backoff applies randomized exponential backoff after an abort to damp
// livelock, capped at 64x the base. Sleeps observe the transaction's
// deadline so an expiring context is noticed promptly.
func (tx *Tx) backoff(attempts int) {
	if y := tx.stm.opts.Yield; y != nil {
		// Under a deterministic scheduler, sleeping would stall the
		// whole exploration without changing the interleaving; a single
		// hook yield is the schedule point.
		y()
		return
	}
	shift := attempts
	if shift > 6 {
		shift = 6
	}
	d := tx.stm.opts.BackoffBase << uint(shift)
	j := tx.nextRand()
	d = time.Duration(uint64(d)/2 + j%uint64(d))
	if d < time.Microsecond {
		for i := 0; i <= shift; i++ {
			runtime.Gosched()
		}
		return
	}
	sleepCtx(tx.done, d)
}

// rngSeedCounter feeds seedRand; every pooled Tx draws a distinct
// stream from it exactly once.
var rngSeedCounter atomic.Uint64

// seedRand derives a well-mixed nonzero xorshift seed (splitmix64
// finalizer over a Weyl sequence).
func seedRand() uint64 {
	x := rngSeedCounter.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}

// nextRand steps the per-Tx xorshift64 state, seeding it on first use.
// State persists across pool reuse — it is jitter, not randomness that
// needs independence — so the steady-state cost is three shifts, where
// the previous implementation paid a time.Now call per abort.
func (tx *Tx) nextRand() uint64 {
	x := tx.rng
	if x == 0 {
		x = seedRand()
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.rng = x
	return x
}

// sleepCtx sleeps for d, returning early if done fires. A nil done
// channel (no deadline) takes the timer-free path.
func sleepCtx(done <-chan struct{}, d time.Duration) {
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

var txPool = newTxPool()
