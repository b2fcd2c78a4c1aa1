package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gstm/internal/effect"
	"gstm/internal/overload"
	"gstm/internal/progress"
	"gstm/internal/stamp"
	"gstm/internal/tl2"
	"gstm/internal/trace"
)

// kv-mix: a Synchrobench-style set on tl2.Map. Fixed key range, half
// full at start, fixed update ratio, one client goroutine per worker.
const (
	kvKeys      = 1024
	kvLookupPct = 80
	kvDeadline  = 100 * time.Millisecond // far above any call's p99
	kvRoundOps  = 10000                  // calls per client per round
	// kvWarmupOps is each client's warm-up. Deletes leave tombstones in
	// the map's probe chains, and throughput settles only once they have
	// spread through the table; the warm-up runs until then and is part
	// of setup_s.
	kvWarmupOps = 300000
)

// Transaction IDs. Lookups are certified read-only by the manifest.
const (
	txLookup uint16 = 1
	txToggle uint16 = 2
)

// kvManifest certifies the lookup transaction read-only, as gstmlint
// -manifest would for a Get-only body: lookups then commit on the
// validation-only lane and bypass the limiter's token count.
var kvManifest = &effect.Manifest{Sites: []effect.Site{{
	Key: "perfbench.kvMix.lookup", Tx: "tx 1", TxID: int(txLookup), Class: effect.ReadOnly,
}}}

// kvClient is one closed-loop client. Its inputs come from its own
// seeded stream, drawn outside the transaction bodies.
type kvClient struct {
	id             uint16
	rng            *stamp.Rand
	key            int64
	found          bool // the last lookup's answer
	lookup, toggle func(*tl2.Tx) error
	ok, failed     int // calls that committed / returned an error
	lat            []float64
	plainLat       *reservoir // untraced latencies, for the per-client SD
}

type kvMix struct {
	seed    int64
	s       *tl2.STM
	lim     *overload.Limiter
	m       *tl2.Map
	size    *tl2.Var // live keys, updated in the same transaction as each toggle
	clients []*kvClient
	inserts int // populate calls
	plain   bool

	stats                    *stateStats
	lat                      *progress.LatencyRecorder
	commits, aborts, ro, esc uint64
	limStats                 overload.Stats
	tracedOps                int
}

func newKVMix(seed int64) *kvMix {
	return &kvMix{seed: seed, stats: newStateStats(workers), lat: progress.NewLatencyRecorder()}
}

func (w *kvMix) latencyBlock() int { return workers * kvRoundOps }
func (w *kvMix) rootName() string  { return "call" }
func (w *kvMix) rootWorkers() int  { return 1 }

func (w *kvMix) setup(*probe) error {
	w.lim = overload.New(overload.Options{})
	w.s = tl2.New(tl2.Options{Overload: w.lim, Manifest: kvManifest})
	w.m = tl2.NewMap(kvKeys)
	w.size = tl2.NewVar(0)
	w.plain = true
	w.inserts = 0
	rng := stamp.NewRand(measureSeed(w.seed, 1))
	for w.size.Value() < kvKeys/2 {
		key := int64(rng.Intn(kvKeys))
		err := w.s.Atomic(0, txToggle, func(tx *tl2.Tx) error {
			if w.m.Put(tx, key, key) {
				tx.Write(w.size, tx.Read(w.size)+1)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		w.inserts++
	}
	w.clients = w.clients[:0]
	for c := 0; c < workers; c++ {
		w.clients = append(w.clients, w.newClient(uint16(c)))
	}
	warm := newTally(workers * kvRoundOps)
	for done := 0; done < kvWarmupOps; done += kvRoundOps {
		w.run(nil, warm, false)
		warm.settle(1)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed", warm.failed, warm.units)
	}
	return nil
}

func (w *kvMix) newClient(id uint16) *kvClient {
	c := &kvClient{
		id:       id,
		rng:      stamp.NewRand(measureSeed(w.seed, 2+int(id))),
		lat:      make([]float64, 0, kvRoundOps),
		plainLat: newReservoir(latCap, uint64(id)+1),
	}
	c.lookup = func(tx *tl2.Tx) error {
		c.found = w.m.Contains(tx, c.key)
		return nil
	}
	c.toggle = func(tx *tl2.Tx) error {
		if w.m.Delete(tx, c.key) {
			tx.Write(w.size, tx.Read(w.size)-1)
		} else {
			w.m.Put(tx, c.key, c.key)
			tx.Write(w.size, tx.Read(w.size)+1)
		}
		return nil
	}
	return c
}

// calls runs n closed-loop calls; with a probe each call is a root span.
func (c *kvClient) calls(s *tl2.STM, n int, p *probe, hist func(int)) {
	c.lat = c.lat[:0]
	for i := 0; i < n; i++ {
		c.key = int64(c.rng.Intn(kvKeys))
		fn, txID := c.toggle, txToggle
		if c.rng.Intn(100) < kvLookupPct {
			fn, txID = c.lookup, txLookup
		}
		ctx, cancel := context.WithTimeout(context.Background(), kvDeadline)
		var start int64
		if p != nil {
			start = p.beginUnit(int(c.id))
		}
		t0 := time.Now()
		err := s.AtomicCtx(ctx, c.id, txID, fn)
		d := time.Since(t0)
		if p != nil {
			hist(p.endUnit(int(c.id), start))
		}
		cancel()
		if err != nil {
			// ErrShed, ErrDeadline and ErrRetryLimit all land here.
			c.failed++
			continue
		}
		c.ok++
		c.lat = append(c.lat, float64(d.Nanoseconds())/1e3)
	}
}

// run executes one round: every client makes kvRoundOps calls.
func (w *kvMix) run(p *probe, t *tally, keepStats bool) {
	failedBefore := make([]int, len(w.clients))
	var wg sync.WaitGroup
	for i, c := range w.clients {
		failedBefore[i] = c.failed
		h := w.stats.aborts[c.id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.calls(w.s, kvRoundOps, p, func(n int) { _ = h.Add(n) }) // n ≥ 0
		}()
	}
	wg.Wait()
	for i, c := range w.clients {
		t.units += kvRoundOps
		t.failed += c.failed - failedBefore[i]
		for _, v := range c.lat {
			t.addLatency(v)
			if keepStats {
				c.plainLat.add(v)
			}
		}
	}
}

func (w *kvMix) round(p *probe, t *tally) error {
	if p == nil {
		if !w.plain {
			w.s.SetTracer(nil)
			w.s.SetMonitor(nil)
			w.s.SetLatencyRecorder(nil)
			w.plain = true
		}
		w.run(nil, t, true)
		return nil
	}
	col := trace.NewCollector()
	w.s.SetTracer(timedTracer{inner: trace.Nop{}, col: col, p: p})
	w.s.SetMonitor(attemptMonitor{p: p})
	w.s.SetLatencyRecorder(w.lat)
	w.plain = false
	c0, a0, r0, e0 := w.s.Commits(), w.s.Aborts(), w.s.ROCommits(), w.s.ProgressStats().Escalations
	l0 := w.lim.Stats()
	w.run(p, t, false)
	w.tracedOps += workers * kvRoundOps
	w.commits += w.s.Commits() - c0
	w.aborts += w.s.Aborts() - a0
	w.ro += w.s.ROCommits() - r0
	w.esc += w.s.ProgressStats().Escalations - e0
	l1 := w.lim.Stats()
	w.limStats.Acquires += l1.Acquires - l0.Acquires
	w.limStats.Waits += l1.Waits - l0.Waits
	w.limStats.Sheds += l1.Sheds - l0.Sheds
	w.limStats.ReadOnlyBypass += l1.ReadOnlyBypass - l0.ReadOnlyBypass
	w.limStats.Limit = l1.Limit
	seq, _ := col.Sequence()
	for _, k := range trace.Keys(seq) {
		w.stats.keys[k] = struct{}{}
	}
	return nil
}

// check validates the set: the transactional size counter matches the
// live keys, and every committed call is accounted for by a client.
func (w *kvMix) check() error {
	if got, want := w.size.Value(), int64(len(w.m.SnapshotKeys())); got != want {
		return fmt.Errorf("kv-mix: size counter %d, map holds %d keys", got, want)
	}
	calls := w.inserts
	for _, c := range w.clients {
		calls += c.ok
	}
	if got := w.s.Commits(); got != uint64(calls) {
		return fmt.Errorf("kv-mix: clients committed %d calls, runtime counted %d commits", calls, got)
	}
	return nil
}

func (w *kvMix) layers(l layerSet, p *probe) {
	ops := float64(w.tracedOps)
	runtimeLayers(l, "tl2", p, w.tracedOps)
	l["tl2.commits_per_unit"] = ratio(float64(w.commits), ops)
	l["tl2.aborts_per_commit"] = ratio(float64(w.aborts), float64(w.commits))
	l["tl2.ro_commit_frac"] = ratio(float64(w.ro), float64(w.commits))
	l["tl2.escalations_per_unit"] = ratio(float64(w.esc), ops)
	l["tl2.atomic_us_p99"] = w.lat.P99() * 1e6
	acq := float64(w.limStats.Acquires)
	l["overload.acquires_per_op"] = ratio(acq, ops)
	l["overload.wait_frac"] = ratio(float64(w.limStats.Waits), acq)
	l["overload.shed_frac"] = ratio(float64(w.limStats.Sheds), acq)
	l["overload.ro_bypass_frac"] = ratio(float64(w.limStats.ReadOnlyBypass), ops)
	l["overload.limit"] = float64(w.limStats.Limit)
	for i, c := range w.clients {
		w.stats.perThread[i] = c.plainLat.vals
	}
	w.stats.report(l)
}
