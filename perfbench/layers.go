package main

import (
	"gstm/internal/guide"
	"gstm/internal/model"
	"gstm/internal/stats"
)

// layerSet maps per-layer metric names to values.
type layerSet map[string]float64

// perLayer lists the traced run's metrics in BENCHMARK.json order. A
// workload that does not use a layer reports 0 for its metrics.
var perLayer = []struct{ name, unit string }{
	{"guide.admits_per_unit", "count"},
	{"guide.admit_ns_p50", "ns"},
	{"guide.admit_ns_p99", "ns"},
	{"guide.admit_ms_per_unit", "ms"},
	{"guide.hold_frac", "frac"},
	{"guide.escape_frac", "frac"},
	{"guide.unknown_frac", "frac"},
	{"guide.observe_ns_per_event", "ns"},
	{"tl2.commits_per_unit", "count"},
	{"tl2.aborts_per_commit", "count"},
	{"tl2.ro_commit_frac", "frac"},
	{"tl2.escalations_per_unit", "count"},
	{"tl2.attempt_ns_p50", "ns"},
	{"tl2.wasted_frac", "frac"},
	{"tl2.backoff_ms_per_unit", "ms"},
	{"tl2.atomic_us_p99", "us"},
	{"libtm.commits_per_unit", "count"},
	{"libtm.aborts_per_commit", "count"},
	{"libtm.attempt_ns_p50", "ns"},
	{"libtm.wasted_frac", "frac"},
	{"libtm.backoff_ms_per_unit", "ms"},
	{"overload.acquires_per_op", "count"},
	{"overload.wait_frac", "frac"},
	{"overload.shed_frac", "frac"},
	{"overload.ro_bypass_frac", "frac"},
	{"overload.limit", "count"},
	{"trace.record_ns_per_event", "ns"},
	{"trace.events_per_profile_run", "count"},
	{"trace.sequence_ms", "ms"},
	{"model.build_ms", "ms"},
	{"model.prune_ms", "ms"},
	{"model.states", "count"},
	{"model.pruned_states", "count"},
	{"model.encoded_bytes", "B"},
	{"analyze.ms", "ms"},
	{"analyze.metric_pct", "%"},
	{"analyze.fit", "count"},
	{"stamp.setup_ms_per_run", "ms"},
	{"stamp.validate_ms_per_run", "ms"},
	{"stamp.outside_tx_frac", "frac"},
	{"synquake.new_ms", "ms"},
	{"stats.thread_sd_us", "us"},
	{"stats.abort_tail", "count"},
	{"stats.distinct_states", "count"},
	{"stats.jain_fairness", "frac"},
	{"breakdown.unit_us", "us"},
	{"breakdown.admit_us", "us"},
	{"breakdown.commit_us", "us"},
	{"breakdown.abort_us", "us"},
	{"breakdown.backoff_us", "us"},
	{"breakdown.outside_us", "us"},
	{"overhead.setup_s_pct", "%"},
	{"overhead.work_per_s_pct", "%"},
	{"overhead.latency_us_p50_pct", "%"},
	{"overhead.latency_us_p99_pct", "%"},
	{"overhead.cpu_us_per_unit_pct", "%"},
	{"overhead.alloc_b_per_unit_pct", "%"},
	{"overhead.heap_mb_pct", "%"},
}

// breakdown splits the average root span into its children's self
// time: admission, committed attempts, aborted attempts, backoff, and
// the rest, which is time outside transactions. The parts sum to
// breakdown.unit_us. A root shared by several workers (a frame) counts
// once per worker.
func breakdown(l layerSet, p *probe, rootWorkers int) {
	t := p.totals()
	roots := float64(t.n[spanUnit] * int64(rootWorkers))
	us := func(ns int64) float64 { return ratio(float64(ns), roots) / 1e3 }
	unit := us(t.ns[spanUnit] * int64(rootWorkers))
	l["breakdown.unit_us"] = unit
	l["breakdown.admit_us"] = us(t.ns[spanAdmit])
	l["breakdown.commit_us"] = us(t.ns[spanCommit])
	l["breakdown.abort_us"] = us(t.ns[spanAbort])
	l["breakdown.backoff_us"] = us(t.ns[spanBackoff])
	l["breakdown.outside_us"] = unit - us(t.ns[spanAdmit]+t.ns[spanCommit]+t.ns[spanAbort]+t.ns[spanBackoff])
}

// runtimeLayers reports the attempt-level metrics of the runtime named
// by prefix ("tl2" or "libtm") from the probe's attempt spans.
func runtimeLayers(l layerSet, prefix string, p *probe, units int) {
	t := p.totals()
	l[prefix+".attempt_ns_p50"] = percentile(t.attemptLat, 0.5)
	l[prefix+".wasted_frac"] = ratio(float64(t.ns[spanAbort]), float64(t.ns[spanAbort]+t.ns[spanCommit]))
	l[prefix+".backoff_ms_per_unit"] = ratio(float64(t.ns[spanBackoff])/1e6, float64(units))
}

// guideLayers reports the gate's metrics: admission latency from the
// probe, dispositions from the controller's counters over the traced
// rounds (d sums the counters' moves, see addGateDelta).
func guideLayers(l layerSet, p *probe, d guide.Stats, units int) {
	t := p.totals()
	admits := float64(d.Admits)
	l["guide.admits_per_unit"] = ratio(admits, float64(units))
	l["guide.admit_ns_p50"] = percentile(t.admitLat, 0.5)
	l["guide.admit_ns_p99"] = percentile(t.admitLat, tailQuantile(len(t.admitLat)))
	l["guide.admit_ms_per_unit"] = ratio(float64(t.ns[spanAdmit])/1e6, float64(units))
	l["guide.hold_frac"] = ratio(float64(d.Holds), admits)
	l["guide.escape_frac"] = ratio(float64(d.Escapes), admits)
	l["guide.unknown_frac"] = ratio(float64(d.UnknownPasses), admits)
	l["guide.observe_ns_per_event"] = ratio(float64(t.observeNs), float64(t.observeN))
}

// addGateDelta adds to acc the gate counters guideLayers uses, as
// they moved from snapshot a to snapshot b.
func addGateDelta(acc, a, b guide.Stats) guide.Stats {
	acc.Admits += b.Admits - a.Admits
	acc.Holds += b.Holds - a.Holds
	acc.Escapes += b.Escapes - a.Escapes
	acc.UnknownPasses += b.UnknownPasses - a.UnknownPasses
	return acc
}

// modelSetup records one set-up's profile → model → analyze → prune
// pipeline figures.
type modelSetup struct {
	profileRuns                   int
	events                        int
	sequenceNs, buildNs, pruneNs  int64
	analyzeNs                     int64
	states, prunedStates, encoded int
	metricPct                     float64
	fit                           bool
	pruned                        *model.TSA
}

func (m modelSetup) report(l layerSet) {
	l["trace.events_per_profile_run"] = ratio(float64(m.events), float64(m.profileRuns))
	l["trace.sequence_ms"] = float64(m.sequenceNs) / 1e6
	l["model.build_ms"] = float64(m.buildNs) / 1e6
	l["model.prune_ms"] = float64(m.pruneNs) / 1e6
	l["model.states"] = float64(m.states)
	l["model.pruned_states"] = float64(m.prunedStates)
	l["model.encoded_bytes"] = float64(m.encoded)
	l["analyze.ms"] = float64(m.analyzeNs) / 1e6
	l["analyze.metric_pct"] = m.metricPct
	if m.fit {
		l["analyze.fit"] = 1
	} else {
		l["analyze.fit"] = 0
	}
}

// stateStats accumulates the paper's variance quantities over rounds.
type stateStats struct {
	perThread [][]float64         // untraced unit latencies per thread, µs
	aborts    []*stats.Histogram  // traced per-unit abort counts per thread
	keys      map[string]struct{} // distinct thread transactional states
}

func newStateStats(threads int) *stateStats {
	s := &stateStats{perThread: make([][]float64, threads), keys: map[string]struct{}{}}
	for i := 0; i < threads; i++ {
		s.aborts = append(s.aborts, stats.NewHistogram())
	}
	return s
}

// report writes the mean per-thread standard deviation, the mean
// per-thread abort tail metric, |S|, and Jain's index over the
// per-thread standard deviations.
func (s *stateStats) report(l layerSet) {
	var sds, tails []float64
	for t := range s.perThread {
		if len(s.perThread[t]) > 1 {
			sds = append(sds, stats.StdDev(s.perThread[t]))
		}
		if s.aborts[t].Total() > 0 {
			tails = append(tails, s.aborts[t].TailMetric())
		}
	}
	l["stats.thread_sd_us"] = stats.Mean(sds)
	l["stats.abort_tail"] = stats.Mean(tails)
	l["stats.distinct_states"] = float64(len(s.keys))
	l["stats.jain_fairness"] = stats.JainFairness(sds)
}
