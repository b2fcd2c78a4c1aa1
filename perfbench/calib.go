package main

import (
	"runtime/debug"
	"sync"
	"time"
)

// Speed scaling. On a shared host the same code runs up to ~1.7× slower
// from one quarter of an hour to the next: the processor's clock and
// caches follow the load of the host's other tenants, not this program (a
// 0.5 µs kv-mix lookup read 0.52 µs and 0.88 µs a quarter of an hour
// apart). The benchmark therefore runs a fixed reference kernel on every
// worker just before each round, and reports each time scaled to a host
// on which that kernel takes calRefNs a step:
//
//	scaled = measured × calRefNs / kernel's ns per step nearby
//
// The kernel is part of the benchmark, not of gstm, so a change to gstm
// moves the scaled times exactly as it moves the measured ones; what
// the scaling removes is the host's speed. The table prints the
// measured values too.

// calRefNs is the reference speed: ns per kernel step. On the 2-vCPU
// Xeon KVM guest the bounds were set on the kernel took 3.6–4.8 ns a
// step, so scaled times there read close to measured ones.
const calRefNs = 4.0

// calSteps is one calibration: ~1 ms per worker.
const calSteps = 200_000

// calWindow is how many of the latest calibrations the scale factor is
// the median of. A single calibration tracks the host poorly (its
// correlation with the next round's time was ~0.5); the median of a few
// dozen follows the drift over seconds that moves whole runs (~0.8–0.9).
const calWindow = 41

// calTable is the kernel's working set: one random cycle through 64 Ki
// indices (256 KiB), so every load depends on the last and the walk
// stays in the core's private caches, as a transaction's read set does.
var calTable = func() []uint32 {
	const n = 1 << 16
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	t := make([]uint32, n)
	for i := range perm {
		t[perm[i]] = perm[(i+1)%n]
	}
	return t
}()

// calKernel runs n steps: a dependent load and an xorshift per step.
func calKernel(n int) uint64 {
	j, x := uint32(0), uint64(88172645463325252)
	for i := 0; i < n; i++ {
		j = calTable[j]
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += uint64(j)
	}
	return x
}

// speedMeter keeps the latest calibrations.
type speedMeter struct {
	recent []float64 // ns per step, oldest first
	all    []float64 // every factor handed out, for the report
	sink   uint64
}

// calibrate runs the kernel on every worker at once, as the workloads
// load the host, and records the mean ns per step.
//
// The garbage collector is off while it runs, so that a collection the
// round left running, whose size is the workload's, does not share the
// processors with the kernel; turning it off first waits for that
// collection to finish.
func (m *speedMeter) calibrate() {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ns := make([]float64, workers)
	sums := make([]uint64, workers)
	var wg sync.WaitGroup
	for i := range ns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One untimed pass brings the table back into the cache
			// after a round, whatever that round's footprint was.
			sums[i] = calKernel(len(calTable))
			t0 := time.Now()
			sums[i] += calKernel(calSteps)
			ns[i] = float64(time.Since(t0).Nanoseconds()) / calSteps
		}()
	}
	wg.Wait()
	var mean float64
	for i, v := range ns {
		mean += v / float64(len(ns))
		m.sink += sums[i]
	}
	m.recent = append(m.recent, mean)
	if len(m.recent) > calWindow {
		m.recent = m.recent[1:]
	}
}

// factor is calRefNs over the median of the recent calibrations: the
// multiplier from measured to scaled time.
func (m *speedMeter) factor() float64 {
	f := ratio(calRefNs, median(m.recent))
	m.all = append(m.all, f)
	return f
}
