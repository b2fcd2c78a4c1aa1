package main

import (
	"time"

	"gstm/internal/guide"
	"gstm/internal/synquake"
	"gstm/internal/trace"
)

// SynQuake sizing: the paper's world, at the benchmark's thread count.
const (
	sqPlayers     = 1000
	sqMap         = 1024
	sqTrainFrames = 300 // per training quest
	sqRoundFrames = 20  // frames per measurement round
)

var sqTrainQuests = []string{"4worst_case", "4moving"}

const sqTestQuest = "4quadrants"

// synquakeGuided runs SynQuake frames on LibTM under a gate trained on
// two other quests. A unit is one frame; every frame is validated.
type synquakeGuided struct {
	seed   int64
	ctrls  []*guide.Controller // one per untraced set-up, used in turn
	game   *synquake.Game
	model  modelSetup
	newNs  int64
	rounds int

	stats           *stateStats
	gate            guide.Stats
	commits, aborts uint64
	tracedFrames    int
}

func newSynquakeGuided(seed int64) *synquakeGuided {
	return &synquakeGuided{seed: seed, stats: newStateStats(1)}
}

func (w *synquakeGuided) latencyBlock() int { return threadBlock }
func (w *synquakeGuided) rootName() string  { return "frame" }
func (w *synquakeGuided) rootWorkers() int  { return workers }

func (w *synquakeGuided) world(quest string, seed int64) (*synquake.Game, error) {
	return synquake.New(synquake.Config{Players: sqPlayers, MapSize: sqMap, Threads: workers, Scenario: quest, Seed: seed})
}

func (w *synquakeGuided) setup(sp *probe) error {
	b := newModelTrainer(workers)
	for i, quest := range sqTrainQuests {
		g, err := w.world(quest, trainSeed(w.seed, i))
		if err != nil {
			return err
		}
		col := trace.NewCollector()
		g.STM().SetTracer(profileTracer(col, sp))
		if _, err := g.RunFrames(sqTrainFrames); err != nil {
			return err
		}
		b.add(col)
	}
	ms := b.finish()
	if sp != nil {
		return nil
	}
	w.model = ms
	w.ctrls = append(w.ctrls, guide.New(ms.pruned, guide.Options{}))
	t0 := time.Now()
	g, err := w.world(sqTestQuest, measureSeed(w.seed, 0))
	if err != nil {
		return err
	}
	w.newNs = int64(time.Since(t0))
	w.game = g
	return nil
}

func (w *synquakeGuided) round(p *probe, t *tally) error {
	s := w.game.STM()
	ctrl := w.ctrls[w.rounds%len(w.ctrls)]
	w.rounds++
	ctrl.Reset()
	var col *trace.Collector
	if p == nil {
		s.SetTracer(ctrl)
		s.SetGate(ctrl)
		s.SetMonitor(nil)
	} else {
		col = trace.NewCollector()
		s.SetTracer(timedTracer{inner: ctrl, col: col, p: p})
		s.SetGate(timedGate{inner: ctrl, p: p})
		s.SetMonitor(attemptMonitor{p: p})
	}
	before := ctrl.Stats()
	for f := 0; f < sqRoundFrames; f++ {
		var start int64
		if p != nil {
			start = p.beginShared(workers)
		}
		fr, err := w.game.RunFrames(1) // validates the world
		if p != nil {
			p.endShared(start)
		}
		t.units++
		if err != nil {
			t.failed++
			continue
		}
		us := float64(fr.FrameTimes[0].Nanoseconds()) / 1e3
		t.addLatency(us)
		if p == nil {
			w.stats.perThread[0] = append(w.stats.perThread[0], us)
			continue
		}
		w.tracedFrames++
		w.commits += fr.Commits
		w.aborts += fr.Aborts
		_ = w.stats.aborts[0].Add(int(fr.Aborts)) // never negative
	}
	if p != nil {
		w.gate = addGateDelta(w.gate, before, ctrl.Stats())
		seq, _ := col.Sequence()
		for _, k := range trace.Keys(seq) {
			w.stats.keys[k] = struct{}{}
		}
	}
	return nil
}

func (w *synquakeGuided) check() error { return w.game.Validate() }

func (w *synquakeGuided) layers(l layerSet, p *probe) {
	n := float64(w.tracedFrames)
	guideLayers(l, p, w.gate, w.tracedFrames)
	runtimeLayers(l, "libtm", p, w.tracedFrames)
	l["libtm.commits_per_unit"] = ratio(float64(w.commits), n)
	l["libtm.aborts_per_commit"] = ratio(float64(w.aborts), float64(w.commits))
	l["synquake.new_ms"] = float64(w.newNs) / 1e6
	w.model.report(l)
	w.stats.report(l)
}
