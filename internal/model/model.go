// Package model builds the Thread State Automaton (TSA) from profiled
// transaction sequences — the paper's Algorithm 1 (Section III). The
// TSA is a probabilistic finite automaton whose nodes are thread
// transactional states and whose edges carry the empirical probability
// of transitioning from one state to the next observed commit outcome.
//
// The automaton supports the two downstream consumers:
//
//   - the analyzer (Section IV), which compares the full out-set S of
//     each state against the high-probability subset S′ selected by the
//     Tfactor threshold, and
//   - the guide (Section V), which restricts execution to the
//     high-probability destinations.
package model

import (
	"fmt"
	"sort"
	"strings"

	"gstm/internal/tts"
)

// DefaultTfactor is the paper's recommended threshold divisor: an edge
// is "high probability" when P(e) ≥ Pmax/Tfactor. Values 1..10 were
// explored; 4 strikes the balance (Section VI).
const DefaultTfactor = 4.0

// Node is one TSA state and its outbound transition counts.
type Node struct {
	// State is the decoded thread transactional state.
	State tts.State
	// Out maps destination state key → observed transition count.
	Out map[string]int
	// Total is the sum of all outbound counts.
	Total int
	// key is the node's canonical state key, so AddRun can count an
	// edge into it without building the string again.
	key string
}

// Prob returns the transition probability from this node to the given
// destination key: f(e)/Σf(e) (Section II-B, Transition Probability).
func (n *Node) Prob(to string) float64 {
	if n.Total == 0 {
		return 0
	}
	return float64(n.Out[to]) / float64(n.Total)
}

// MaxProb returns the largest outbound probability, 0 for terminal
// nodes.
func (n *Node) MaxProb() float64 {
	best := 0
	for _, c := range n.Out {
		if c > best {
			best = c
		}
	}
	if n.Total == 0 {
		return 0
	}
	return float64(best) / float64(n.Total)
}

// HighProbDests returns the destination keys whose probability is at
// least MaxProb/tfactor — the paper's destination set D for guided
// execution. tfactor ≤ 0 falls back to DefaultTfactor. The result is
// sorted by descending probability (ties by key for determinism).
func (n *Node) HighProbDests(tfactor float64) []string {
	if tfactor <= 0 {
		tfactor = DefaultTfactor
	}
	if n.Total == 0 {
		return nil
	}
	threshold := n.MaxProb() / tfactor
	type ec struct {
		key string
		cnt int
	}
	var es []ec
	for k, c := range n.Out {
		if float64(c)/float64(n.Total) >= threshold {
			es = append(es, ec{k, c})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].cnt != es[j].cnt {
			return es[i].cnt > es[j].cnt
		}
		return es[i].key < es[j].key
	})
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.key
	}
	return out
}

// TSA is the thread state automaton: a map from canonical state key to
// node. Threads records the thread count the model was trained with,
// since models are per-configuration (the paper trains 8- and
// 16-thread models separately).
type TSA struct {
	Nodes   map[string]*Node
	Threads int
}

// New returns an empty TSA for the given thread count.
func New(threads int) *TSA {
	return &TSA{Nodes: make(map[string]*Node), Threads: threads}
}

// Build constructs the TSA from one or more profiled transaction
// sequences (one per profile run), implementing Algorithm 1: every
// unique TTS becomes a node; consecutive states within a run add one to
// the corresponding transition count. Runs are independent: no
// transition is added across run boundaries.
func Build(threads int, runs ...[]tts.State) *TSA {
	m := New(threads)
	for _, seq := range runs {
		m.AddRun(seq)
	}
	return m
}

// AddRun folds one profile run's transaction sequence into the model.
// States are looked up through one reused key buffer, so a state the
// model already holds costs no allocation.
func (m *TSA) AddRun(seq []tts.State) {
	var buf []byte
	var prev *Node
	for _, st := range seq {
		buf = st.AppendKey(buf[:0])
		node := m.Nodes[string(buf)]
		if node == nil {
			node = m.ensure(string(buf), st)
		} else if node.key == "" {
			// Built outside this package (lint's prior synthesizer).
			node.key = string(buf)
		}
		if prev != nil {
			prev.Out[node.key]++
			prev.Total++
		}
		prev = node
	}
}

func (m *TSA) ensure(key string, st tts.State) *Node {
	n, ok := m.Nodes[key]
	if !ok {
		cp := tts.State{Commit: st.Commit, Aborts: append([]tts.Pair(nil), st.Aborts...)}
		cp.Canonicalize()
		n = &Node{State: cp, Out: make(map[string]int), key: key}
		m.Nodes[key] = n
	}
	return n
}

// NumStates returns |S|, the number of distinct states in the model —
// Table III's quantity.
func (m *TSA) NumStates() int { return len(m.Nodes) }

// NumEdges returns the number of distinct transitions.
func (m *TSA) NumEdges() int {
	n := 0
	for _, node := range m.Nodes {
		n += len(node.Out)
	}
	return n
}

// Node returns the node for a state key, or nil when the state was
// never observed during profiling (the "new state" case the guide lets
// pass through).
func (m *TSA) Node(key string) *Node { return m.Nodes[key] }

// Prune returns a copy of the model containing, for every state, only
// the high-probability edges under tfactor, and only nodes that remain
// reachable as a source or destination of some kept edge. This is the
// paper's Section VI size reduction ("the model is further cut down to
// exclude low-probability states") applied before guided execution.
func (m *TSA) Prune(tfactor float64) *TSA {
	out := New(m.Threads)
	keep := make(map[string]bool)
	for key, node := range m.Nodes {
		dests := node.HighProbDests(tfactor)
		if len(dests) > 0 {
			keep[key] = true
			for _, d := range dests {
				keep[d] = true
			}
		}
	}
	for key, node := range m.Nodes {
		if !keep[key] {
			continue
		}
		nn := out.ensure(key, node.State)
		for _, d := range node.HighProbDests(tfactor) {
			if keep[d] {
				nn.Out[d] = node.Out[d]
				nn.Total += node.Out[d]
			}
		}
	}
	return out
}

// Merge folds other into m (same thread count expected), summing
// transition counts. Useful for building one model from collectors
// running in separate processes.
func (m *TSA) Merge(other *TSA) error {
	if other.Threads != m.Threads {
		return fmt.Errorf("model: cannot merge %d-thread model into %d-thread model",
			other.Threads, m.Threads)
	}
	for key, onode := range other.Nodes {
		n := m.ensure(key, onode.State)
		for d, c := range onode.Out {
			n.Out[d] += c
			n.Total += c
		}
	}
	return nil
}

// Dump renders a human-readable listing of up to maxStates states with
// their top edges, for debugging and the CLI's inspect mode.
func (m *TSA) Dump(maxStates int) string {
	keys := make([]string, 0, len(m.Nodes))
	for k := range m.Nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return m.Nodes[keys[i]].Total > m.Nodes[keys[j]].Total
	})
	if maxStates > 0 && len(keys) > maxStates {
		keys = keys[:maxStates]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "TSA: %d states, %d edges, %d threads\n",
		m.NumStates(), m.NumEdges(), m.Threads)
	for _, k := range keys {
		n := m.Nodes[k]
		fmt.Fprintf(&b, "%s (out=%d)\n", n.State, n.Total)
		for _, d := range n.HighProbDests(1e9) { // all edges, sorted by prob
			fmt.Fprintf(&b, "  -> %s  p=%.3f (%d)\n",
				m.Nodes[d].State, n.Prob(d), n.Out[d])
		}
	}
	return b.String()
}
