package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"gstm/internal/model"
	"gstm/internal/proptest"
	"gstm/internal/tts"
)

// The profile pipeline (Collector.Sequence, tts.State.AppendKey,
// model.AddRun) is pinned against the straightforward algorithms it
// replaced, kept here as the oracle: a map over every commit, a
// Canonicalize on every state, and a fresh key string per state.

func oracleSequence(c *Collector) (seq []tts.State, unattributed int) {
	byInstance := make(map[uint64]int, len(c.commits))
	seq = make([]tts.State, len(c.commits))
	for i, cr := range c.commits {
		byInstance[cr.instance] = i
		seq[i] = tts.State{Commit: cr.pair}
	}
	for _, a := range c.aborts {
		if i, ok := byInstance[a.killer]; ok && a.killer != 0 {
			seq[i].Aborts = append(seq[i].Aborts, a.pair)
		} else {
			unattributed++
		}
	}
	for i := range seq {
		seq[i].Canonicalize()
	}
	return seq, unattributed
}

func oracleKey(s tts.State) string {
	aborts := append([]tts.Pair(nil), s.Aborts...)
	sort.Slice(aborts, func(i, j int) bool {
		a, b := aborts[i], aborts[j]
		if a.Tx != b.Tx {
			return a.Tx < b.Tx
		}
		return a.Thread < b.Thread
	})
	buf := make([]byte, 4*(1+len(aborts)))
	binary.BigEndian.PutUint16(buf[0:], s.Commit.Tx)
	binary.BigEndian.PutUint16(buf[2:], s.Commit.Thread)
	for i, a := range aborts {
		binary.BigEndian.PutUint16(buf[4*(i+1):], a.Tx)
		binary.BigEndian.PutUint16(buf[4*(i+1)+2:], a.Thread)
	}
	return string(buf)
}

// oracleAddRun builds nodes through the exported fields only, the way
// model builders outside the package do.
func oracleAddRun(m *model.TSA, seq []tts.State) {
	var prevKey string
	for i, st := range seq {
		key := oracleKey(st)
		if m.Nodes[key] == nil {
			cp := tts.State{Commit: st.Commit, Aborts: append([]tts.Pair(nil), st.Aborts...)}
			cp.Canonicalize()
			m.Nodes[key] = &model.Node{State: cp, Out: map[string]int{}}
		}
		if i > 0 {
			from := m.Nodes[prevKey]
			from.Out[key]++
			from.Total++
		}
		prevKey = key
	}
}

// randomCollector records a random event stream: duplicate commit
// instances, commits of instance 0, aborts killed by instance 0, by
// committed instances and by instances that never commit, with aborts
// interleaved with commits in arbitrary order.
func randomCollector(r *rand.Rand) *Collector {
	c := NewCollector()
	pair := func() tts.Pair {
		return tts.Pair{Tx: uint16(r.Intn(5)), Thread: uint16(r.Intn(4))}
	}
	n := r.Intn(120)
	next := uint64(1)
	var committed []uint64
	for len(committed) < n {
		if r.Intn(3) == 0 {
			var killer uint64
			switch k := r.Intn(8); {
			case k == 0:
				killer = 0
			case k == 1:
				killer = 1 << 40 // never commits
			case k == 2:
				killer = next + uint64(r.Intn(4)) // may commit later
			case len(committed) > 0:
				killer = committed[r.Intn(len(committed))]
			}
			c.OnAbort(pair(), killer)
			continue
		}
		inst := next
		switch r.Intn(12) {
		case 0:
			inst = 0
		case 1:
			if len(committed) > 0 {
				inst = committed[r.Intn(len(committed))]
			}
		default:
			next++
		}
		c.OnCommit(inst, pair())
		committed = append(committed, inst)
	}
	return c
}

func encode(t *testing.T, m *model.TSA) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPipelineMatchesOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, om := model.New(4), model.New(4)
		var runs [][]tts.State
		for run := 0; run < 1+r.Intn(3); run++ {
			c := randomCollector(r)
			want, wantUn := oracleSequence(c)
			got, gotUn := c.Sequence()
			if gotUn != wantUn || !reflect.DeepEqual(got, want) {
				t.Logf("seed %d run %d: Sequence = %v (%d unattributed), oracle %v (%d)", seed, run, got, gotUn, want, wantUn)
				return false
			}
			for _, st := range got {
				if k := st.Key(); k != oracleKey(st) {
					t.Logf("seed %d: Key(%v) = %x, oracle %x", seed, st, k, oracleKey(st))
					return false
				}
			}
			m.AddRun(got)
			oracleAddRun(om, want)
			runs = append(runs, got)
		}
		if !bytes.Equal(encode(t, m), encode(t, om)) {
			t.Logf("seed %d: Encode bytes differ from the oracle model's", seed)
			return false
		}
		// AddRun onto nodes built outside the model package.
		for _, seq := range runs {
			m.AddRun(seq)
			om.AddRun(seq)
		}
		if !bytes.Equal(encode(t, m), encode(t, om)) {
			t.Logf("seed %d: AddRun onto externally built nodes differs", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, proptest.Config(t, 300)); err != nil {
		t.Error(err)
	}
}

// AppendKey on an abort list out of canonical order sorts a copy: the
// key is canonical and the receiver is untouched.
func TestAppendKeyUnsortedAborts(t *testing.T) {
	st := tts.State{
		Commit: tts.Pair{Tx: 2, Thread: 1},
		Aborts: []tts.Pair{{Tx: 3, Thread: 0}, {Tx: 1, Thread: 2}, {Tx: 1, Thread: 0}, {Tx: 3, Thread: 0}},
	}
	orig := append([]tts.Pair(nil), st.Aborts...)
	prefix := []byte("x")
	got := st.AppendKey(prefix)
	if string(got[:1]) != "x" || string(got[1:]) != oracleKey(st) {
		t.Errorf("AppendKey = %x, want x + %x", got, oracleKey(st))
	}
	if !reflect.DeepEqual(st.Aborts, orig) {
		t.Errorf("AppendKey reordered the receiver's aborts: %v", st.Aborts)
	}
}
