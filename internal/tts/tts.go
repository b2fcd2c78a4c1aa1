// Package tts defines the Thread Transactional State (TTS), the paper's
// core abstraction (Section II-B): the outcome of one simultaneous
// transaction execution, written as a tuple of the (transaction, thread)
// pairs that were aborted together with the (transaction, thread) pair
// that committed and caused those aborts.
//
// States have a canonical binary key (stable under abort reordering)
// used for map lookups in the model and the guide, and a human-readable
// form matching the paper's notation, e.g. {<a6 b7>, <c3>} for "thread 6
// running transaction a and thread 7 running transaction b were aborted
// by thread 3 committing transaction c".
package tts

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Pair identifies a transaction execution: which static transaction ID
// was being run and by which thread. Transaction IDs are assigned
// statically at the source level (the paper instruments TM_BEGIN(ID));
// thread IDs are the worker indices 0..n-1.
type Pair struct {
	Tx     uint16
	Thread uint16
}

// Key packs the pair into a single comparable integer (tx in the high
// half-word). Useful as a set key inside the guide's hot path.
func (p Pair) Key() uint32 {
	return uint32(p.Tx)<<16 | uint32(p.Thread)
}

// PairFromKey is the inverse of Pair.Key.
func PairFromKey(k uint32) Pair {
	return Pair{Tx: uint16(k >> 16), Thread: uint16(k)}
}

// String renders the pair in the paper's compact notation: transaction
// IDs 0..25 print as letters a..z, larger ones as t<N>.
func (p Pair) String() string {
	if p.Tx < 26 {
		return fmt.Sprintf("%c%d", 'a'+byte(p.Tx), p.Thread)
	}
	return fmt.Sprintf("t%d_%d", p.Tx, p.Thread)
}

// State is one thread transactional state: Commit is the pair that
// committed; Aborts are the pairs it aborted (possibly empty, in which
// case the state is the singleton {<commit>}).
type State struct {
	Commit Pair
	Aborts []Pair
}

// pairLess is the canonical abort order: by tx, then thread.
func pairLess(a, b Pair) bool {
	if a.Tx != b.Tx {
		return a.Tx < b.Tx
	}
	return a.Thread < b.Thread
}

// Canonicalize sorts the abort list into the canonical order (by tx,
// then thread) so that equal states always produce equal keys. It
// returns the receiver for chaining.
func (s *State) Canonicalize() *State {
	sort.Slice(s.Aborts, func(i, j int) bool { return pairLess(s.Aborts[i], s.Aborts[j]) })
	return s
}

// pairBytes is the encoded width of one Pair.
const pairBytes = 4

// Key returns the canonical binary encoding of the state, suitable as a
// map key: commit pair first, then the sorted abort pairs, each as
// 4 bytes big-endian. Key does not mutate the receiver.
func (s State) Key() string {
	return string(s.AppendKey(make([]byte, 0, pairBytes*(1+len(s.Aborts)))))
}

// AppendKey appends the state's canonical key (see Key) to dst and
// returns the extended slice. It does not mutate the receiver: an
// abort list out of canonical order is sorted into a scratch copy.
func (s State) AppendKey(dst []byte) []byte {
	aborts := s.Aborts
	for i := 1; i < len(aborts); i++ {
		if pairLess(aborts[i], aborts[i-1]) {
			aborts = append([]Pair(nil), aborts...)
			sort.Slice(aborts, func(i, j int) bool { return pairLess(aborts[i], aborts[j]) })
			break
		}
	}
	dst = binary.BigEndian.AppendUint16(dst, s.Commit.Tx)
	dst = binary.BigEndian.AppendUint16(dst, s.Commit.Thread)
	for _, a := range aborts {
		dst = binary.BigEndian.AppendUint16(dst, a.Tx)
		dst = binary.BigEndian.AppendUint16(dst, a.Thread)
	}
	return dst
}

// ParseKey decodes a canonical key produced by State.Key.
func ParseKey(key string) (State, error) {
	if len(key) == 0 || len(key)%pairBytes != 0 {
		return State{}, fmt.Errorf("tts: malformed state key of length %d", len(key))
	}
	b := []byte(key)
	st := State{
		Commit: Pair{
			Tx:     binary.BigEndian.Uint16(b[0:]),
			Thread: binary.BigEndian.Uint16(b[2:]),
		},
	}
	n := len(b)/pairBytes - 1
	if n > 0 {
		st.Aborts = make([]Pair, n)
		for i := 0; i < n; i++ {
			off := pairBytes * (i + 1)
			st.Aborts[i] = Pair{
				Tx:     binary.BigEndian.Uint16(b[off:]),
				Thread: binary.BigEndian.Uint16(b[off+2:]),
			}
		}
	}
	return st, nil
}

// MustParseKey is ParseKey for keys known to be well-formed (map keys
// of a built model); it panics on malformed input. Diagnostics and
// tests use it to render state keys without error plumbing.
func MustParseKey(key string) State {
	st, err := ParseKey(key)
	if err != nil {
		panic(err)
	}
	return st
}

// Pairs returns every (transaction, thread) pair participating in the
// state — the aborted ones and the committing one. The guide's admission
// check asks whether a starting transaction is "part of any of the state
// tuples" of a destination state (Section V); this is that tuple.
func (s State) Pairs() []Pair {
	out := make([]Pair, 0, len(s.Aborts)+1)
	out = append(out, s.Aborts...)
	out = append(out, s.Commit)
	return out
}

// String renders the state in the paper's notation, e.g.
// {<a1 b2 c3>, <d4>} or {<c3>} for a conflict-free commit.
func (s State) String() string {
	var b strings.Builder
	b.WriteByte('{')
	if len(s.Aborts) > 0 {
		b.WriteByte('<')
		cp := append([]Pair(nil), s.Aborts...)
		st := State{Commit: s.Commit, Aborts: cp}
		st.Canonicalize()
		for i, a := range st.Aborts {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(a.String())
		}
		b.WriteString(">, ")
	}
	b.WriteByte('<')
	b.WriteString(s.Commit.String())
	b.WriteString(">}")
	return b.String()
}

// Equal reports whether two states denote the same TTS (same commit,
// same abort multiset).
func (s State) Equal(o State) bool {
	return s.Key() == o.Key()
}
