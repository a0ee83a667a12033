package blackboard

import "sync/atomic"

// TakeKS removes a knowledge source by name and hands its parked,
// partially-satisfied entries to the caller instead of releasing them:
// one slice per sensitivity slot, in slot order, each entry carrying the
// reference the board held. Unknown names return nil. This is the
// extraction path for fold-style KSs (Reducer), whose final product is
// by construction a parked entry that never triggers again.
func (bb *Blackboard) TakeKS(name string) [][]*Entry {
	bb.regMu.Lock()
	st, ok := bb.byName[name]
	if ok {
		delete(bb.byName, name)
		// Republish the table without st. A post may still hold the
		// previous snapshot; the dead flag below makes its late offers
		// discard (and ledger) instead of parking forever.
		old := *bb.sens.Load()
		next := make(sensMap, len(old))
		for k, v := range old {
			next[k] = v
		}
		for t := range st.slots {
			cur := next[t]
			nl := make([]*ksState, 0, len(cur))
			for _, s := range cur {
				if s != st {
					nl = append(nl, s)
				}
			}
			if len(nl) == 0 {
				delete(next, t)
			} else {
				next[t] = nl
			}
		}
		bb.sens.Store(&next)
	}
	bb.regMu.Unlock()
	if !ok {
		return nil
	}
	st.mu.Lock()
	st.dead = true
	pend := st.pend
	st.pend = make([][]*Entry, len(st.ks.Sensitivities))
	st.mu.Unlock()
	return pend
}

// Reducer is the board-side associative merge operator: a KS doubly
// sensitive to one type, so every two entries of that type trigger a
// pairwise combine whose result is re-posted under the same type. N
// posted entries fold into one through N-1 combines, in whatever order
// the worker pool finds them — which is exactly why the combine function
// must be associative and commutative (analysis.Partial.Merge is). After
// Drain, the single survivor sits parked on the KS and Take retrieves
// it.
type Reducer struct {
	bb      *Blackboard
	name    string
	combine func(a, b *Entry) *Entry
	merges  atomic.Int64
}

// NewReducer registers a pairwise-fold KS for one entry type. combine
// returns the merged entry: either one of its inputs (mutated in place —
// safe because a reduction input is never shared) or a fresh entry with
// one reference; the reducer keeps the survivor alive across the
// worker's input release and re-posts it.
func NewReducer(bb *Blackboard, name string, t Type, combine func(a, b *Entry) *Entry) (*Reducer, error) {
	r := &Reducer{bb: bb, name: name, combine: combine}
	err := bb.Register(KS{
		Name:          name,
		Sensitivities: []Type{t, t},
		Op: func(bb *Blackboard, in []*Entry) {
			out := combine(in[0], in[1])
			if out == in[0] || out == in[1] {
				// The worker releases both inputs after the op; the
				// survivor needs a reference of its own for the re-post.
				out.Retain()
			}
			r.merges.Add(1)
			bb.PostEntry(out)
		},
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Merges returns how many pairwise combines have run.
func (r *Reducer) Merges() int64 { return r.merges.Load() }

// Take unregisters the reducer and returns the folded entry, which the
// caller owns (release it when done), or nil if nothing was ever posted.
// Call after Drain: with the board settled, at most one parked entry
// remains; any leftovers from an interrupted fold are combined inline.
func (r *Reducer) Take() *Entry {
	var acc *Entry
	for _, slot := range r.bb.TakeKS(r.name) {
		for _, e := range slot {
			if acc == nil {
				acc = e
				continue
			}
			out := r.combine(acc, e)
			if out == acc || out == e {
				out.Retain()
			}
			r.merges.Add(1)
			acc.Release()
			e.Release()
			acc = out
		}
	}
	return acc
}
