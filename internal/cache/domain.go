package cache

import (
	"encoding/json"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// Access describes the blocks a memory instruction may touch. Exactly one
// of the Count candidate blocks [First, First+Count) is accessed; Count == 1
// means the block is statically known.
type Access struct {
	Sym   ir.SymbolID
	First layout.BlockID
	Count int
}

// Exact reports whether the accessed block is statically known.
func (a Access) Exact() bool { return a.Count == 1 }

// Blocks returns the candidate block ids.
func (a Access) Blocks() []layout.BlockID {
	ids := make([]layout.BlockID, a.Count)
	for i := range ids {
		ids[i] = a.First + layout.BlockID(i)
	}
	return ids
}

// Classification of a single access against an abstract state.
type Classification int

// Access classifications.
const (
	Unknown Classification = iota
	AlwaysHit
	AlwaysMiss
)

// String names the classification.
func (c Classification) String() string {
	switch c {
	case AlwaysHit:
		return "always-hit"
	case AlwaysMiss:
		return "always-miss"
	}
	return "unknown"
}

// MarshalJSON renders the classification as its name.
func (c Classification) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// Domain bundles the layout with analysis options and implements the
// abstract operations. All operations iterate the block universe with the
// stride of the cache-set mapping, so only blocks competing for the accessed
// set are touched.
type Domain struct {
	L *layout.Layout
	// Refined enables the Appendix-B shadow-variable aging rule (NYoung);
	// when false the classic Ferdinand aging rule is used. The shadow (may)
	// component is maintained either way for Always-Miss classification.
	Refined bool
	// Persist switches the domain to the persistence ("first miss")
	// analysis: ages become sticky maxima since first load, joins take the
	// pointwise max, and AlwaysHit means "misses at most once in total".
	// See persist.go.
	Persist bool
	// Filter, when non-nil, restricts the domain to a subset of the cache
	// sets: Transfer ignores accesses outside the filter, and JoinInto /
	// Leq / Equal / Widen iterate only the owned sets' blocks. See filter.go.
	Filter *SetFilter

	// prefix is scratch for the NYoung cumulative histogram of one set's
	// shadow ages, sized assoc+2. A transfer fills and queries it only up to
	// top, the largest live shadow age in the accessed set, and clears that
	// range again before returning, so it is all zeros between transfers and
	// never holds a valid entry above the current top.
	prefix []int
	// affected/affectedList are scratch for range transfers: membership mask
	// and list of the cache sets a range access may touch. Reused across
	// calls so the hot path performs no per-transfer allocation.
	affected     []bool
	affectedList []int
}

// affectedSets collects the distinct cache sets touched by acc into the
// domain's scratch list, returning it. Valid until the next call.
func (d *Domain) affectedSets(acc Access) []int {
	numSets := d.L.Config.NumSets
	if len(d.affected) < numSets {
		d.affected = make([]bool, numSets)
	}
	d.affectedList = d.affectedList[:0]
	for i := 0; i < acc.Count && len(d.affectedList) < numSets; i++ {
		set := d.L.SetOf(acc.First + layout.BlockID(i))
		if !d.affected[set] {
			d.affected[set] = true
			d.affectedList = append(d.affectedList, set)
		}
	}
	for _, set := range d.affectedList {
		d.affected[set] = false
	}
	return d.affectedList
}

// NewDomain creates a refined domain over l.
func NewDomain(l *layout.Layout) *Domain { return &Domain{L: l, Refined: true} }

// NewState returns the empty-cache state sized for the domain's layout.
func (d *Domain) NewState() *State { return NewState(d.L.NumBlocks) }

func (d *Domain) assoc() int { return d.L.Config.Assoc }

// setStart returns the first block id in the same cache set as b, so that
// iterating with stride NumSets visits exactly b's competitors.
func (d *Domain) setStart(b layout.BlockID) int { return d.L.SetOf(b) }

// Owns reports whether acc falls inside the domain's set filter. The
// partitioned engine's grouping guarantees all candidate blocks of an access
// share one set group, so checking the first candidate suffices.
func (d *Domain) Owns(acc Access) bool {
	return d.Filter == nil || d.Filter.Contains(d.L.SetOf(acc.First))
}

// Transfer applies one memory access to the state in place. Accesses outside
// the domain's set filter are no-ops: their effects are confined to cache
// sets this domain does not own.
func (d *Domain) Transfer(s *State, acc Access) {
	if s.IsBottom || !d.Owns(acc) {
		return
	}
	if d.Persist {
		if acc.Exact() {
			d.persistAccessExact(s, acc.First)
		} else {
			d.persistAccessRange(s, acc)
		}
		return
	}
	if acc.Exact() {
		d.accessExact(s, acc.First)
		return
	}
	d.accessRange(s, acc)
}

// shadowUpdateExact applies the Appendix-B may-aging for a known access:
// blocks whose shadow age is <= the accessed block's old shadow age get one
// step older. When count is set, the histogram of the *new* shadow ages is
// collected into d.prefix in the same pass (avoiding a second scan for the
// NYoung rule) and prefix-summed up to top, the largest new age in the set,
// which it returns; the caller clears d.prefix[:top+1] when done with it.
func (d *Domain) shadowUpdateExact(s *State, v layout.BlockID, count bool) (top int) {
	assoc := uint16(d.assoc())
	stride := d.L.Config.NumSets
	oldShadowV := s.shadow[v] // 0 = infinity
	if count {
		d.growPrefix()
	}
	top = 1 // v itself
	for i := d.setStart(v); i < len(s.shadow); i += stride {
		a := s.shadow[i]
		if a == 0 {
			continue
		}
		if layout.BlockID(i) != v && (oldShadowV == 0 || a <= oldShadowV) {
			if a+1 > assoc {
				s.shadow[i] = 0
				continue
			}
			a++
			s.shadow[i] = a
		}
		if count && layout.BlockID(i) != v {
			d.prefix[a]++
			top = max(top, int(a))
		}
	}
	s.shadow[v] = 1
	if count {
		d.prefix[1]++ // v itself
		d.sumPrefix(top)
	}
	return top
}

// growPrefix sizes d.prefix for the domain's associativity. A fresh slice is
// all zeros, which is the invariant every transfer restores on return.
func (d *Domain) growPrefix() {
	if n := d.assoc() + 2; len(d.prefix) < n {
		d.prefix = make([]int, n)
	}
}

// sumPrefix turns the histogram d.prefix[1..top] into its running sum, so
// that prefix[a] is the number of shadow blocks in the set with age <= a.
func (d *Domain) sumPrefix(top int) {
	p := d.prefix[:top+1]
	for a := 2; a < len(p); a++ {
		p[a] += p[a-1]
	}
}

// buildPrefix fills d.prefix with the cumulative histogram of the (already
// updated) shadow ages of one set, up to the largest of them, which it
// returns as top. It makes the NYoung rule O(1) per aged block; the caller
// clears d.prefix[:top+1] when done with it.
func (d *Domain) buildPrefix(s *State, set int) (top int) {
	assoc := d.assoc()
	d.growPrefix()
	stride := d.L.Config.NumSets
	for i := set; i < len(s.shadow); i += stride {
		if a := int(s.shadow[i]); a != 0 && a <= assoc {
			d.prefix[a]++
			top = max(top, a)
		}
	}
	d.sumPrefix(top)
	return top
}

// shouldAge implements the NYoung rule: u ages only if at least Age(u)
// shadow blocks (other than u, in u's set) may be younger than or as young
// as u. Shadow ages are the *new* ages, per Appendix B. top is the largest
// shadow age counted into d.prefix, so prefix[top] is the set's total and
// stands for every age above it.
func (d *Domain) shouldAge(s *State, u, ageU, top int) bool {
	n := d.prefix[min(ageU, top)]
	if a := int(s.shadow[u]); a != 0 && a <= ageU {
		n-- // u itself does not count toward NYoung(u)
	}
	return n >= ageU
}

// accessExact implements the Fig. 4 / Appendix B transfer for a known block.
// Its cost is O(set size + top): one pass over the set's shadow ages (which
// also counts the histogram), the prefix sum up to top, and one pass over
// the set's must ages.
func (d *Domain) accessExact(s *State, v layout.BlockID) {
	oldMustV := int(s.must[v]) // 0 = infinity
	if oldMustV == 1 {
		// v is already the youngest: no must age is younger than v's, so
		// nothing can age and the NYoung histogram is never consulted.
		d.shadowUpdateExact(s, v, false)
		return
	}
	assoc := d.assoc()
	stride := d.L.Config.NumSets
	top := d.shadowUpdateExact(s, v, d.Refined)
	for i := d.setStart(v); i < len(s.must); i += stride {
		a := int(s.must[i])
		if a == 0 || layout.BlockID(i) == v {
			continue
		}
		if oldMustV != 0 && a >= oldMustV {
			continue
		}
		if d.Refined && !d.shouldAge(s, i, a, top) {
			continue
		}
		if a+1 > assoc {
			s.must[i] = 0
		} else {
			s.must[i] = uint16(a + 1)
		}
	}
	if d.Refined {
		clear(d.prefix[:top+1])
	}
	if assoc >= 1 {
		s.must[v] = 1
	}
}

// accessRange handles an access whose target block is only known to lie in
// [First, First+Count): exactly one of them is touched, so every block in an
// affected set may age by one, and no block becomes must-cached; on the may
// side every candidate may now be the youngest.
func (d *Domain) accessRange(s *State, acc Access) {
	assoc := d.assoc()
	numSets := d.L.Config.NumSets
	affected := d.affectedSets(acc)

	// Shadow: candidates may be youngest now. Other blocks keep their
	// lower bounds (the access may have gone elsewhere in their set).
	for i := 0; i < acc.Count; i++ {
		s.shadow[acc.First+layout.BlockID(i)] = 1
	}

	// Must: age every block in an affected set (the accessed block's age is
	// unknown, so conservatively it evicts from the bottom of the set).
	for _, set := range affected {
		top := 0
		if d.Refined {
			top = d.buildPrefix(s, set)
		}
		for i := set; i < len(s.must); i += numSets {
			a := int(s.must[i])
			if a == 0 {
				continue
			}
			if d.Refined && !d.shouldAge(s, i, a, top) {
				continue
			}
			if a+1 > assoc {
				s.must[i] = 0
			} else {
				s.must[i] = uint16(a + 1)
			}
		}
		if d.Refined {
			clear(d.prefix[:top+1])
		}
	}
}

// TransferInto makes dst a copy of src with one access applied — the
// allocation-free replacement for the engine's clone-then-mutate pattern
// (dst is typically pooled scratch).
func (d *Domain) TransferInto(dst, src *State, acc Access) {
	dst.CopyFrom(src)
	d.Transfer(dst, acc)
}

// spans invokes fn once per (start, stride) index span the domain's filter
// selects: the whole vector when unfiltered, or one span per owned cache set.
// fn returns whether to keep going (false short-circuits, for Leq/Equal).
func (d *Domain) spans(fn func(start, stride int) bool) {
	if d.Filter == nil {
		fn(0, 1)
		return
	}
	for _, set := range d.Filter.Sets() {
		if !fn(d.L.SetSpan(set)) {
			return
		}
	}
}

// Join returns the least upper bound of a and b (Fig. 5 plus the Appendix-B
// shadow rule): max of must ages (with 0 = infinity absorbing), min of
// shadow ages (with 0 = infinity neutral).
func (d *Domain) Join(a, b *State) *State {
	if a.IsBottom {
		return b.Clone()
	}
	if b.IsBottom {
		return a.Clone()
	}
	out := a.Clone()
	d.JoinInto(out, b)
	return out
}

// JoinInto merges src into dst in place and reports whether dst changed.
// JoinInto copies out of src and never retains it, so callers may pool src.
func (d *Domain) JoinInto(dst, src *State) bool {
	if d.Persist {
		return d.persistJoinInto(dst, src)
	}
	if src.IsBottom {
		return false
	}
	if dst.IsBottom {
		dst.CopyFrom(src)
		return true
	}
	changed := false
	d.spans(func(start, stride int) bool {
		for i := start; i < len(dst.must); i += stride {
			dm, sm := dst.must[i], src.must[i]
			if dm != 0 && (sm == 0 || sm > dm) {
				dst.must[i] = sm
				changed = true
			}
			ds, ss := dst.shadow[i], src.shadow[i]
			if ss != 0 && (ds == 0 || ss < ds) {
				dst.shadow[i] = ss
				changed = true
			}
		}
		return true
	})
	return changed
}

// Leq reports whether a ⊑ b (b over-approximates a): b's must ages are no
// younger than a's, and b's shadow ages no older than a's.
func (d *Domain) Leq(a, b *State) bool {
	if d.Persist {
		return d.persistLeq(a, b)
	}
	if a.IsBottom {
		return true
	}
	if b.IsBottom {
		return false
	}
	leq := true
	d.spans(func(start, stride int) bool {
		for i := start; i < len(a.must); i += stride {
			am, bm := a.must[i], b.must[i]
			if bm != 0 && (am == 0 || am > bm) {
				leq = false
				return false
			}
			as, bs := a.shadow[i], b.shadow[i]
			if as != 0 && (bs == 0 || bs > as) {
				leq = false
				return false
			}
		}
		return true
	})
	return leq
}

// Equal reports state equality under the domain's filter: only blocks in
// owned cache sets are compared (full structural equality when unfiltered).
func (d *Domain) Equal(a, b *State) bool {
	if a.IsBottom || b.IsBottom {
		return a.IsBottom == b.IsBottom
	}
	if len(a.must) != len(b.must) {
		return false
	}
	eq := true
	d.spans(func(start, stride int) bool {
		for i := start; i < len(a.must); i += stride {
			if a.must[i] != b.must[i] || a.shadow[i] != b.shadow[i] {
				eq = false
				return false
			}
		}
		return true
	})
	return eq
}

// Widen accelerates convergence: any must age that grew since prev jumps to
// evicted, and any shadow age that shrank (or appeared) jumps to 1. The
// result over-approximates next, so widening preserves soundness (§6.3).
func (d *Domain) Widen(prev, next *State) *State {
	if d.Persist {
		return d.persistWiden(prev, next)
	}
	if prev.IsBottom {
		return next.Clone()
	}
	if next.IsBottom {
		return prev.Clone()
	}
	out := next.Clone()
	d.spans(func(start, stride int) bool {
		for i := start; i < len(out.must); i += stride {
			nm, pm := next.must[i], prev.must[i]
			if nm != 0 && (pm == 0 || nm > pm) {
				out.must[i] = 0
			}
			ns, ps := next.shadow[i], prev.shadow[i]
			if (ns != 0 && (ps == 0 || ns < ps)) || (ns == 0 && ps != 0) {
				out.shadow[i] = 1
			}
		}
		return true
	})
	return out
}

// Saturate clamps x, in place, against a fixed reference state: any must age
// strictly above the reference's jumps to evicted, and any shadow age
// strictly below the reference's (or present where the reference has none)
// jumps to 1. Unlike Widen — whose prev is the evolving previous iterate —
// the reference here never changes, which makes Saturate a *monotone*
// function of x: each dimension either passes through unchanged or maps to
// the join-absorbing extreme, and the threshold it is compared against is
// constant. Applying it to every loop-head contribution therefore keeps the
// enclosing fixpoint a monotone system with a unique, visit-order-independent
// least solution. (Widen's extra rule "shadow disappeared → 1" is deliberately
// absent: it maps the dimension's bottom above values it is ordered below,
// which is exactly the non-monotonicity this transform exists to avoid.)
// The result over-approximates x, so saturation preserves soundness.
func (d *Domain) Saturate(ref, x *State) {
	if ref.IsBottom || x.IsBottom {
		return
	}
	d.spans(func(start, stride int) bool {
		for i := start; i < len(x.must); i += stride {
			xm, rm := x.must[i], ref.must[i]
			if d.Persist {
				if xm > rm {
					x.must[i] = persistTop
				}
			} else if xm != 0 && (rm == 0 || xm > rm) {
				x.must[i] = 0
			}
			xs, rs := x.shadow[i], ref.shadow[i]
			if xs != 0 && (rs == 0 || xs < rs) {
				x.shadow[i] = 1
			}
		}
		return true
	})
}

// Classify judges one access against the state: it is an AlwaysHit when all
// candidate blocks are must-cached, an AlwaysMiss when none may be cached,
// and Unknown otherwise.
func (d *Domain) Classify(s *State, acc Access) Classification {
	if d.Persist {
		return d.persistClassify(s, acc)
	}
	if s.IsBottom {
		return Unknown
	}
	assoc := d.assoc()
	allHit, allMiss := true, true
	for i := 0; i < acc.Count; i++ {
		b := acc.First + layout.BlockID(i)
		if !s.MustHit(b, assoc) {
			allHit = false
		}
		if s.MayBeCached(b) {
			allMiss = false
		}
	}
	switch {
	case allHit:
		return AlwaysHit
	case allMiss:
		return AlwaysMiss
	}
	return Unknown
}
