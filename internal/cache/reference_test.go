package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"specabsint/internal/layout"
)

// refKernel is the full-width transfer kernel: the NYoung histogram is
// cleared, built and prefix-summed over all assoc+2 ages on every access,
// and the must pass always runs. It is the specification the bounded
// kernel in domain.go and persist.go must match bit for bit.
type refKernel struct {
	l                *layout.Layout
	refined, persist bool
	prefix           []int
}

func (r *refKernel) transfer(s *State, acc Access) {
	if s.IsBottom {
		return
	}
	switch {
	case r.persist && acc.Exact():
		r.persistExact(s, acc.First)
	case r.persist:
		r.persistRange(s, acc)
	case acc.Exact():
		r.exact(s, acc.First)
	default:
		r.rangeAccess(s, acc)
	}
}

func (r *refKernel) affectedSets(acc Access) []int {
	seen := map[int]bool{}
	var sets []int
	for i := 0; i < acc.Count; i++ {
		set := r.l.SetOf(acc.First + layout.BlockID(i))
		if !seen[set] {
			seen[set] = true
			sets = append(sets, set)
		}
	}
	return sets
}

func (r *refKernel) shadowUpdateExact(s *State, v layout.BlockID) {
	assoc := uint16(r.l.Config.Assoc)
	stride := r.l.Config.NumSets
	oldShadowV := s.shadow[v]
	counting := r.refined
	if counting {
		r.prefix = make([]int, int(assoc)+2)
	}
	for i := r.l.SetOf(v); i < len(s.shadow); i += stride {
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
		if counting && layout.BlockID(i) != v {
			r.prefix[a]++
		}
	}
	s.shadow[v] = 1
	if counting {
		r.prefix[1]++
		for a := 2; a <= int(assoc)+1; a++ {
			r.prefix[a] += r.prefix[a-1]
		}
	}
}

func (r *refKernel) buildPrefix(s *State, set int) {
	assoc := r.l.Config.Assoc
	r.prefix = make([]int, assoc+2)
	for i := set; i < len(s.shadow); i += r.l.Config.NumSets {
		if a := int(s.shadow[i]); a != 0 && a <= assoc {
			r.prefix[a]++
		}
	}
	for a := 1; a <= assoc+1; a++ {
		r.prefix[a] += r.prefix[a-1]
	}
}

func (r *refKernel) shouldAge(s *State, u, ageU int) bool {
	n := r.prefix[min(ageU, len(r.prefix)-1)]
	if a := int(s.shadow[u]); a != 0 && a <= ageU {
		n--
	}
	return n >= ageU
}

func (r *refKernel) exact(s *State, v layout.BlockID) {
	assoc := r.l.Config.Assoc
	r.shadowUpdateExact(s, v)
	oldMustV := int(s.must[v])
	for i := r.l.SetOf(v); i < len(s.must); i += r.l.Config.NumSets {
		a := int(s.must[i])
		if a == 0 || layout.BlockID(i) == v {
			continue
		}
		if oldMustV != 0 && a >= oldMustV {
			continue
		}
		if r.refined && !r.shouldAge(s, i, a) {
			continue
		}
		if a+1 > assoc {
			s.must[i] = 0
		} else {
			s.must[i] = uint16(a + 1)
		}
	}
	s.must[v] = 1
}

func (r *refKernel) rangeAccess(s *State, acc Access) {
	assoc := r.l.Config.Assoc
	for i := 0; i < acc.Count; i++ {
		s.shadow[acc.First+layout.BlockID(i)] = 1
	}
	for _, set := range r.affectedSets(acc) {
		if r.refined {
			r.buildPrefix(s, set)
		}
		for i := set; i < len(s.must); i += r.l.Config.NumSets {
			a := int(s.must[i])
			if a == 0 {
				continue
			}
			if r.refined && !r.shouldAge(s, i, a) {
				continue
			}
			if a+1 > assoc {
				s.must[i] = 0
			} else {
				s.must[i] = uint16(a + 1)
			}
		}
	}
}

func (r *refKernel) persistExact(s *State, v layout.BlockID) {
	assoc := r.l.Config.Assoc
	r.shadowUpdateExact(s, v)
	oldV := s.must[v]
	for i := r.l.SetOf(v); i < len(s.must); i += r.l.Config.NumSets {
		a := s.must[i]
		if a == 0 || a == persistTop || layout.BlockID(i) == v {
			continue
		}
		if oldV != 0 && oldV != persistTop && a >= oldV {
			continue
		}
		if int(a)+1 > assoc {
			s.must[i] = persistTop
		} else {
			s.must[i] = a + 1
		}
	}
	if s.must[v] == 0 {
		s.must[v] = 1
	}
}

func (r *refKernel) persistRange(s *State, acc Access) {
	assoc := r.l.Config.Assoc
	for i := 0; i < acc.Count; i++ {
		b := acc.First + layout.BlockID(i)
		s.shadow[b] = 1
		if s.must[b] == 0 {
			s.must[b] = 1
		}
	}
	for _, set := range r.affectedSets(acc) {
		for i := set; i < len(s.must); i += r.l.Config.NumSets {
			a := s.must[i]
			if a == 0 || a == persistTop {
				continue
			}
			if int(a)+1 > assoc {
				s.must[i] = persistTop
			} else {
				s.must[i] = a + 1
			}
		}
	}
}

// TestTransferMatchesFullWidthKernel drives random sequences of exact and
// range accesses, with occasional joins and widenings, through one Domain
// and through refKernel, and requires identical must and shadow vectors
// after every step. The Domain is reused across the whole sequence, so a
// histogram entry or a top left over from one transfer would show up in a
// later one. The access mix re-touches the youngest block, loops over a hot
// subset and sweeps through all blocks in order, so states run from tiny
// tops to ages at assoc and past it into eviction.
func TestTransferMatchesFullWidthKernel(t *testing.T) {
	modes := []struct {
		name             string
		refined, persist bool
	}{
		{"refined", true, false},
		{"classic", false, false},
		{"persist", true, true},
		{"persist-classic", false, true},
	}
	for _, numSets := range []int{1, 4, 64} {
		for _, assoc := range []int{1, 2, 8, 512} {
			// Enough blocks to overflow every set, capped so the widest
			// geometries stay fast; 1 set x 512 ways still overflows.
			nBlocks := min(numSets*(assoc+assoc/4+3), 1400)
			l := propLayout(t, nBlocks, numSets, assoc)
			for mi, m := range modes {
				name := fmt.Sprintf("%dx%d/%s", numSets, assoc, m.name)
				t.Run(name, func(t *testing.T) {
					seed := int64(numSets*10007 + assoc*31 + mi)
					checkAgainstReference(t, l, m.refined, m.persist, seed)
				})
			}
		}
	}
}

func checkAgainstReference(t *testing.T, l *layout.Layout, refined, persist bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := &Domain{L: l, Refined: refined, Persist: persist}
	ref := &refKernel{l: l, refined: refined, persist: persist}
	n := l.NumBlocks
	got := [2]*State{d.NewState(), d.NewState()}
	want := [2]*State{d.NewState(), d.NewState()}
	hot := rng.Perm(n)[:min(n, 12)]
	last, sweep := layout.BlockID(0), [2]int{}
	oldest := 0 // largest shadow age reached
	steps := 2*n + 3000
	k := 0 // the state the next step applies to
	for step := 0; step < steps; step++ {
		if rng.Intn(100) < 2 {
			k = 1 - k
		}
		r := rng.Intn(1000)
		if step < 2*n {
			// Open with one full sweep per state, so every set is driven
			// past assoc into eviction before the mix starts.
			k, r = step/n, 500
		}
		var acc Access
		switch {
		case r < 200: // the youngest block again
			acc = Access{First: last, Count: 1}
		case r < 500:
			acc = Access{First: layout.BlockID(hot[rng.Intn(len(hot))]), Count: 1}
		case r < 965: // a cold sweep: ages whole sets towards eviction
			sweep[k] = (sweep[k] + 1) % n
			acc = Access{First: layout.BlockID(sweep[k]), Count: 1}
		case r < 995: // a range over a few consecutive blocks, across sets
			cnt := 2 + rng.Intn(min(4, n-2))
			acc = Access{First: layout.BlockID(rng.Intn(n - cnt + 1)), Count: cnt}
		case r < 998:
			d.JoinInto(got[k], got[1-k])
			d.JoinInto(want[k], want[1-k])
			compareStates(t, step, "join", got[k], want[k])
			continue
		default: // widening puts shadow ages at 1 next to must-youngest blocks
			got[k] = d.Widen(got[1-k], got[k])
			want[k] = d.Widen(want[1-k], want[k])
			compareStates(t, step, "widen", got[k], want[k])
			continue
		}
		if acc.Exact() {
			last = acc.First
		}
		d.Transfer(got[k], acc)
		ref.transfer(want[k], acc)
		compareStates(t, step, acc, got[k], want[k])
		for _, a := range want[k].shadow {
			oldest = max(oldest, int(a))
		}
	}
	if perSet := n / l.Config.NumSets; perSet > l.Config.Assoc && oldest < l.Config.Assoc {
		t.Errorf("sequence never aged a block to assoc %d (oldest %d): it does not reach eviction", l.Config.Assoc, oldest)
	}
}

func compareStates(t *testing.T, step int, what any, got, want *State) {
	t.Helper()
	for i := range want.must {
		if got.must[i] != want.must[i] || got.shadow[i] != want.shadow[i] {
			t.Fatalf("step %d (%+v): block %d must=%d shadow=%d, full-width kernel must=%d shadow=%d",
				step, what, i, got.must[i], got.shadow[i], want.must[i], want.shadow[i])
		}
	}
}
