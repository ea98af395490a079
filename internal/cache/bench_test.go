package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"specabsint/internal/ir"
	"specabsint/internal/layout"
)

// benchLayout builds a layout over nBlocks line-sized scalars, mirroring
// propLayout but sized for benchmarking.
func benchLayout(b *testing.B, nBlocks, numSets, assoc int) *layout.Layout {
	b.Helper()
	bd := ir.NewBuilder("bench")
	for i := 0; i < nBlocks; i++ {
		bd.AddSymbol(fmt.Sprintf("s%d", i), 64, 1, false, nil)
	}
	entry := bd.NewBlock("entry")
	bd.SetBlock(entry)
	bd.Ret(ir.ConstVal(0))
	prog, err := bd.Finish(entry)
	if err != nil {
		b.Fatal(err)
	}
	l, err := layout.New(prog, layout.CacheConfig{LineSize: 64, NumSets: numSets, Assoc: assoc})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// warmState drives a random access sequence through a fresh state so the
// benchmarks operate on realistic mid-fixpoint contents.
func warmState(d *Domain, nBlocks int, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	st := d.NewState()
	for i := 0; i < 4*nBlocks; i++ {
		d.Transfer(st, Access{First: layout.BlockID(rng.Intn(nBlocks)), Count: 1})
	}
	return st
}

// programSequence returns an access sequence shaped like the fixpoint's
// traffic on the WCET kernels at the paper geometry: a set of 174 blocks of
// which a few dozen are live (the largest live shadow age stays near 23), a
// hot loop of 10 blocks, and 4 of every 14 accesses re-touching the block
// that was just accessed (the youngest). warm lists the accesses that set up
// the live blocks before the loop starts.
func programSequence() (warm, loop []layout.BlockID) {
	const hot, cold = 10, 13
	for b := 0; b < hot+cold; b++ {
		warm = append(warm, layout.BlockID(b))
	}
	for b := 0; b < hot; b++ {
		loop = append(loop, layout.BlockID(b))
		if b%3 == 0 {
			loop = append(loop, layout.BlockID(b))
		}
	}
	return warm, loop
}

// BenchmarkTransfer measures one exact-access transfer on the paper's
// fully-associative geometry and on a 64-set/8-way one. The fullyassoc
// shapes cycle through all 512 blocks, so every live age sits near 512: the
// worst case for the NYoung histogram. program-174 replays programSequence,
// the shape real programs have.
func BenchmarkTransfer(b *testing.B) {
	shapes := []struct {
		name           string
		blocks, sets   int
		assoc, refined int // refined: 1 = NYoung rule on
		program        bool
	}{
		{"fullyassoc-512", 512, 1, 512, 1, false},
		{"64set-8way", 512, 64, 8, 1, false},
		{"fullyassoc-classic", 512, 1, 512, 0, false},
		{"program-174", 174, 1, 512, 1, true},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			l := benchLayout(b, sh.blocks, sh.sets, sh.assoc)
			d := &Domain{L: l, Refined: sh.refined == 1}
			var st *State
			var seq []layout.BlockID
			if sh.program {
				warm, loop := programSequence()
				st = d.NewState()
				for _, v := range warm {
					d.Transfer(st, Access{First: v, Count: 1})
				}
				seq = loop
			} else {
				st = warmState(d, sh.blocks, 1)
				for v := 0; v < sh.blocks; v++ {
					seq = append(seq, layout.BlockID(v))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Transfer(st, Access{First: seq[i%len(seq)], Count: 1})
			}
		})
	}
}

// BenchmarkTransferInto measures the copy+transfer step that replaces the
// clone-then-mutate pattern in the fixpoint engine.
func BenchmarkTransferInto(b *testing.B) {
	l := benchLayout(b, 512, 1, 512)
	d := NewDomain(l)
	src := warmState(d, 512, 2)
	dst := d.NewState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TransferInto(dst, src, Access{First: layout.BlockID(i % 512), Count: 1})
	}
}

// BenchmarkJoinInto measures the in-place join on already-converged (equal)
// states — the steady-state case a fixpoint spends most of its time in.
func BenchmarkJoinInto(b *testing.B) {
	for _, sets := range []int{1, 64} {
		b.Run(fmt.Sprintf("%dset", sets), func(b *testing.B) {
			l := benchLayout(b, 512, sets, 512/sets)
			d := NewDomain(l)
			src := warmState(d, 512, 3)
			dst := src.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.JoinInto(dst, src)
			}
		})
	}
}

// BenchmarkJoinIntoFiltered measures the per-set view: joining only one
// set's blocks out of 64, the partitioned engine's steady-state join.
func BenchmarkJoinIntoFiltered(b *testing.B) {
	l := benchLayout(b, 512, 64, 8)
	d := NewDomain(l)
	d.Filter = NewSetFilter(64, []int{5})
	src := warmState(d, 512, 4)
	dst := src.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.JoinInto(dst, src)
	}
}
