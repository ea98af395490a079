// Package bytecode compiles the analyzer's two interpretive hot loops into
// flat, pre-resolved forms executed without per-instruction dispatch through
// ir.Instr:
//
//   - the per-block cache-transfer sequence of the fixpoint engine (this
//     file): every Load/Store is resolved to its candidate cache blocks once,
//     at build time, and the engine's transfer and lane-walk loops (which
//     also record each access's verdict) iterate a dense access-step slice
//     instead of re-walking b.Instrs with a map lookup per instruction;
//   - the concrete machine's fetch/execute step (machine.go): each
//     instruction is specialized into a closure, so stepping is one indirect
//     call instead of a switch over ir.Op plus operand re-decoding.
//
// Both forms are pure lowerings: they precompute what the tree-walking loops
// recompute, and change no join, widen, transfer, or hook order. The
// tree-walking paths stay selectable via ExecInterp for differential
// checking.
package bytecode

import (
	"fmt"

	"specabsint/internal/cache"
	"specabsint/internal/ir"
)

// ExecMode selects the execution engine for the fixpoint transfer loops and
// the concrete simulator core. Both modes compute identical results — the
// compiled form is a pure lowering — and the interpreted form is kept as a
// differential-testing reference and escape hatch, like the scheduler knob.
type ExecMode int

// Execution modes.
const (
	// ExecCompiled (the default) runs the bytecode-compiled forms.
	ExecCompiled ExecMode = iota
	// ExecInterp runs the original tree-walking loops over ir.Instr.
	ExecInterp
)

// String names the mode (the same names specanalyze -exec and the wire
// options accept).
func (m ExecMode) String() string {
	switch m {
	case ExecCompiled:
		return "compiled"
	case ExecInterp:
		return "interp"
	}
	return fmt.Sprintf("exec(%d)", int(m))
}

// AccessStep is one pre-resolved memory access within a block: the
// instruction, its index in the block, and its candidate cache blocks.
type AccessStep struct {
	In  *ir.Instr
	Pos int // instruction index within the block
	Acc cache.Access
}

// BlockCode is the compiled transfer program of one basic block.
//
// Arch lists every memory access in order with its architectural (in-bounds)
// resolution; fences do not truncate it, because a fence is architecturally a
// no-op. Spec lists the accesses a wrong-path lane can execute — the
// wrong-path (OOB-extended) resolutions, truncated at the block's first
// fence, since no lane survives past it. A lane entering the block with
// budget B executes Spec step s iff B >= s.Pos+1, exactly the tree-walking
// loop's per-instruction budget decrement.
type BlockCode struct {
	Arch []AccessStep
	Spec []AccessStep
	// FenceIdx is the instruction index of the block's first fence, -1 when
	// the block has none. A lane whose budget strictly exceeds FenceIdx hits
	// the fence (FencesHit accounting); at or below it, the budget expires
	// first.
	FenceIdx int
	// NumInstrs is len(b.Instrs): the budget a lane consumes crossing the
	// whole block.
	NumInstrs int
}

// Program is the compiled analysis form of an ir.Program, indexed by block
// id. It is immutable after Compile and safe to share across the per-set
// partition engines: access steps carry unfiltered resolutions, and the
// domain's set filter is applied inside Transfer/Classify as always.
type Program struct {
	Blocks []BlockCode

	// Shape counters (reported through obs.BytecodeStats).
	ArchSteps    int
	SpecSteps    int
	FencedBlocks int
}

// Compile lowers prog's transfer loops against the given access resolutions
// (the engine's dataAccessMaps output: instruction id to candidate blocks,
// architectural and wrong-path).
func Compile(prog *ir.Program, access, accessSpec map[int]cache.Access) *Program {
	p := &Program{Blocks: make([]BlockCode, len(prog.Blocks))}
	for _, b := range prog.Blocks {
		bc := BlockCode{FenceIdx: -1, NumInstrs: len(b.Instrs)}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpFence && bc.FenceIdx < 0 {
				bc.FenceIdx = i
			}
			acc, ok := access[in.ID]
			if !ok {
				continue
			}
			bc.Arch = append(bc.Arch, AccessStep{In: in, Pos: i, Acc: acc})
			// No wrong-path execution survives past the first fence, so
			// later accesses can never transfer speculatively.
			if bc.FenceIdx < 0 {
				bc.Spec = append(bc.Spec, AccessStep{In: in, Pos: i, Acc: accessSpec[in.ID]})
			}
		}
		p.ArchSteps += len(bc.Arch)
		p.SpecSteps += len(bc.Spec)
		if bc.FenceIdx >= 0 {
			p.FencedBlocks++
		}
		p.Blocks[b.ID] = bc
	}
	return p
}
