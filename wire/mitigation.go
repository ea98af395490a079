package wire

import (
	"fmt"

	"specabsint"
)

// Mitigation is the canonical serialized form of a fence-synthesis outcome
// (specabsint.MitigationReport). It is a versioned top-level document with
// the same contract rules as Report: frozen snake_case names, canonical
// encoding, strict decoding. The fenced program itself does not travel on
// the wire — the placement list reconstructs it against the source.
type Mitigation struct {
	// V is the contract version, always 1.
	V int `json:"v"`
	// Fences is the synthesized placement set, sorted by block then index.
	Fences []FencePlacement `json:"fences,omitempty"`
	// BaselineLeaks / BaselineGadgets count the input program's reported
	// side channels and Spectre gadgets; ResidualLeaks / ResidualGadgets
	// what survives the fence set (nonzero residual leaks exist under the
	// classic analysis too and are not fence-fixable).
	BaselineLeaks   int `json:"baseline_leaks"`
	BaselineGadgets int `json:"baseline_gadgets"`
	ResidualLeaks   int `json:"residual_leaks"`
	ResidualGadgets int `json:"residual_gadgets"`
	// Candidates counts seeded fence sites; Analyses the analyses the
	// search actually ran, the baseline included (each distinct fence set
	// is analyzed once, so a leak-free program costs 1).
	Candidates int `json:"candidates"`
	Analyses   int `json:"analyses"`
	// BaselineWCET / MitigatedWCET are the worst-case cycle bounds, -1 when
	// the CFG is cyclic; WCETBounded reports whether both exist.
	BaselineWCET  int64 `json:"baseline_wcet"`
	MitigatedWCET int64 `json:"mitigated_wcet"`
	WCETBounded   bool  `json:"wcet_bounded,omitempty"`
	// OverheadPercent is the WCET cost of the repair, two-decimal rounded.
	OverheadPercent float64 `json:"overhead_percent"`
	// Verified / VerifySkipped / Traces report the differential secret-pair
	// trace check on the fenced program.
	Verified      bool `json:"verified,omitempty"`
	VerifySkipped bool `json:"verify_skipped,omitempty"`
	Traces        int  `json:"traces,omitempty"`
}

// FencePlacement is one synthesized fence: inserted immediately before the
// instruction at Index in the block labeled Block.
type FencePlacement struct {
	Block string `json:"block"`
	Index int    `json:"index"`
	Line  int    `json:"line,omitempty"`
	// Symbol names the protected access's variable; omitted when the fence
	// anchors a speculation-window entry rather than a memory access.
	Symbol string `json:"symbol,omitempty"`
	// Rendered is the human-readable placement line, derived from the
	// fields above (specabsint.FencePlacement.String); it round-trips
	// because it is recomputed, never stored.
	Rendered string `json:"rendered,omitempty"`
}

// FromMitigation converts a synthesis outcome into its wire form.
func FromMitigation(r *specabsint.MitigationReport) *Mitigation {
	if r == nil {
		return nil
	}
	out := &Mitigation{
		V:               Version,
		BaselineLeaks:   r.BaselineLeaks,
		BaselineGadgets: r.BaselineGadgets,
		ResidualLeaks:   r.ResidualLeaks,
		ResidualGadgets: r.ResidualGadgets,
		Candidates:      r.Candidates,
		Analyses:        r.Analyses,
		BaselineWCET:    r.BaselineWCET,
		MitigatedWCET:   r.MitigatedWCET,
		WCETBounded:     r.WCETBounded,
		OverheadPercent: r.OverheadPercent,
		Verified:        r.Verified,
		VerifySkipped:   r.VerifySkipped,
		Traces:          r.Traces,
	}
	for _, f := range r.Fences {
		out.Fences = append(out.Fences, FencePlacement{
			Block:    f.Block,
			Index:    f.Index,
			Line:     f.Line,
			Symbol:   f.Symbol,
			Rendered: f.String(),
		})
	}
	return out
}

// ToMitigation converts a wire document back into the API form. The
// conversion is the exact inverse of FromMitigation —
// FromMitigation(m.ToMitigation()) == m for any document FromMitigation
// produced — except for MitigationReport.Program, which does not travel on
// the wire and comes back nil.
func (m *Mitigation) ToMitigation() (*specabsint.MitigationReport, error) {
	if m == nil {
		return nil, nil
	}
	if m.V != Version {
		return nil, fmt.Errorf("wire: unsupported mitigation version %d (want %d)", m.V, Version)
	}
	out := &specabsint.MitigationReport{
		BaselineLeaks:   m.BaselineLeaks,
		BaselineGadgets: m.BaselineGadgets,
		ResidualLeaks:   m.ResidualLeaks,
		ResidualGadgets: m.ResidualGadgets,
		Candidates:      m.Candidates,
		Analyses:        m.Analyses,
		BaselineWCET:    m.BaselineWCET,
		MitigatedWCET:   m.MitigatedWCET,
		WCETBounded:     m.WCETBounded,
		OverheadPercent: m.OverheadPercent,
		Verified:        m.Verified,
		VerifySkipped:   m.VerifySkipped,
		Traces:          m.Traces,
	}
	for _, f := range m.Fences {
		out.Fences = append(out.Fences, specabsint.FencePlacement{
			Block:  f.Block,
			Index:  f.Index,
			Line:   f.Line,
			Symbol: f.Symbol,
		})
	}
	return out, nil
}

// EncodeMitigation is the one-call canonical encoding of a synthesis result.
func EncodeMitigation(r *specabsint.MitigationReport) ([]byte, error) {
	return Marshal(FromMitigation(r))
}

// DecodeMitigation strictly parses a canonical mitigation document.
func DecodeMitigation(data []byte) (*Mitigation, error) {
	var m Mitigation
	if err := Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.V != Version {
		return nil, fmt.Errorf("wire: unsupported mitigation version %d (want %d)", m.V, Version)
	}
	return &m, nil
}
