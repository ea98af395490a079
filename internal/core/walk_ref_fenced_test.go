package core_test

import (
	"context"
	"testing"

	"specabsint/internal/bench"
	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/mitigate"
)

// TestVerdictsMatchReWalkFenced runs the re-walk reference sweep (see
// walk_ref_test.go) on the fenced programs internal/mitigate synthesizes for
// Fig. 2 and the crypto clients, so lanes that die at fences are covered.
func TestVerdictsMatchReWalkFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("repairs the whole crypto corpus before sweeping")
	}
	sources := map[string]string{"fig2": bench.Fig2Program(-1)}
	for _, b := range bench.CryptoBenchmarks() {
		sources[b.Name] = bench.WithClient(b, 4096)
	}
	opts := mitigate.DefaultOptions()
	opts.Verify = false
	fenced := map[string]*ir.Program{}
	for name, src := range sources {
		prog := core.CompileWithPasses(t, name, src)
		rep, err := mitigate.Synthesize(context.Background(), prog, opts)
		if err != nil {
			t.Fatalf("mitigate %s: %v", name, err)
		}
		if len(rep.Fences) > 0 {
			fenced[name] = rep.Program
		}
	}
	if len(fenced) == 0 {
		t.Fatal("no program needed fences")
	}
	for _, cfg := range core.ReWalkConfigs() {
		for name, prog := range fenced {
			core.CheckAgainstReWalk(t, name+" fenced "+core.ConfigLabel(cfg), prog, cfg)
		}
	}
}
