package sched_test

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/rounding"
)

// TestPresolveAnchorReductions pins equilibration scaling on the
// LP-backend anchor shape (M=20, N=200, K=12 — 4220 rows, the
// BenchmarkColdBuildLarge instance). At the envelope T=ub no x_ij is
// clamped, so no row or column could be eliminated; the measured cold
// speedup of the scaled build comes from Ruiz equilibration cutting solver
// iterations, and this test asserts the scaling engaged.
func TestPresolveAnchorReductions(t *testing.T) {
	if testing.Short() {
		t.Skip("anchor-sized LP build")
	}
	rng := rand.New(rand.NewSource(1))
	in := gen.Unrelated(rng, gen.Params{N: 200, M: 20, K: 12})
	g, err := baseline.Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	ub := g.Makespan(in)

	rel, err := rounding.NewRelaxation(in, rounding.RelaxationConfig{Envelope: ub, Backend: lp.Sparse})
	if err != nil {
		t.Fatal(err)
	}
	frac, err := rel.ReSolve(ub)
	if err != nil {
		t.Fatal(err)
	}
	if frac == nil {
		t.Fatal("envelope guess infeasible")
	}
	pi := rel.Presolve()
	if pi == nil {
		t.Fatal("envelope solve ran unscaled")
	}
	if pi.ScalePasses == 0 {
		t.Fatal("Ruiz scaling did not engage on the anchor")
	}
	t.Logf("envelope: %d scale passes", pi.ScalePasses)
}
