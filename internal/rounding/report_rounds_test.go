package rounding

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dual"
	"repro/internal/gen"
	"repro/internal/lp"
)

// TestReportRounds logs the search-shape numbers (guesses, certified
// bound, LP pivots) of a pure LP-feasibility search over [0, greedy] on the
// benchmark instance — run manually with -v.
func TestReportRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := gen.Unrelated(rng, gen.Params{N: 100, M: 10, K: 8})
	g, err := baseline.Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	ub := g.Makespan(in)
	rel, err := NewRelaxation(in, RelaxationConfig{Envelope: ub, Backend: lp.Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.ReSolve(ub); err != nil {
		t.Fatal(err)
	}
	out := dual.Search(context.Background(), dual.Config{Instance: in, Upper: ub, Precision: 0.05}, func(T float64) (*core.Schedule, bool) {
		f, err := rel.ReSolve(T)
		if err != nil {
			t.Errorf("ReSolve: %v", err)
			return nil, true
		}
		return nil, f != nil
	})
	if out.Guesses == 0 {
		t.Error("search over [0, greedy] evaluated no guess")
	}
	t.Logf("guesses=%d lower=%.4g lp-iters=%d", out.Guesses, out.LowerBound, rel.Iterations())
}
