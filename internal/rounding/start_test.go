package rounding

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lp"
)

// legacyTau solves the relaxation at T with the legacy dense tableau (the
// solve SolveLP runs) and returns its optimal makespan τ.
func legacyTau(t *testing.T, in *core.Instance, T float64) float64 {
	t.Helper()
	mdl := buildILPModel(in, T)
	sol, err := mdl.prob.Solve()
	if err != nil {
		t.Fatalf("legacy solve at T=%v: %v", T, err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("legacy solve at T=%v: status %v", T, sol.Status)
	}
	return sol.X[mdl.tau]
}

// startCorpus is the instance set of TestThresholdMatchesFeasibilityLP
// followed by that of TestLowerBoundBelowOptimum.
func startCorpus() []*core.Instance {
	var out []*core.Instance
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 6 + rng.Intn(25), M: 2 + rng.Intn(5), K: 1 + rng.Intn(4)}
		switch seed % 3 {
		case 0:
			out = append(out, gen.Unrelated(rng, p))
		case 1:
			out = append(out, gen.Restricted(rng, p))
		default:
			out = append(out, gen.UnrelatedClassUniform(rng, p))
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 3 + rng.Intn(8), M: 2 + rng.Intn(3), K: 1 + rng.Intn(3)}
		in := gen.Unrelated(rng, p)
		if seed%2 == 1 {
			in = gen.Restricted(rng, p)
		}
		out = append(out, in)
	}
	return out
}

// TestStartMatchesLegacyThreshold checks the seed solve that starts at the
// greedy vertex against the legacy tableau: the same τ0 within 1e-7
// relative, on both simplex backends. The start must be taken exactly when
// presolve removed nothing, the one case the LP layer maps it.
func TestStartMatchesLegacyThreshold(t *testing.T) {
	started := 0
	for n, in := range startCorpus() {
		g, err := baseline.Greedy(in)
		if err != nil {
			t.Fatalf("instance %d: greedy: %v", n, err)
		}
		ub := g.Makespan(in)
		want := legacyTau(t, in, ub)
		for _, kind := range []lp.BackendKind{lp.Sparse, lp.Dense} {
			rel, err := NewRelaxation(in, RelaxationConfig{Envelope: ub, Backend: kind})
			if err != nil {
				t.Fatalf("instance %d: NewRelaxation: %v", n, err)
			}
			if _, err := rel.ReSolve(ub); err != nil {
				t.Fatalf("instance %d: ReSolve: %v", n, err)
			}
			tau, _ := rel.Threshold()
			if math.Abs(tau-want) > 1e-7*math.Max(1, want) {
				t.Errorf("instance %d (%s): τ0 = %v, legacy %v", n, kind, tau, want)
			}
			pi := rel.Presolve()
			untouched := pi.RowsAfter == pi.RowsBefore && pi.ColsAfter == pi.ColsBefore
			if rel.FromStart() != untouched {
				t.Errorf("instance %d (%s): FromStart = %v with presolve rows %d→%d, cols %d→%d",
					n, kind, rel.FromStart(), pi.RowsBefore, pi.RowsAfter, pi.ColsBefore, pi.ColsAfter)
			}
			if rel.FromStart() {
				started++
			}
		}
	}
	if started == 0 {
		t.Error("no seed solve began at the greedy vertex")
	}
}

// TestUnusableStartSolvesCold covers the two ways a start is dropped, each
// of which must leave the seed solve cold with the legacy verdict: a
// presolve reduction (a job eligible on one machine only makes its
// assignment row a singleton), and a singular basis.
func TestUnusableStartSolvesCold(t *testing.T) {
	inf := math.Inf(1)
	in, err := core.NewUnrelated(
		[][]float64{{4, 6, 3, 5}, {inf, 2, 7, 4}, {inf, 5, 2, 6}},
		[]int{0, 1, 0, 1},
		[][]float64{{1, 2}, {2, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := baseline.Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	ub := g.Makespan(in)
	want := legacyTau(t, in, ub)

	t.Run("presolve-reduction", func(t *testing.T) {
		for _, noPresolve := range []bool{false, true} {
			rel, err := NewRelaxation(in, RelaxationConfig{Envelope: ub, NoPresolve: noPresolve})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rel.ReSolve(ub); err != nil {
				t.Fatal(err)
			}
			tau, _ := rel.Threshold()
			if math.Abs(tau-want) > 1e-7*math.Max(1, want) {
				t.Errorf("noPresolve=%v: τ0 = %v, legacy %v", noPresolve, tau, want)
			}
			// Without presolve nothing stands between the start and the
			// simplex; with it, the removed row makes the start unusable.
			if rel.FromStart() != noPresolve {
				t.Errorf("noPresolve=%v: FromStart = %v", noPresolve, rel.FromStart())
			}
			if pi := rel.Presolve(); !noPresolve && pi.RowsAfter == pi.RowsBefore {
				t.Error("presolve removed no row; the case tests nothing")
			}
		}
	})

	t.Run("singular", func(t *testing.T) {
		// Every job runs everywhere, so presolve keeps every row and the
		// start reaches the simplex. All slacks are basic except the first
		// assignment row's, replaced by a setup column: no basic column
		// touches that row.
		in := gen.Unrelated(rand.New(rand.NewSource(3)), gen.Params{N: 12, M: 3, K: 2})
		g, err := baseline.Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		ub := g.Makespan(in)
		want := legacyTau(t, in, ub)
		mdl := buildILPModel(in, ub)
		nv, m := mdl.prob.NumVars(), mdl.prob.NumRows()
		b := &lp.Basis{Cols: make([]int, m), Status: make([]lp.VarStatus, nv+m)}
		for r := 0; r < m; r++ {
			b.Cols[r] = nv + r
			b.Status[nv+r] = lp.BasicVar
		}
		r0, y := mdl.asgRow[0], mdl.yIdx[0][0]
		b.Cols[r0] = y
		b.Status[nv+r0] = lp.NonbasicLower
		b.Status[y] = lp.BasicVar
		for _, kind := range []lp.BackendKind{lp.Sparse, lp.Dense} {
			for _, pre := range []bool{true, false} {
				be, err := lp.NewBackend(kind, mdl.prob, nil, lp.WithPresolve(pre), lp.WithStart(b))
				if err != nil {
					t.Fatal(err)
				}
				sol, err := be.Solve()
				if err != nil {
					t.Fatalf("%s presolve=%v: %v", kind, pre, err)
				}
				if sol.Status != lp.Optimal || math.Abs(sol.X[mdl.tau]-want) > 1e-7*math.Max(1, want) {
					t.Errorf("%s presolve=%v: %v with τ = %v, legacy optimal %v", kind, pre, sol.Status, sol.X[mdl.tau], want)
				}
				if sol.FromStart {
					t.Errorf("%s presolve=%v: FromStart on a singular start", kind, pre)
				}
				if pi := sol.Presolve; pre && pi.RowsAfter != pi.RowsBefore {
					t.Errorf("presolve removed rows %d→%d; the start never reached the simplex", pi.RowsBefore, pi.RowsAfter)
				}
			}
		}
	})
}

// TestAnchorSeedSolveStarted checks Detail.LPStarted on the cold path of
// the M=10/N=100/K=8 anchor, where presolve removes nothing: the seed solve
// begins at the greedy vertex. A Resolve-style warm run, which re-solves a
// retained relaxation from its basis, reports false.
func TestAnchorSeedSolveStarted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := gen.Unrelated(rng, gen.Params{N: 100, M: 10, K: 8})
	res, det, err := ScheduleDetailed(context.Background(), in, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if !det.LPStarted {
		t.Error("cold anchor solve: LPStarted = false")
	}
	warm := &core.WarmStart{Fallback: res.Schedule, Upper: res.Makespan, State: det.Relaxation}
	_, det2, err := ScheduleDetailed(context.Background(), in, Options{Rng: rand.New(rand.NewSource(1)), Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if det2.LPStarted {
		t.Error("warm re-solve: LPStarted = true")
	}
	if math.Abs(det2.LPThreshold-det.LPThreshold) > 1e-9*det.LPThreshold {
		t.Errorf("warm re-solve τ0 = %v, cold %v", det2.LPThreshold, det.LPThreshold)
	}
}
