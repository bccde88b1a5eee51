package rounding

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/lp"
)

// feasibilityLP builds the paper's relaxation at guess T in its original
// feasibility form: load rows (1) with RHS T, no makespan column, zero
// objective. It returns nil when some job has no variable at T.
func feasibilityLP(in *core.Instance, T float64) *lp.Problem {
	p := &lp.Problem{}
	x := make([][]int, in.M)
	y := make([][]int, in.M)
	for i := 0; i < in.M; i++ {
		x[i] = make([]int, in.N)
		y[i] = make([]int, in.K)
		for j := 0; j < in.N; j++ {
			x[i][j] = -1
			if core.IsFinite(in.P[i][j]) && in.P[i][j] <= T+core.Eps && core.IsFinite(in.S[i][in.Class[j]]) {
				x[i][j] = p.AddVar(0, 1)
			}
		}
		for k := 0; k < in.K; k++ {
			y[i][k] = -1
			if core.IsFinite(in.S[i][k]) {
				y[i][k] = p.AddVar(0, 1)
			}
		}
	}
	for i := 0; i < in.M; i++ {
		var terms []lp.Term
		for j := 0; j < in.N; j++ {
			if x[i][j] >= 0 && in.P[i][j] > 0 {
				terms = append(terms, lp.Term{Var: x[i][j], Coef: in.P[i][j]})
			}
		}
		for k := 0; k < in.K; k++ {
			if y[i][k] >= 0 && in.S[i][k] > 0 {
				terms = append(terms, lp.Term{Var: y[i][k], Coef: in.S[i][k]})
			}
		}
		if len(terms) > 0 {
			p.AddConstraint(lp.LE, T, terms...)
		}
	}
	for j := 0; j < in.N; j++ {
		var terms []lp.Term
		for i := 0; i < in.M; i++ {
			if x[i][j] >= 0 {
				terms = append(terms, lp.Term{Var: x[i][j], Coef: 1})
				p.AddConstraint(lp.LE, 0, lp.Term{Var: x[i][j], Coef: 1}, lp.Term{Var: y[i][in.Class[j]], Coef: -1})
			}
		}
		if len(terms) == 0 {
			return nil
		}
		p.AddConstraint(lp.EQ, 1, terms...)
	}
	return p
}

// feasibleAt solves the feasibility-form LP at T with the legacy tableau.
func feasibleAt(t *testing.T, in *core.Instance, T float64) bool {
	t.Helper()
	p := feasibilityLP(in, T)
	if p == nil {
		return false
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("feasibility LP at T=%v: %v", T, err)
	}
	return sol.Status == lp.Optimal
}

// TestThresholdMatchesFeasibilityLP is the differential check that the
// makespan-form relaxation's optimum τ0 at the greedy envelope is the
// threshold of the paper's feasibility LP: infeasible just below τ0, and
// feasible just above it whenever the optimum is a witness for τ0.
func TestThresholdMatchesFeasibilityLP(t *testing.T) {
	witnesses := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 6 + rng.Intn(25), M: 2 + rng.Intn(5), K: 1 + rng.Intn(4)}
		var in *core.Instance
		switch seed % 3 {
		case 0:
			in = gen.Unrelated(rng, p)
		case 1:
			in = gen.Restricted(rng, p)
		default:
			in = gen.UnrelatedClassUniform(rng, p)
		}
		g, err := baseline.Greedy(in)
		if err != nil {
			t.Fatalf("seed %d: greedy: %v", seed, err)
		}
		ub := g.Makespan(in)
		rel, err := NewRelaxation(in, RelaxationConfig{Envelope: ub})
		if err != nil {
			t.Fatalf("seed %d: NewRelaxation: %v", seed, err)
		}
		f, err := rel.ReSolve(ub)
		if err != nil || f == nil {
			t.Fatalf("seed %d: ReSolve at the greedy bound: f=%v err=%v", seed, f, err)
		}
		tau, witness := rel.Threshold()
		if !(tau > 0) || tau > ub*(1+tauTol) {
			t.Fatalf("seed %d: τ0 = %v outside (0, ub=%v]", seed, tau, ub)
		}
		if feasibleAt(t, in, tau*(1-1e-6)) {
			t.Errorf("seed %d: feasibility LP feasible at τ0·(1−1e-6) = %v", seed, tau*(1-1e-6))
		}
		if witness {
			witnesses++
			if !feasibleAt(t, in, tau*(1+1e-6)) {
				t.Errorf("seed %d: witness holds but feasibility LP infeasible at τ0·(1+1e-6) = %v", seed, tau*(1+1e-6))
			}
		}
	}
	if witnesses == 0 {
		t.Error("no instance produced a witness; the feasible side was never checked")
	}
}

// TestWitnessFailureBisects covers instances where the optimum at the
// envelope is not feasible at its own τ0, so the bracket stays open.
//
// One job of size 10 on two machines splits in half (τ0 = 5); the
// cheapest-placement bound already certifies 10, so no guess is needed.
// Two jobs, A = (10, 4) and B = (100, 6), split A 5/7 onto machine 0
// (τ0 = 50/7) while every schedule needs 10, and the cheapest-placement
// bound is only 6: the bisection must run and climb back to 10.
func TestWitnessFailureBisects(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p        [][]float64
		tau      float64
		minGuess int
	}{
		{"one-job", [][]float64{{10}, {10}}, 5, 0},
		{"two-jobs", [][]float64{{10, 100}, {4, 6}}, 50.0 / 7, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.p[0])
			in, err := core.NewUnrelated(tc.p, make([]int, n), [][]float64{{0}, {0}})
			if err != nil {
				t.Fatalf("NewUnrelated: %v", err)
			}
			opt := Options{Rng: rand.New(rand.NewSource(1))}
			res, det, err := ScheduleDetailed(context.Background(), in, opt)
			if err != nil {
				t.Fatalf("ScheduleDetailed: %v", err)
			}
			if math.Abs(det.LPThreshold-tc.tau) > 1e-6 {
				t.Errorf("LPThreshold = %v, want %v", det.LPThreshold, tc.tau)
			}
			if det.SearchClosed {
				t.Error("SearchClosed = true, want false: the split optimum is no witness")
			}
			if det.Guesses < tc.minGuess {
				t.Errorf("Guesses = %d, want ≥ %d", det.Guesses, tc.minGuess)
			}
			if prec := opt.normalize().Precision; res.LowerBound < 10/(1+prec) || res.LowerBound > 10 {
				t.Errorf("LowerBound = %v, want within precision %v of 10", res.LowerBound, prec)
			}
			if res.Makespan != 10 {
				t.Errorf("Makespan = %v, want 10", res.Makespan)
			}
		})
	}
}

// TestAnchorSearchClosed checks that on the M=10/N=100/K=8 anchor the seed
// solve's witness closes the bracket: no guesses, a lower bound at the LP
// threshold, and the one rounding is the answer's upper bound.
func TestAnchorSearchClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3; n++ {
		in := gen.Unrelated(rng, gen.Params{N: 100, M: 10, K: 8})
		res, det, err := ScheduleDetailed(context.Background(), in, Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatalf("instance %d: ScheduleDetailed: %v", n, err)
		}
		if !det.SearchClosed || det.Guesses != 0 {
			t.Errorf("instance %d: SearchClosed = %v with %d guesses, want a closed bracket", n, det.SearchClosed, det.Guesses)
		}
		if want := det.LPThreshold * (1 - tauTol); math.Abs(res.LowerBound-want) > 1e-9*want {
			t.Errorf("instance %d: LowerBound = %v, want LPThreshold·(1−tol) = %v", n, res.LowerBound, want)
		}
		if res.Makespan > det.PureMakespan {
			t.Errorf("instance %d: Makespan %v above the seed rounding's %v", n, res.Makespan, det.PureMakespan)
		}
	}
}

// TestLowerBoundBelowOptimum checks the certified lower bound against the
// branch-and-bound optimum on small unrelated and restricted-assignment
// instances, and that it is never weaker than the LP threshold.
func TestLowerBoundBelowOptimum(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 3 + rng.Intn(8), M: 2 + rng.Intn(3), K: 1 + rng.Intn(3)}
		in := gen.Unrelated(rng, p)
		if seed%2 == 1 {
			in = gen.Restricted(rng, p)
		}
		_, opt, st := exact.BranchAndBound(context.Background(), in, exact.Options{})
		if !st.Proven {
			t.Fatalf("seed %d: branch-and-bound did not prove optimality (%v)", seed, st.Reason)
		}
		res, det, err := ScheduleDetailed(context.Background(), in, Options{Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatalf("seed %d: ScheduleDetailed: %v", seed, err)
		}
		if res.LowerBound > opt+1e-9 {
			t.Errorf("seed %d: LowerBound %v exceeds the optimum %v", seed, res.LowerBound, opt)
		}
		if res.LowerBound < det.LPThreshold*(1-tauTol)-1e-9 {
			t.Errorf("seed %d: LowerBound %v below LPThreshold·(1−tol) = %v", seed, res.LowerBound, det.LPThreshold*(1-tauTol))
		}
		if res.Makespan < opt-1e-9 {
			t.Errorf("seed %d: Makespan %v below the optimum %v", seed, res.Makespan, opt)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestResultNoWorseThanSeedRounding is the regression test for returning
// the search's schedule when the seed rounding at the top of the bracket
// was better: the answer must never be worse than any rounded schedule.
// The full corpus (the first mismatches at the old code were instances 32
// and 43) runs without the race detector; under it or -short, only a
// prefix runs, since each solve is over 15x slower there.
func TestResultNoWorseThanSeedRounding(t *testing.T) {
	count := 100
	if testing.Short() || raceEnabled {
		count = 20
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < count; n++ {
		in := gen.Unrelated(rng, gen.Params{N: 100, M: 10, K: 8})
		res, det, err := ScheduleDetailed(context.Background(), in, Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatalf("instance %d: ScheduleDetailed: %v", n, err)
		}
		if res.Makespan > det.PureMakespan {
			t.Errorf("instance %d: Makespan %v > PureMakespan %v", n, res.Makespan, det.PureMakespan)
		}
	}
}
