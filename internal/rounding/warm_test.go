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

// checkFractional verifies that a fractional solution satisfies the LP
// rows for guess T within tolerance.
func checkFractional(t *testing.T, in *core.Instance, f *Fractional, T float64) {
	t.Helper()
	const tol = 1e-6
	for i := 0; i < in.M; i++ {
		load := 0.0
		for j := 0; j < in.N; j++ {
			x := f.X[i][j]
			if x < -tol || x > 1+tol {
				t.Fatalf("x[%d][%d]=%v outside [0,1]", i, j, x)
			}
			if in.P[i][j] > T+core.Eps && x > tol {
				t.Fatalf("x[%d][%d]=%v despite p=%v > T=%v (constraint 5)", i, j, x, in.P[i][j], T)
			}
			load += x * zeroIfInf(in.P[i][j])
			if x > f.Y[i][in.Class[j]]+tol {
				t.Fatalf("x[%d][%d]=%v exceeds y=%v (constraint 4)", i, j, x, f.Y[i][in.Class[j]])
			}
		}
		for k := 0; k < in.K; k++ {
			y := f.Y[i][k]
			if y < -tol || y > 1+tol {
				t.Fatalf("y[%d][%d]=%v outside [0,1]", i, k, y)
			}
			load += y * zeroIfInf(in.S[i][k])
		}
		if load > T+1e-5 {
			t.Fatalf("machine %d load %v exceeds T=%v (constraint 1)", i, load, T)
		}
	}
	for j := 0; j < in.N; j++ {
		sum := 0.0
		for i := 0; i < in.M; i++ {
			sum += f.X[i][j]
		}
		if math.Abs(sum-1) > tol {
			t.Fatalf("job %d assignment sums to %v (constraint 2)", j, sum)
		}
	}
}

func zeroIfInf(v float64) float64 {
	if !core.IsFinite(v) {
		return 0
	}
	return v
}

// tableauFeasible is the cold reference verdict at guess T: the model
// built at envelope T, solved by the tableau (Problem.Solve, a solver that
// shares no code with the backends), is feasible when τ* ≤ T·(1+tauTol).
func tableauFeasible(t *testing.T, in *core.Instance, T float64) bool {
	t.Helper()
	return !buildILPModel(in, T).infeasible && legacyTau(t, in, T) <= T*(1+tauTol)
}

// runGuessSequence checks that a warm Relaxation and the cold tableau
// agree on every guess of the sequence: identical feasible/infeasible
// verdicts, and feasible warm results satisfy the LP rows.
func runGuessSequence(t *testing.T, in *core.Instance, kind lp.BackendKind, ub float64, guesses []float64) {
	t.Helper()
	rel, err := NewRelaxation(in, RelaxationConfig{Envelope: ub, Backend: kind})
	if err != nil {
		t.Fatalf("NewRelaxation(%s): %v", kind, err)
	}
	for gi, T := range guesses {
		warm, err := rel.ReSolve(T)
		if err != nil {
			t.Fatalf("%s ReSolve(T=%v) guess %d: %v", kind, T, gi, err)
		}
		if cold := tableauFeasible(t, in, T); (warm != nil) != cold {
			t.Fatalf("%s guess %d (T=%v): warm verdict %v, cold verdict %v",
				kind, gi, T, warm != nil, cold)
		}
		if warm != nil {
			if warm.T != T {
				t.Fatalf("warm fractional labeled T=%v, want %v", warm.T, T)
			}
			checkFractional(t, in, warm, T)
		}
	}
	if rel.Iterations() <= 0 {
		t.Errorf("%s: no LP iterations recorded over %d guesses", kind, len(guesses))
	}
}

// TestReSolveMatchesColdMonotone drives a monotone descending guess
// sequence T₀ > T₁ > … (the shape the acceptance criterion names) through
// ReSolve on both backends and cross-checks every verdict against cold
// tableau solves, down past the infeasibility threshold.
func TestReSolveMatchesColdMonotone(t *testing.T) {
	for _, kind := range []lp.BackendKind{lp.Dense, lp.Sparse} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := gen.Params{N: 6 + rng.Intn(14), M: 2 + rng.Intn(4), K: 1 + rng.Intn(4)}
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
					t.Fatalf("greedy: %v", err)
				}
				ub := g.Makespan(in)
				if ub <= 0 {
					continue
				}
				var guesses []float64
				for T := ub; T > ub/64; T *= 0.82 {
					guesses = append(guesses, T)
				}
				runGuessSequence(t, in, kind, ub, guesses)
			}
		})
	}
}

// TestReSolveMatchesColdBinarySearchPattern replays the non-monotone guess
// order an actual dual-approximation binary search produces (the bracket
// midpoint sequence), where the load RHS both shrinks and grows and
// constraint-5 clamps are applied and lifted again.
func TestReSolveMatchesColdBinarySearchPattern(t *testing.T) {
	for _, kind := range []lp.BackendKind{lp.Dense, lp.Sparse} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(100 + seed))
				in := gen.Unrelated(rng, gen.Params{N: 10 + rng.Intn(10), M: 3, K: 3})
				g, err := baseline.Greedy(in)
				if err != nil {
					t.Fatalf("greedy: %v", err)
				}
				ub := g.Makespan(in)
				if ub <= 0 {
					continue
				}
				// Geometric bisection in [ub/100, ub], feasibility decided by
				// the cold reference so both solvers walk the same midpoints.
				var guesses []float64
				lo, hi := ub/100, ub
				for hi/lo > 1.02 {
					mid := math.Sqrt(lo * hi)
					guesses = append(guesses, mid)
					if tableauFeasible(t, in, mid) {
						hi = mid
					} else {
						lo = mid
					}
				}
				runGuessSequence(t, in, kind, ub, guesses)
			}
		})
	}
}

// TestScheduleDetailedAcrossBackends runs the full algorithm end to end:
// cold on the production backend (backend=), and on a relaxation built on
// each backend and handed over as retained warm state, which is how a run
// reaches the dense reference. Results must be valid, bounded, and report
// LP effort; an unknown backend kind is rejected when the relaxation is
// built.
func TestScheduleDetailedAcrossBackends(t *testing.T) {
	for _, backend := range []lp.BackendKind{"", lp.Dense, lp.Sparse} {
		backend := backend
		t.Run("backend="+string(backend), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			in := gen.Unrelated(rng, gen.Params{N: 14, M: 3, K: 3})
			opt := Options{Rng: rand.New(rand.NewSource(1))}
			var rel *Relaxation
			if backend != "" {
				g, err := baseline.Greedy(in)
				if err != nil {
					t.Fatal(err)
				}
				if rel, err = NewRelaxation(in, RelaxationConfig{Backend: backend}); err != nil {
					t.Fatalf("NewRelaxation(%s): %v", backend, err)
				}
				opt.Warm = &core.WarmStart{Upper: g.Makespan(in), Fallback: g, State: rel}
			}
			res, det, err := ScheduleDetailed(context.Background(), in, opt)
			if err != nil {
				t.Fatalf("ScheduleDetailed: %v", err)
			}
			if res.Schedule == nil || !res.Schedule.Complete() {
				t.Fatal("incomplete schedule")
			}
			if err := res.Schedule.Validate(in); err != nil {
				t.Errorf("Validate: %v", err)
			}
			if res.Makespan < res.LowerBound-core.Eps {
				t.Errorf("makespan %v below lower bound %v", res.Makespan, res.LowerBound)
			}
			if det.LPIterations <= 0 || res.LPIters <= 0 {
				t.Errorf("LP iterations not surfaced: detail %d, result %d", det.LPIterations, res.LPIters)
			}
			if rel != nil && det.Relaxation != rel {
				t.Errorf("the run did not solve on the handed-over %s relaxation", backend)
			}
		})
	}
	t.Run("unknown backend errors", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		in := gen.Unrelated(rng, gen.Params{N: 6, M: 2, K: 2})
		if _, err := NewRelaxation(in, RelaxationConfig{Backend: "nope"}); err == nil {
			t.Error("unknown LP backend accepted")
		}
	})
}

// TestRelaxationEnvelopeDefaults covers the zero-config constructor (greedy
// envelope, sparse backend).
func TestRelaxationEnvelopeDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := gen.Unrelated(rng, gen.Params{N: 8, M: 2, K: 2})
	rel, err := NewRelaxation(in, RelaxationConfig{})
	if err != nil {
		t.Fatalf("NewRelaxation: %v", err)
	}
	g, err := baseline.Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rel.ReSolve(g.Makespan(in))
	if err != nil || f == nil {
		t.Fatalf("ReSolve at greedy bound: f=%v err=%v (must be feasible)", f, err)
	}
}

// TestAnchorBisectionRefactors drives the M=10/N=100/K=8 anchor (the
// relaxation has 110 rows and 1000 variable upper bounds) through a
// bisection of makespan guesses on the sparse and dense backends side by
// side. The verdicts must agree at every step, and the sparse backend must
// refactorize at least once along the way, so the slack-first
// factorization is exercised at production shape; ScheduleDetailed must
// surface the count in Detail.LPRefactors.
func TestAnchorBisectionRefactors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := gen.Unrelated(rng, gen.Params{N: 100, M: 10, K: 8})
	g, err := baseline.Greedy(in)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	ub := g.Makespan(in)
	rels := make(map[lp.BackendKind]*Relaxation)
	for _, kind := range []lp.BackendKind{lp.Sparse, lp.Dense} {
		if rels[kind], err = NewRelaxation(in, RelaxationConfig{Envelope: ub, Backend: kind}); err != nil {
			t.Fatalf("NewRelaxation(%s): %v", kind, err)
		}
	}
	lo, hi := ub/4, ub
	for step := 0; hi/lo > 1.02; step++ {
		T := math.Sqrt(lo * hi)
		fs, err := rels[lp.Sparse].ReSolve(T)
		if err != nil {
			t.Fatalf("step %d: sparse ReSolve(%v): %v", step, T, err)
		}
		fd, err := rels[lp.Dense].ReSolve(T)
		if err != nil {
			t.Fatalf("step %d: dense ReSolve(%v): %v", step, T, err)
		}
		if (fs == nil) != (fd == nil) {
			t.Fatalf("step %d (T=%v): sparse feasible=%v, dense feasible=%v", step, T, fs != nil, fd != nil)
		}
		if fs != nil {
			hi = T
		} else {
			lo = T
		}
	}
	if n := rels[lp.Sparse].Refactors(); n < 1 {
		t.Errorf("sparse backend never refactorized over the bisection (%d pivots)", rels[lp.Sparse].Iterations())
	}

	_, det, err := ScheduleDetailed(context.Background(), in, Options{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatalf("ScheduleDetailed: %v", err)
	}
	if det.LPRefactors < 1 {
		t.Errorf("Detail.LPRefactors = %d over %d LP iterations, want ≥1", det.LPRefactors, det.LPIterations)
	}
	t.Logf("bisection refactors: sparse %d; ScheduleDetailed: %d refactors, %d iterations, %d guesses",
		rels[lp.Sparse].Refactors(), det.LPRefactors, det.LPIterations, det.Guesses)
}
