package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomInfeasibleSpec builds LPs that are infeasible by construction:
// either a pair of contradicting equalities or a GE row whose activity can
// never reach the rhs under the box bounds.
func randomInfeasibleSpec(rng *rand.Rand) *problemSpec {
	d := 2 + rng.Intn(4)
	ps := &problemSpec{}
	for j := 0; j < d; j++ {
		ps.obj = append(ps.obj, rng.NormFloat64())
		ps.ub = append(ps.ub, 1+rng.Float64()*2)
	}
	if rng.Float64() < 0.5 {
		var terms []Term
		for j := 0; j < d; j++ {
			terms = append(terms, Term{j, 1 + rng.Float64()})
		}
		ps.rows = append(ps.rows, specRow{EQ, 2, terms})
		ps.rows = append(ps.rows, specRow{EQ, 5, terms})
	} else {
		var terms []Term
		cap := 0.0
		for j := 0; j < d; j++ {
			c := 0.5 + rng.Float64()
			terms = append(terms, Term{j, c})
			cap += c * ps.ub[j]
		}
		ps.rows = append(ps.rows, specRow{GE, cap * (1.5 + rng.Float64()), terms})
	}
	// A few innocent LE rows so presolve has material besides the
	// contradiction.
	for r := 0; r < rng.Intn(3); r++ {
		var terms []Term
		for j := 0; j < d; j++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{j, rng.Float64() * 2})
			}
		}
		if len(terms) > 0 {
			ps.rows = append(ps.rows, specRow{LE, 1 + rng.Float64()*6, terms})
		}
	}
	return ps
}

// TestPresolveDifferentialCorpus is the acceptance differential for the
// reduction pipeline: on random box/eq/mixed/infeasible LPs, every backend
// solved through presolve must reproduce the verdict and objective of the
// same backend solved without it, the postsolved primal point must be
// feasible in the original problem, and the postsolved basis must be
// transplantable into a fresh unpresolved backend that then re-certifies
// the same verdict.
func TestPresolveDifferentialCorpus(t *testing.T) {
	gens := map[string]func(*rand.Rand) *problemSpec{
		"box":        randomBoxSpec,
		"eq":         randomEqSpec,
		"mixed":      randomMixedSpec,
		"infeasible": randomInfeasibleSpec,
	}
	for name, gen := range gens {
		gen := gen
		t.Run(name, func(t *testing.T) {
			for _, kind := range []BackendKind{Dense, Sparse} {
				kind := kind
				t.Run(string(kind), func(t *testing.T) {
					f := func(seed int64) bool {
						rng := rand.New(rand.NewSource(seed))
						ps := gen(rng)
						off, err := NewBackend(kind, ps.build(), nil, WithPresolve(false))
						if err != nil {
							t.Fatalf("NewBackend(off): %v", err)
						}
						ref, err := off.Solve()
						if err != nil {
							t.Fatalf("off Solve: %v", err)
						}
						on, err := NewBackend(kind, ps.build(), nil)
						if err != nil {
							t.Fatalf("NewBackend(on): %v", err)
						}
						sol, err := on.Solve()
						if err != nil {
							t.Fatalf("presolved Solve: %v", err)
						}
						if sol.Status != ref.Status {
							t.Fatalf("status %v with presolve, %v without", sol.Status, ref.Status)
						}
						if sol.Presolve == nil {
							t.Fatal("Solution.Presolve not populated on the presolve path")
						}
						if sol.Status != Optimal {
							return true
						}
						if math.Abs(sol.Objective-ref.Objective) > 1e-6 {
							t.Fatalf("objective %v with presolve, %v without", sol.Objective, ref.Objective)
						}
						agree(t, ps, "presolved "+string(kind), ref, cloneSolution(sol))
						// Basis postsolve: the mapped basis must be accepted
						// by a fresh concrete backend and re-certify the same
						// optimum (cleanup pivots allowed).
						if b := on.Basis(); b != nil {
							fresh, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
							if err != nil {
								t.Fatalf("NewBackend(fresh): %v", err)
							}
							if err := fresh.Warm(b); err == nil {
								ws, err := fresh.Solve()
								if err != nil {
									t.Fatalf("warm Solve from postsolved basis: %v", err)
								}
								if ws.Status != Optimal || math.Abs(ws.Objective-ref.Objective) > 1e-6 {
									t.Fatalf("postsolved-basis warm solve: status %v obj %v, want optimal %v",
										ws.Status, ws.Objective, ref.Objective)
								}
							}
						}
						return true
					}
					if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// schedSpec builds an ILP-UM-shaped feasibility LP: load rows, assignment
// rows and x≤y link rows.
func schedSpec(rng *rand.Rand, m, n, K int, T float64) *problemSpec {
	ps := &problemSpec{}
	class := make([]int, n)
	for j := range class {
		class[j] = rng.Intn(K)
	}
	x := make([][]int, m)
	y := make([][]int, m)
	id := 0
	for i := 0; i < m; i++ {
		x[i] = make([]int, n)
		y[i] = make([]int, K)
		for j := 0; j < n; j++ {
			ps.obj = append(ps.obj, 0)
			ps.ub = append(ps.ub, 1)
			x[i][j] = id
			id++
		}
		for k := 0; k < K; k++ {
			ps.obj = append(ps.obj, 0)
			ps.ub = append(ps.ub, 1)
			y[i][k] = id
			id++
		}
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			terms = append(terms, Term{x[i][j], 1 + rng.Float64()})
		}
		for k := 0; k < K; k++ {
			terms = append(terms, Term{y[i][k], 1 + rng.Float64()})
		}
		ps.rows = append(ps.rows, specRow{LE, T, terms})
	}
	for j := 0; j < n; j++ {
		var terms []Term
		for i := 0; i < m; i++ {
			terms = append(terms, Term{x[i][j], 1})
		}
		ps.rows = append(ps.rows, specRow{EQ, 1, terms})
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ps.rows = append(ps.rows, specRow{LE, 0, []Term{{x[i][j], 1}, {y[i][class[j]], -1}}})
		}
	}
	return ps
}

// TestPresolveWarmTrajectoryEquivalence drives the rounding search's exact
// access pattern — clamp x_ij with p_ij > T to 0, restore on upward moves,
// shrink the load RHS — for 9 steps on a scheduling-shaped LP, with
// presolve on and off side by side. Verdicts and objectives must match at
// every step, and the presolved backend must stay on its reduced problem
// (no bypass): the trajectory only writes values the recorded reductions
// already account for.
func TestPresolveWarmTrajectoryEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ub := 16.0
		ps := schedSpec(rng, 3, 18, 3, ub)
		for _, kind := range []BackendKind{Dense, Sparse} {
			on, err := NewBackend(kind, ps.build(), nil)
			if err != nil {
				t.Fatal(err)
			}
			off, err := NewBackend(kind, ps.build(), nil, WithPresolve(false))
			if err != nil {
				t.Fatal(err)
			}
			// Per-variable "processing times" to clamp against, mirroring
			// constraint (5) of the relaxation: x-var j is banned when
			// p[j] > T.
			p := make([]float64, len(ps.ub))
			for j := range p {
				p[j] = rng.Float64() * ub
			}
			banned := make([]bool, len(ps.ub))
			T := ub
			for step := 0; step < 9; step++ {
				for j := range p {
					now := p[j] > T
					if now == banned[j] {
						continue
					}
					u := ps.ub[j]
					if now {
						u = 0
					}
					on.SetVarUpper(j, u)
					off.SetVarUpper(j, u)
					banned[j] = now
				}
				for r := 0; r < 3; r++ { // load rows carry the guess
					on.SetRHS(r, T)
					off.SetRHS(r, T)
				}
				a, err := on.Solve()
				if err != nil {
					t.Fatalf("%s seed %d step %d: presolved: %v", kind, seed, step, err)
				}
				b, err := off.Solve()
				if err != nil {
					t.Fatalf("%s seed %d step %d: plain: %v", kind, seed, step, err)
				}
				if a.Status != b.Status {
					t.Fatalf("%s seed %d step %d (T=%g): presolved %v, plain %v",
						kind, seed, step, T, a.Status, b.Status)
				}
				if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-6 {
					t.Fatalf("%s seed %d step %d: objective %v vs %v",
						kind, seed, step, a.Objective, b.Objective)
				}
				if a.Presolve != nil && a.Presolve.Bypassed {
					t.Fatalf("%s seed %d step %d: trajectory bypassed the presolve wrapper", kind, seed, step)
				}
				T *= 0.85
			}
		}
	}
}

// TestPresolveCloneIndependence: clones of a presolved backend must not
// share mutable clamp state — divergent SetVarUpper trajectories on parent
// and clone must both match their unpresolved twins.
func TestPresolveCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := schedSpec(rng, 3, 12, 2, 12)
	on, err := NewBackend(Sparse, ps.build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.Solve(); err != nil {
		t.Fatal(err)
	}
	cl := on.Clone()
	// Parent clamps column 0, clone clamps column 1.
	on.SetVarUpper(0, 0)
	cl.SetVarUpper(1, 0)
	for i, be := range []Backend{on, cl} {
		psi := ps.clone()
		psi.ub[i] = 0
		ref, err := NewBackend(Sparse, psi.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Solve()
		if err != nil {
			t.Fatal(err)
		}
		got, err := be.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("backend %d: status %v, want %v", i, got.Status, want.Status)
		}
		if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("backend %d: objective %v, want %v", i, got.Objective, want.Objective)
		}
	}
}
