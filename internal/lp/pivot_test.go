package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tauShapeSpec builds the min-makespan scheduling LP the rounding solver
// solves: a makespan column τ (cost 1, no upper bound), load rows
// Σ p·x + Σ s·y − τ ≤ 0, assignment rows Σ_i x_ij = 1 and setup rows
// x_ij ≤ y_i,k(j). Each job is eligible on its home machine and on every
// other with probability elig. It also returns the x column and the
// processing time of every assignable pair, for clamping.
func tauShapeSpec(rng *rand.Rand, m, n, K int, elig float64) (ps *problemSpec, xs []int, ps2 []float64) {
	class := make([]int, n)
	for j := range class {
		class[j] = rng.Intn(K)
	}
	ps = &problemSpec{obj: []float64{1}, ub: []float64{math.Inf(1)}}
	x := make([][]int, m)
	y := make([][]int, m)
	p := make([][]float64, m)
	for i := 0; i < m; i++ {
		x[i] = make([]int, n)
		y[i] = make([]int, K)
		p[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			x[i][j] = -1
			if i == j%m || rng.Float64() < elig {
				ps.obj = append(ps.obj, 0)
				ps.ub = append(ps.ub, 1)
				x[i][j] = len(ps.obj) - 1
				p[i][j] = float64(1 + rng.Intn(100))
				xs = append(xs, x[i][j])
				ps2 = append(ps2, p[i][j])
			}
		}
		for k := 0; k < K; k++ {
			ps.obj = append(ps.obj, 0)
			ps.ub = append(ps.ub, 1)
			y[i][k] = len(ps.obj) - 1
		}
	}
	for i := 0; i < m; i++ {
		terms := []Term{{0, -1}}
		for j := 0; j < n; j++ {
			if x[i][j] >= 0 {
				terms = append(terms, Term{x[i][j], p[i][j]})
			}
		}
		for k := 0; k < K; k++ {
			terms = append(terms, Term{y[i][k], float64(1 + rng.Intn(50))})
		}
		ps.rows = append(ps.rows, specRow{LE, 0, terms})
	}
	for j := 0; j < n; j++ {
		var terms []Term
		for i := 0; i < m; i++ {
			if x[i][j] >= 0 {
				terms = append(terms, Term{x[i][j], 1})
			}
		}
		ps.rows = append(ps.rows, specRow{EQ, 1, terms})
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if x[i][j] >= 0 {
				ps.rows = append(ps.rows, specRow{LE, 0, []Term{{x[i][j], 1}, {y[i][class[j]], -1}}})
			}
		}
	}
	return ps, xs, ps2
}

// sameVerdict checks status equality with the legacy tableau and, when
// optimal, objective agreement within 1e-9 relative (scale floored at 1).
func sameVerdict(t *testing.T, name string, ref, got *Solution) {
	t.Helper()
	if ref.Status != got.Status {
		t.Fatalf("%s: status %v, legacy %v", name, got.Status, ref.Status)
	}
	if ref.Status == Optimal {
		if diff := math.Abs(ref.Objective - got.Objective); diff > 1e-9*math.Max(1, math.Abs(ref.Objective)) {
			t.Fatalf("%s: objective %v, legacy %v (diff %g)", name, got.Objective, ref.Objective, diff)
		}
	}
}

// verdictTrajectory solves ps cold on a dense and a sparse backend, then
// walks both through three rounds of SetRHS/SetVarUpper mutations with a
// warm re-solve each, checking every solve against a cold legacy tableau
// solve of the same (mutated) problem.
func verdictTrajectory(t *testing.T, rng *rand.Rand, ps *problemSpec) {
	t.Helper()
	bes := map[BackendKind]Backend{}
	for _, kind := range []BackendKind{Dense, Sparse} {
		be, err := NewBackend(kind, ps.build(), nil)
		if err != nil {
			t.Fatalf("NewBackend(%s): %v", kind, err)
		}
		bes[kind] = be
	}
	mut := ps.clone()
	for round := 0; round < 4; round++ {
		if round > 0 {
			for r := range mut.rows {
				if rng.Float64() < 0.3 {
					mut.rows[r].rhs = mut.rows[r].rhs*(0.5+rng.Float64()) + rng.Float64() - 0.5
					for _, be := range bes {
						be.SetRHS(r, mut.rows[r].rhs)
					}
				}
			}
			for j := range mut.ub {
				u := mut.ub[j]
				switch rng.Intn(5) {
				case 0:
					u = 0
				case 1:
					u = 0.5 + rng.Float64()*3
				default:
					continue
				}
				mut.ub[j] = u
				for _, be := range bes {
					be.SetVarUpper(j, u)
				}
			}
		}
		ref, err := mut.build().Solve()
		if err != nil {
			t.Fatalf("round %d: legacy Solve: %v", round, err)
		}
		for kind, be := range bes {
			sol, err := be.Solve()
			if err != nil {
				t.Fatalf("round %d: %s Solve: %v", round, kind, err)
			}
			sameVerdict(t, string(kind), ref, sol)
		}
	}
}

// TestPivotLoopsMatchLegacy is the verdict check for the pivot loops that
// maintain reduced costs: on the backend differential corpus and on
// min-makespan scheduling LPs, dense and sparse return the legacy
// tableau's status and objective, cold and along a warm mutation sequence.
func TestPivotLoopsMatchLegacy(t *testing.T) {
	gens := map[string]func(*rand.Rand) *problemSpec{
		"box":   randomBoxSpec,
		"eq":    randomEqSpec,
		"mixed": randomMixedSpec,
	}
	for name, gen := range gens {
		gen := gen
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				verdictTrajectory(t, rng, gen(rng))
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
	t.Run("tau-shape", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 6; trial++ {
			ps, _, _ := tauShapeSpec(rng, 3+rng.Intn(3), 10+rng.Intn(20), 2+rng.Intn(3), 0.6)
			verdictTrajectory(t, rng, ps)
		}
		ps, _, _ := tauShapeSpec(rng, 6, 40, 4, 0.7)
		verdictTrajectory(t, rng, ps)
	})
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestAnchorMatchesLegacy solves the M=10/N=100/K=8 anchor LP cold on the
// dense and sparse backends against the legacy tableau. The tableau takes
// about 9 s there, so the case is skipped under -short and the race
// detector; TestPivotLoopsMatchLegacy covers the same loops on smaller
// scheduling LPs in every mode.
func TestAnchorMatchesLegacy(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the legacy tableau takes ~9 s on the anchor")
	}
	ps, _, _ := tauShapeSpec(rand.New(rand.NewSource(1)), 10, 100, 8, 1)
	ref, err := ps.build().Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []BackendKind{Dense, Sparse} {
		be, err := NewBackend(kind, ps.build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := be.Solve()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sameVerdict(t, string(kind), ref, sol)
	}
}

// dualsCheck wraps a basis representation and, at every simplex basis
// change made while the solver maintains its reduced costs, compares them
// with a recompute from fresh duals. Updates replayed by a refactorization
// (between reset and markRefactored) are not basis changes and are skipped.
type dualsCheck struct {
	basisRep
	t           *testing.T
	s           *solverState
	refactoring bool
	checks      int
	worst       float64
}

func (c *dualsCheck) reset(m int)     { c.refactoring = true; c.basisRep.reset(m) }
func (c *dualsCheck) markRefactored() { c.refactoring = false; c.basisRep.markRefactored() }

func (c *dualsCheck) update(r int, w []float64, pat []int32) {
	c.basisRep.update(r, w, pat)
	s := c.s
	if c.refactoring || s.dAge < 0 {
		return
	}
	y := make([]float64, s.sf.m)
	for i, j := range s.basis {
		y[i] = s.sf.objAt(j)
	}
	s.inv.btran(y)
	for j, got := range s.d {
		want := 0.0
		if s.status[j] != basic {
			want = s.sf.objAt(j) - s.sf.dotColumn(j, y)
		}
		err := math.Abs(got-want) / (1 + math.Abs(want))
		if err > c.worst {
			c.worst = err
		}
		if err > 1e-9 {
			c.t.Fatalf("pivot %d: d[%d] = %v maintained, %v recomputed", s.iters, j, got, want)
		}
	}
	c.checks++
}

// TestReducedCostsMaintained compares the maintained reduced costs with a
// fresh recompute after every pivot of a cold solve of the M=10/N=100/K=8
// anchor LP (scaled, as the rounding solver runs it) and of the
// dual-simplex re-solves that follow clamping assignments it uses.
func TestReducedCostsMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps, xs, _ := tauShapeSpec(rng, 10, 100, 8, 1)
	s := newSolverState(Sparse, ps.build(), NewWorkspace(), true)
	if s.info.ScalePasses == 0 {
		t.Fatal("anchor LP: scaling did not engage")
	}
	chk := &dualsCheck{basisRep: s.inv, t: t, s: s}
	s.inv = chk
	sol, err := s.Solve()
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("cold solve: status %v", sol.Status)
	}
	cold := chk.checks
	if cold < 100 {
		t.Fatalf("cold solve checked %d pivots (of %d), want ≥ 100", cold, sol.Iterations)
	}
	// Clamp assignments the optimum uses, in rounds: each warm re-solve
	// runs the dual simplex on the maintained costs. Every job keeps most
	// of its ten machines, so each round stays feasible.
	for round := 0; round < 3; round++ {
		clamped := 0
		for _, v := range xs {
			if sol.X[v] > 1e-9 && clamped < 15 {
				s.SetVarUpper(v, 0)
				clamped++
			}
		}
		if sol, err = s.Solve(); err != nil {
			t.Fatalf("round %d: warm solve: %v", round, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("round %d: warm solve: status %v", round, sol.Status)
		}
		t.Logf("round %d: %d pivots", round, sol.Iterations)
	}
	if chk.checks == cold {
		t.Fatal("the warm re-solves made no checked pivot")
	}
	t.Logf("%d checked pivots (%d cold), worst relative drift %.2g", chk.checks, cold, chk.worst)
}

// TestStartBasis covers WithStart: a usable start is taken by the first
// solve only (Solution.FromStart), scaled or not, also with a singleton
// row; a singular start leaves that solve cold — same verdict either way.
func TestStartBasis(t *testing.T) {
	// max x0 + 2·x1 + x2 over x0 + x1 + x2 ≤ 2, x0 + x1 − x2 ≥ 0, x ≤ 1.
	ps := &problemSpec{
		obj: []float64{-1, -2, -1},
		ub:  []float64{1, 1, 1},
		rows: []specRow{
			{LE, 2, []Term{{0, 1}, {1, 1}, {2, 1}}},
			{GE, 0, []Term{{0, 1}, {1, 1}, {2, -1}}},
		},
	}
	// x1 and x2 basic, x0 at its upper bound: nonsingular.
	good := &Basis{Cols: []int{1, 2}, Status: []VarStatus{NonbasicUpper, BasicVar, BasicVar, NonbasicLower, NonbasicLower}}
	// x0 and x1 share their column: singular.
	singular := &Basis{Cols: []int{0, 1}, Status: []VarStatus{BasicVar, BasicVar, NonbasicLower, NonbasicLower, NonbasicLower}}
	// A third row x2 ≤ 0.5 is a singleton, the row a bound-folding
	// presolve would remove; scaling keeps it, so the start applies.
	reduced := ps.clone()
	reduced.rows = append(reduced.rows, specRow{LE, 0.5, []Term{{2, 1}}})
	goodReduced := &Basis{Cols: []int{1, 2, 5}, Status: []VarStatus{NonbasicUpper, BasicVar, BasicVar, NonbasicLower, NonbasicLower, BasicVar}}

	for _, tc := range []struct {
		name      string
		ps        *problemSpec
		start     *Basis
		presolve  bool
		fromStart bool
	}{
		{"good", ps, good, true, true},
		{"good-nopresolve", ps, good, false, true},
		{"singular", ps, singular, true, false},
		{"singular-nopresolve", ps, singular, false, false},
		{"presolve-reduction", reduced, goodReduced, true, true},
		{"presolve-reduction-off", reduced, goodReduced, false, true},
	} {
		for _, kind := range []BackendKind{Dense, Sparse} {
			name := tc.name + "/" + string(kind)
			ref, err := tc.ps.build().Solve()
			if err != nil {
				t.Fatal(err)
			}
			be, err := NewBackend(kind, tc.ps.build(), nil, WithPresolve(tc.presolve), WithStart(tc.start))
			if err != nil {
				t.Fatal(err)
			}
			sol, err := be.Solve()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameVerdict(t, name, ref, sol)
			if sol.FromStart != tc.fromStart {
				t.Errorf("%s: FromStart = %v, want %v", name, sol.FromStart, tc.fromStart)
			}
			if (sol.Presolve != nil) != tc.presolve {
				t.Errorf("%s: Solution.Presolve = %+v with scaling %v", name, sol.Presolve, tc.presolve)
			}
			be.SetVarUpper(0, 0.5)
			if sol, err = be.Solve(); err != nil || sol.FromStart {
				t.Errorf("%s: second solve FromStart = %v (err %v), want false", name, sol != nil && sol.FromStart, err)
			}
		}
	}
}
