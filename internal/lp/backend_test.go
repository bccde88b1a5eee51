package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// problemSpec is a rebuildable LP description, so differential tests can
// hand the same (possibly mutated) problem to every solver.
type problemSpec struct {
	obj  []float64
	ub   []float64
	rows []specRow
}

type specRow struct {
	sense Sense
	rhs   float64
	terms []Term
}

func (ps *problemSpec) build() *Problem {
	p := &Problem{}
	for j := range ps.obj {
		p.AddVar(ps.obj[j], ps.ub[j])
	}
	for _, r := range ps.rows {
		p.AddConstraint(r.sense, r.rhs, r.terms...)
	}
	return p
}

// clone deep-copies the spec so mutations do not alias.
func (ps *problemSpec) clone() *problemSpec {
	c := &problemSpec{
		obj: append([]float64(nil), ps.obj...),
		ub:  append([]float64(nil), ps.ub...),
	}
	for _, r := range ps.rows {
		c.rows = append(c.rows, specRow{sense: r.sense, rhs: r.rhs, terms: append([]Term(nil), r.terms...)})
	}
	return c
}

// randomBoxSpec mirrors the quick_test corpus: LE rows with nonnegative
// coefficients over a bounded box (always feasible at 0).
func randomBoxSpec(rng *rand.Rand) *problemSpec {
	d := 2 + rng.Intn(4)
	nr := 1 + rng.Intn(5)
	ps := &problemSpec{}
	for j := 0; j < d; j++ {
		ps.obj = append(ps.obj, rng.NormFloat64())
		ps.ub = append(ps.ub, 1+rng.Float64()*4)
	}
	for r := 0; r < nr; r++ {
		var terms []Term
		for j := 0; j < d; j++ {
			if rng.Float64() < 0.7 {
				terms = append(terms, Term{j, rng.Float64() * 3})
			}
		}
		ps.rows = append(ps.rows, specRow{LE, 1 + rng.Float64()*8, terms})
	}
	return ps
}

// randomEqSpec mirrors the quick_test equality corpus: EQ rows generated
// from a known feasible point (feasible by construction).
func randomEqSpec(rng *rand.Rand) *problemSpec {
	d := 2 + rng.Intn(5)
	nr := 1 + rng.Intn(4)
	ps := &problemSpec{}
	x0 := make([]float64, d)
	for j := 0; j < d; j++ {
		ub := 1 + rng.Float64()*3
		x0[j] = rng.Float64() * ub
		ps.obj = append(ps.obj, rng.NormFloat64())
		ps.ub = append(ps.ub, ub)
	}
	for r := 0; r < nr; r++ {
		var terms []Term
		rhs := 0.0
		for j := 0; j < d; j++ {
			c := rng.NormFloat64()
			terms = append(terms, Term{j, c})
			rhs += c * x0[j]
		}
		ps.rows = append(ps.rows, specRow{EQ, rhs, terms})
	}
	return ps
}

// randomMixedSpec adds GE rows and infinite upper bounds to exercise the
// row-negation and unbounded-variable paths of the standard form.
func randomMixedSpec(rng *rand.Rand) *problemSpec {
	d := 2 + rng.Intn(4)
	ps := &problemSpec{}
	for j := 0; j < d; j++ {
		// Nonnegative costs keep the LP bounded despite infinite bounds.
		ps.obj = append(ps.obj, rng.Float64()*2)
		if rng.Float64() < 0.3 {
			ps.ub = append(ps.ub, math.Inf(1))
		} else {
			ps.ub = append(ps.ub, 1+rng.Float64()*5)
		}
	}
	// A few GE rows with nonnegative coefficients force activity.
	for r := 0; r < 1+rng.Intn(3); r++ {
		var terms []Term
		for j := 0; j < d; j++ {
			if rng.Float64() < 0.8 {
				terms = append(terms, Term{j, 0.2 + rng.Float64()*2})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{0, 1})
		}
		ps.rows = append(ps.rows, specRow{GE, rng.Float64() * 3, terms})
	}
	// And LE caps so it stays interesting.
	for r := 0; r < rng.Intn(3); r++ {
		var terms []Term
		for j := 0; j < d; j++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{j, rng.Float64() * 2})
			}
		}
		if len(terms) > 0 {
			ps.rows = append(ps.rows, specRow{LE, 5 + rng.Float64()*10, terms})
		}
	}
	return ps
}

// solveAll runs the legacy tableau solver and both backends on the spec.
func solveAll(t *testing.T, ps *problemSpec) (legacy, dense, sparse *Solution) {
	t.Helper()
	var err error
	legacy, err = ps.build().Solve()
	if err != nil {
		t.Fatalf("legacy Solve: %v", err)
	}
	for _, kind := range []BackendKind{Dense, Sparse} {
		be, err := NewBackend(kind, ps.build(), nil)
		if err != nil {
			t.Fatalf("NewBackend(%s): %v", kind, err)
		}
		sol, err := be.Solve()
		if err != nil {
			t.Fatalf("%s Solve: %v", kind, err)
		}
		if kind == Dense {
			dense = cloneSolution(sol)
		} else {
			sparse = cloneSolution(sol)
		}
	}
	return legacy, dense, sparse
}

func cloneSolution(s *Solution) *Solution {
	c := *s
	c.X = append([]float64(nil), s.X...)
	return &c
}

// agree checks status equality and, when optimal, objective agreement
// within 1e-6 plus primal feasibility of the backend solutions.
func agree(t *testing.T, ps *problemSpec, name string, ref, got *Solution) {
	t.Helper()
	if ref.Status != got.Status {
		t.Fatalf("%s: status %v, legacy %v", name, got.Status, ref.Status)
	}
	if ref.Status != Optimal {
		return
	}
	if math.Abs(ref.Objective-got.Objective) > 1e-6 {
		t.Fatalf("%s: objective %v, legacy %v (diff %g)", name, got.Objective, ref.Objective,
			math.Abs(ref.Objective-got.Objective))
	}
	p := ps.build()
	if !feasible(p, got.X) {
		t.Fatalf("%s: solution violates constraints: %v", name, got.X)
	}
	for j, x := range got.X {
		if x < -1e-6 || x > ps.ub[j]+1e-6 {
			t.Fatalf("%s: x[%d]=%v outside [0,%v]", name, j, x, ps.ub[j])
		}
	}
}

// TestBackendsAgreeOnRandomCorpus is the dense-vs-revised differential over
// the same random-LP corpus shapes as quick_test.go: every seed must give
// the same status and (when optimal) the same objective within 1e-6.
func TestBackendsAgreeOnRandomCorpus(t *testing.T) {
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
				ps := gen(rng)
				legacy, dense, sparse := solveAll(t, ps)
				agree(t, ps, "dense", legacy, dense)
				agree(t, ps, "sparse", legacy, sparse)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBackendsDetectInfeasible mirrors the contradicting-equalities corpus.
func TestBackendsDetectInfeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		ps := &problemSpec{}
		for j := 0; j < d; j++ {
			ps.obj = append(ps.obj, 0)
			ps.ub = append(ps.ub, 10)
		}
		var terms []Term
		for j := 0; j < d; j++ {
			terms = append(terms, Term{j, 1 + rng.Float64()})
		}
		ps.rows = append(ps.rows, specRow{EQ, 5, terms})
		ps.rows = append(ps.rows, specRow{EQ, 7, terms})
		legacy, dense, sparse := solveAll(t, ps)
		return legacy.Status == Infeasible && dense.Status == Infeasible && sparse.Status == Infeasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestBackendWarmResolveMatchesCold mutates RHS values and upper bounds
// after an optimal solve and checks the warm re-solve against a cold solve
// of the mutated problem by all three solvers.
func TestBackendWarmResolveMatchesCold(t *testing.T) {
	for _, kind := range []BackendKind{Dense, Sparse} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				ps := randomBoxSpec(rng)
				if rng.Intn(2) == 0 {
					ps = randomEqSpec(rng)
				}
				be, err := NewBackend(kind, ps.build(), NewWorkspace())
				if err != nil {
					t.Fatalf("NewBackend: %v", err)
				}
				if _, err := be.Solve(); err != nil {
					t.Fatalf("cold Solve: %v", err)
				}
				// Three rounds of mutations with warm re-solves; RHS shrinks
				// and grows, bounds clamp to 0 and restore.
				mut := ps.clone()
				for round := 0; round < 3; round++ {
					for r := range mut.rows {
						if rng.Float64() < 0.5 {
							f := 0.4 + rng.Float64()*1.2
							mut.rows[r].rhs *= f
							be.SetRHS(r, mut.rows[r].rhs)
						}
					}
					for j := range mut.ub {
						switch rng.Intn(4) {
						case 0:
							mut.ub[j] = 0
							be.SetVarUpper(j, 0)
						case 1:
							mut.ub[j] = 0.5 + rng.Float64()*3
							be.SetVarUpper(j, mut.ub[j])
						}
					}
					warm, err := be.Solve()
					if err != nil {
						t.Fatalf("warm Solve (round %d): %v", round, err)
					}
					cold, err := mut.build().Solve()
					if err != nil {
						t.Fatalf("legacy cold Solve: %v", err)
					}
					if warm.Status != cold.Status {
						t.Fatalf("round %d: warm status %v, cold %v (seed %d)", round, warm.Status, cold.Status, seed)
					}
					if warm.Status == Optimal {
						if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
							t.Fatalf("round %d: warm objective %v, cold %v", round, warm.Objective, cold.Objective)
						}
						if !feasible(mut.build(), warm.X) {
							t.Fatalf("round %d: warm solution infeasible", round)
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
}

// TestBackendWarmTransplant moves an optimal basis from one backend into
// the other; the receiving backend must confirm optimality essentially for
// free (no more pivots than a cold solve, same objective). The ≤2-pivot
// budget is a property of the concrete backends, so scaling is off here;
// transplants of a scaled solve's basis are covered by the scaling
// differential tests.
func TestBackendWarmTransplant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ps := randomBoxSpec(rng)
		from, err := NewBackend(Dense, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatalf("NewBackend: %v", err)
		}
		ref, err := from.Solve()
		if err != nil || ref.Status != Optimal {
			t.Fatalf("donor solve: %v (%v)", err, ref.Status)
		}
		refObj := ref.Objective
		to, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatalf("NewBackend: %v", err)
		}
		if err := to.Warm(from.Basis()); err != nil {
			t.Fatalf("Warm: %v", err)
		}
		sol, err := to.Solve()
		if err != nil {
			t.Fatalf("warm-transplant Solve: %v", err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-refObj) > 1e-6 {
			t.Fatalf("transplant: status %v obj %v, want optimal %v", sol.Status, sol.Objective, refObj)
		}
		if sol.Iterations > 2 {
			t.Errorf("transplanted basis needed %d pivots, want ≤2", sol.Iterations)
		}
	}
}

// TestBackendWarmRejectsBadBasis checks the validation paths of Warm.
func TestBackendWarmRejectsBadBasis(t *testing.T) {
	ps := randomBoxSpec(rand.New(rand.NewSource(3)))
	be, err := NewBackend(Sparse, ps.build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := be.Warm(nil); err == nil {
		t.Error("Warm(nil) accepted")
	}
	if err := be.Warm(&Basis{Cols: []int{0}, Status: []VarStatus{BasicVar}}); err == nil {
		t.Error("Warm with wrong shape accepted")
	}
}

// TestBackendDegenerateCyclingRegression solves Beale's classic cycling
// example, which loops forever under pure Dantzig pricing with a naive
// ratio test. The stall detector must switch to Bland's rule and terminate
// at the known optimum -1/20.
func TestBackendDegenerateCyclingRegression(t *testing.T) {
	spec := &problemSpec{
		obj: []float64{-0.75, 150, -0.02, 6},
		ub:  []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)},
		rows: []specRow{
			{LE, 0, []Term{{0, 0.25}, {1, -60}, {2, -1.0 / 25}, {3, 9}}},
			{LE, 0, []Term{{0, 0.5}, {1, -90}, {2, -1.0 / 50}, {3, 3}}},
			{LE, 1, []Term{{2, 1}}},
		},
	}
	legacy, dense, sparse := solveAll(t, spec)
	for name, sol := range map[string]*Solution{"legacy": legacy, "dense": dense, "sparse": sparse} {
		if sol.Status != Optimal {
			t.Errorf("%s: status %v, want optimal", name, sol.Status)
			continue
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
			t.Errorf("%s: objective %v, want -0.05", name, sol.Objective)
		}
	}
}

// TestBackendSchedulingShape runs the ILP-UM-shaped LP of quick_test.go
// through both backends and cross-checks the y ≥ x rows.
func TestBackendSchedulingShape(t *testing.T) {
	m, n, K := 2, 3, 2
	class := []int{0, 0, 1}
	ps := &problemSpec{}
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
	T := 3.0
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			terms = append(terms, Term{x[i][j], 1})
		}
		for k := 0; k < K; k++ {
			terms = append(terms, Term{y[i][k], 1})
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
	_, dense, sparse := solveAll(t, ps)
	for name, sol := range map[string]*Solution{"dense": dense, "sparse": sparse} {
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v, want optimal", name, sol.Status)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if sol.X[x[i][j]] > sol.X[y[i][class[j]]]+1e-6 {
					t.Errorf("%s: x[%d][%d]=%v exceeds y=%v", name, i, j, sol.X[x[i][j]], sol.X[y[i][class[j]]])
				}
			}
		}
	}
}

// TestNewBackendRejectsUnknownKind: "", Dense and Sparse build, and any
// other kind (the removed interior-point names included) is rejected with
// an error that lists only the two backends.
func TestNewBackendRejectsUnknownKind(t *testing.T) {
	ps := randomBoxSpec(rand.New(rand.NewSource(1)))
	for _, kind := range []BackendKind{"", Dense, Sparse} {
		if _, err := NewBackend(kind, ps.build(), nil); err != nil {
			t.Errorf("NewBackend(%q): %v", kind, err)
		}
	}
	for _, kind := range []BackendKind{"ipm", "auto", "nope"} {
		_, err := NewBackend(kind, ps.build(), nil)
		want := fmt.Sprintf(`lp: unknown backend %q (want "dense" or "sparse")`, kind)
		if err == nil || err.Error() != want {
			t.Errorf("NewBackend(%q) error = %v, want %q", kind, err, want)
		}
	}
}
