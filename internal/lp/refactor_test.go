package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refactorStaticOrder replicates the pre-Markowitz refactorization — the
// static sparsest-column-first sort with a full-row pivot scan per column —
// as the differential baseline for the dynamic bucket ordering in
// solverState.refactor.
func refactorStaticOrder(s *solverState) error {
	m := s.sf.m
	cols := append([]int(nil), s.basis...)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.sf.colNNZ(cols[order[a]]) < s.sf.colNNZ(cols[order[b]])
	})
	marks := make([]bool, m)
	w := make([]float64, m)
	s.inv.reset(m)
	for _, i := range order {
		j := cols[i]
		for k := range w {
			w[k] = 0
		}
		s.sf.scatterColumn(j, 1, w)
		s.inv.ftran(w)
		best, bestAbs := -1, 1e-10
		for r := 0; r < m; r++ {
			if !marks[r] {
				if a := math.Abs(w[r]); a > bestAbs {
					best, bestAbs = r, a
				}
			}
		}
		if best < 0 {
			return fmt.Errorf("lp: singular basis (column %d)", j)
		}
		marks[best] = true
		s.basis[best] = j
		s.inv.update(best, w)
	}
	s.inv.markRefactored()
	return nil
}

// randomSchedShapeSpec builds a scheduling-relaxation-shaped feasibility LP
// (the refactorization's production workload): machine load rows, job
// assignment rows, setup-dominance rows, with random eligibility gaps.
func randomSchedShapeSpec(rng *rand.Rand) *problemSpec {
	m := 3 + rng.Intn(4)
	n := 8 + rng.Intn(12)
	K := 2 + rng.Intn(3)
	return schedShapeSpec(rng, m, n, K, 0.7)
}

// schedShapeSpec builds the scheduling-shaped LP for m machines, n jobs and
// K setup classes, each job eligible on its home machine and on every
// other with probability elig (elig 1 gives the full m + n + m·n rows).
func schedShapeSpec(rng *rand.Rand, m, n, K int, elig float64) *problemSpec {
	class := make([]int, n)
	for j := range class {
		class[j] = rng.Intn(K)
	}
	ps := &problemSpec{}
	x := make([][]int, m)
	y := make([][]int, m)
	for i := 0; i < m; i++ {
		x[i] = make([]int, n)
		y[i] = make([]int, K)
		for j := 0; j < n; j++ {
			x[i][j] = -1
			if i == j%m || rng.Float64() < elig { // every job runs somewhere
				ps.obj = append(ps.obj, 0)
				ps.ub = append(ps.ub, 1)
				x[i][j] = len(ps.obj) - 1
			}
		}
		for k := 0; k < K; k++ {
			ps.obj = append(ps.obj, 0)
			ps.ub = append(ps.ub, 1)
			y[i][k] = len(ps.obj) - 1
		}
	}
	T := 2 + float64(n)/float64(m)*2
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if x[i][j] >= 0 {
				terms = append(terms, Term{x[i][j], 0.5 + rng.Float64()*2})
			}
		}
		for k := 0; k < K; k++ {
			terms = append(terms, Term{y[i][k], 0.2 + rng.Float64()})
		}
		ps.rows = append(ps.rows, specRow{LE, T, terms})
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
	return ps
}

// TestRefactorMarkowitzDifferential pins the bucket-ordered refactorization
// against the static-sort baseline on a scheduling-shaped corpus: both
// orderings must factorize the same bases to the same verdicts, and the
// dynamic order must not produce more total eta fill than the static one
// (less is the point of the change).
func TestRefactorMarkowitzDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	totalNew, totalOld := 0, 0
	solved := 0
	for trial := 0; trial < 40; trial++ {
		ps := randomSchedShapeSpec(rng)
		// White-box: the clones are downcast to solverState to compare eta
		// fill, so the presolve wrapper is off.
		be, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatalf("trial %d: NewBackend: %v", trial, err)
		}
		ref, err := be.Solve()
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if ref.Status != Optimal {
			continue // rare over-tight load rows: nothing to refactorize against
		}
		solved++
		refObj := ref.Objective
		a := be.Clone().(*solverState)
		b := be.Clone().(*solverState)
		if err := a.refactor(); err != nil {
			t.Fatalf("trial %d: dynamic refactor: %v", trial, err)
		}
		if err := refactorStaticOrder(b); err != nil {
			t.Fatalf("trial %d: static refactor: %v", trial, err)
		}
		fillA := a.inv.(*etaFile).nnz
		fillB := b.inv.(*etaFile).nnz
		totalNew += fillA
		totalOld += fillB
		// Both factorizations represent the same basis: re-solving from
		// them must reproduce the verdict and objective of the original.
		for name, s := range map[string]*solverState{"dynamic": a, "static": b} {
			sol, err := s.Solve()
			if err != nil {
				t.Fatalf("trial %d: %s re-solve: %v", trial, name, err)
			}
			if sol.Status != Optimal {
				t.Fatalf("trial %d: %s re-solve status %v, want optimal", trial, name, sol.Status)
			}
			if math.Abs(sol.Objective-refObj) > 1e-6 {
				t.Fatalf("trial %d: %s re-solve objective %v, want %v", trial, name, sol.Objective, refObj)
			}
		}
	}
	if solved < 20 {
		t.Fatalf("corpus degenerated: only %d/40 instances optimal", solved)
	}
	if totalNew > totalOld {
		t.Errorf("dynamic ordering produced more fill than the static sort: %d > %d", totalNew, totalOld)
	}
	t.Logf("eta fill across %d factorizations: dynamic %d, static %d", solved, totalNew, totalOld)
}

// TestRefactorPreservesWarmVerdicts drives a shrinking-RHS warm trajectory
// (the rounding search's access pattern, which is what forces periodic
// refactorization) and checks the sparse backend agrees with the dense one
// at every step.
func TestRefactorPreservesWarmVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		ps := randomSchedShapeSpec(rng)
		sp, err := NewBackend(Sparse, ps.build(), nil)
		if err != nil {
			t.Fatalf("NewBackend sparse: %v", err)
		}
		de, err := NewBackend(Dense, ps.build(), nil)
		if err != nil {
			t.Fatalf("NewBackend dense: %v", err)
		}
		// Load rows are the first m rows; shrink them in steps.
		m := 3
		for i, r := range ps.rows {
			if r.sense != LE || len(r.terms) < 3 {
				m = i
				break
			}
		}
		base := ps.rows[0].rhs
		for step := 0; step < 12; step++ {
			T := base * (1 - 0.06*float64(step))
			for r := 0; r < m; r++ {
				sp.SetRHS(r, T)
				de.SetRHS(r, T)
			}
			ss, err := sp.Solve()
			if err != nil {
				t.Fatalf("trial %d step %d: sparse: %v", trial, step, err)
			}
			ds, err := de.Solve()
			if err != nil {
				t.Fatalf("trial %d step %d: dense: %v", trial, step, err)
			}
			if ss.Status != ds.Status {
				t.Fatalf("trial %d step %d: sparse %v vs dense %v", trial, step, ss.Status, ds.Status)
			}
			if ss.Status != Optimal {
				break
			}
		}
	}
}

// TestRefactorSlackFirstInvariant pins the slack-first factorization on
// scheduling-shaped bases that mix basic slacks with basic structural
// columns hitting those same rows: the sparse eta file must hold exactly
// one eta per basic structural column (none for slacks, which sit on the
// identity in their own row), and on both representations ftran of every
// basic column must return its unit vector.
func TestRefactorSlackFirstInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	mixed := 0
	for trial := 0; trial < 30; trial++ {
		ps := randomSchedShapeSpec(rng)
		sp, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatalf("trial %d: NewBackend: %v", trial, err)
		}
		// A few shrinking load-row steps, so the bases checked include
		// dual-simplex repairs, not only the cold optimum.
		base := ps.rows[0].rhs
		for step := 0; step < 4; step++ {
			for r, row := range ps.rows {
				if row.sense == LE && row.rhs > 0 {
					sp.SetRHS(r, base*(1-0.08*float64(step)))
				}
			}
			sol, err := sp.Solve()
			if err != nil {
				t.Fatalf("trial %d step %d: Solve: %v", trial, step, err)
			}
			if sol.Status != Optimal {
				break
			}
			basis := sp.Basis()
			s := sp.(*solverState)
			if slackRowHitByStructural(s) {
				mixed++
			}

			a := sp.Clone().(*solverState)
			if err := a.refactor(); err != nil {
				t.Fatalf("trial %d step %d: refactor: %v", trial, step, err)
			}
			structural := 0
			for _, j := range a.basis {
				if j < a.sf.nv {
					structural++
				}
			}
			if etas := len(a.inv.(*etaFile).pivRow); etas != structural {
				t.Fatalf("trial %d step %d: %d etas for %d basic structural columns", trial, step, etas, structural)
			}
			for r, j := range a.basis {
				if j >= a.sf.nv && j-a.sf.nv != r {
					t.Fatalf("trial %d step %d: slack %d placed in row %d", trial, step, j-a.sf.nv, r)
				}
			}
			checkUnitFtran(t, a, "sparse")

			de, err := NewBackend(Dense, ps.build(), nil, WithPresolve(false))
			if err != nil {
				t.Fatalf("trial %d: NewBackend dense: %v", trial, err)
			}
			if err := de.Warm(basis); err != nil {
				t.Fatalf("trial %d step %d: dense Warm: %v", trial, step, err)
			}
			checkUnitFtran(t, de.(*solverState), "dense")
		}
	}
	if mixed < 10 {
		t.Fatalf("corpus degenerated: only %d bases mix basic slacks with structural columns in their rows", mixed)
	}
}

// slackRowHitByStructural reports whether some basic slack's row also holds
// an entry of a basic structural column — the case slack-first must get
// right, since that entry lands in the structural column's eta.
func slackRowHitByStructural(s *solverState) bool {
	slackRow := make([]bool, s.sf.m)
	for _, j := range s.basis {
		if j >= s.sf.nv {
			slackRow[j-s.sf.nv] = true
		}
	}
	for _, j := range s.basis {
		if j >= s.sf.nv {
			continue
		}
		for k := s.sf.colPtr[j]; k < s.sf.colPtr[j+1]; k++ {
			if slackRow[s.sf.colRow[k]] {
				return true
			}
		}
	}
	return false
}

// checkUnitFtran checks B⁻¹·a_j = e_r for the column j basic in each row r.
func checkUnitFtran(t *testing.T, s *solverState, name string) {
	t.Helper()
	for r, j := range s.basis {
		w := s.ftranColumn(j)
		for i, v := range w {
			want := 0.0
			if i == r {
				want = 1
			}
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("%s: ftran of column %d (row %d) has %v at row %d, want %v", name, j, r, v, i, want)
			}
		}
	}
}

// TestWarmRejectsDuplicateColumns checks that a Basis naming the same
// column in two rows — a slack or a structural column — is refused before
// any factorization, and that the backend then still solves cold to the
// legacy tableau's verdict.
func TestWarmRejectsDuplicateColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ps *problemSpec
	var donor *Basis
	var slacks, structs []int // rows holding a basic slack / structural column
	for donor == nil {
		ps = randomSchedShapeSpec(rng)
		be, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := be.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		b := be.Basis()
		slacks, structs = slacks[:0], structs[:0]
		for r, j := range b.Cols {
			if j >= len(ps.obj) {
				slacks = append(slacks, r)
			} else {
				structs = append(structs, r)
			}
		}
		if len(slacks) > 0 && len(structs) > 1 {
			donor = b
		}
	}
	oracle, err := ps.build().Solve()
	if err != nil {
		t.Fatal(err)
	}
	dup := func(from, to int) *Basis {
		b := &Basis{Cols: append([]int(nil), donor.Cols...), Status: append([]VarStatus(nil), donor.Status...)}
		b.Cols[to] = b.Cols[from] // the displaced column stays BasicVar: counts still match
		return b
	}
	cases := map[string]*Basis{
		"slack":      dup(slacks[0], structs[0]),
		"structural": dup(structs[0], structs[1]),
	}
	for name, bad := range cases {
		for _, kind := range []BackendKind{Sparse, Dense} {
			for _, pre := range []bool{false, true} {
				be, err := NewBackend(kind, ps.build(), nil, WithPresolve(pre))
				if err != nil {
					t.Fatal(err)
				}
				if err := be.Warm(bad); err == nil {
					t.Fatalf("%s/%s/presolve=%v: Warm accepted a duplicated %s column", name, kind, pre, name)
				}
				sol, err := be.Solve()
				if err != nil {
					t.Fatalf("%s/%s/presolve=%v: Solve after rejected Warm: %v", name, kind, pre, err)
				}
				agree(t, ps, fmt.Sprintf("%s/%s/presolve=%v", name, kind, pre), oracle, sol)
			}
		}
	}
}

// BenchmarkRefactor times one refactorization of an anchor-shaped basis:
// the scheduling LP at M=10, N=100, K=8 with full eligibility (1110 rows,
// like the rounding relaxation at the M=10/N=100/K=8 anchor), captured
// after a warm dual-simplex re-solve at the tightest feasible load found by
// bisection. etas and eta-nnz report the size of the factorization.
func BenchmarkRefactor(b *testing.B) {
	ps := schedShapeSpec(rand.New(rand.NewSource(1)), 10, 100, 8, 1)
	be, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
	if err != nil {
		b.Fatal(err)
	}
	setLoad := func(T float64) Status {
		for r := 0; r < 10; r++ {
			be.SetRHS(r, T)
		}
		sol, err := be.Solve()
		if err != nil {
			b.Fatal(err)
		}
		return sol.Status
	}
	lo, hi := 0.0, ps.rows[0].rhs
	if setLoad(hi) != Optimal {
		b.Fatal("anchor LP infeasible at its initial load")
	}
	for hi-lo > 0.01*hi {
		if mid := (lo + hi) / 2; setLoad(mid) == Optimal {
			hi = mid
		} else {
			lo = mid
		}
	}
	if setLoad(hi) != Optimal {
		b.Fatal("anchor LP infeasible at the bisected load")
	}
	s := be.Clone().(*solverState)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.refactor(); err != nil {
			b.Fatal(err)
		}
	}
	e := s.inv.(*etaFile)
	b.ReportMetric(float64(len(e.pivRow)), "etas")
	b.ReportMetric(float64(e.nnz), "eta-nnz")
}
