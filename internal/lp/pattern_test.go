package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// solvedTauBackend returns the solver core of a cold-solved min-τ
// scheduling LP (unscaled, so it is the raw matrix), with an
// eta file that holds a refactorization plus the pivots since.
func solvedTauBackend(t *testing.T, kind BackendKind, seed int64) (*solverState, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ps, xs, _ := tauShapeSpec(rng, 6, 40, 4, 0.7)
	be, err := NewBackend(kind, ps.build(), nil, WithPresolve(false))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := be.Solve()
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("cold solve: status %v", sol.Status)
	}
	return be.(*solverState), xs
}

// checkColumnScratch checks the state ftranColumn expects between calls:
// every mark clear, and w zero off the stored pattern.
func checkColumnScratch(t *testing.T, s *solverState, name string) {
	t.Helper()
	on := make([]bool, s.sf.m)
	for _, i := range s.ws.colPat {
		on[i] = true
	}
	for i, mk := range s.ws.colMark {
		if mk {
			t.Fatalf("%s: row %d still marked", name, i)
		}
		if !on[i] && s.ws.w[i] != 0 {
			t.Fatalf("%s: w[%d] = %v off the stored pattern", name, i, s.ws.w[i])
		}
	}
}

// checkFtranPattern compares ftranColumn with a dense scatter + ftran for
// every column: the values must be bit-identical, and the pattern
// duplicate-free and covering every nonzero.
func checkFtranPattern(t *testing.T, s *solverState, name string) {
	t.Helper()
	dense := make([]float64, s.sf.m)
	for j := 0; j < s.sf.n; j++ {
		for i := range dense {
			dense[i] = 0
		}
		s.sf.scatterColumn(j, 1, dense)
		s.inv.ftran(dense)
		w, pat := s.ftranColumn(j)
		on := make([]bool, s.sf.m)
		for _, i := range pat {
			if on[i] {
				t.Fatalf("%s: column %d: row %d twice in the pattern", name, j, i)
			}
			on[i] = true
		}
		for i := range dense {
			if math.Float64bits(w[i]) != math.Float64bits(dense[i]) {
				t.Fatalf("%s: column %d row %d: %v with the pattern, %v dense", name, j, i, w[i], dense[i])
			}
			if w[i] != 0 && !on[i] {
				t.Fatalf("%s: column %d: nonzero row %d off the pattern", name, j, i)
			}
		}
		checkColumnScratch(t, s, name)
	}
}

// TestFtranPatternMatchesDense checks FTRAN with its pattern against the
// dense FTRAN on both backends, after a cold solve and after warm
// dual-simplex re-solves (eta files from a refactorization plus pivots).
func TestFtranPatternMatchesDense(t *testing.T) {
	for _, kind := range []BackendKind{Sparse, Dense} {
		for seed := int64(1); seed <= 3; seed++ {
			s, xs := solvedTauBackend(t, kind, seed)
			if e, ok := s.inv.(*etaFile); ok && len(e.pivRow) == 0 {
				t.Fatalf("%s seed %d: empty eta file; the case tests nothing", kind, seed)
			}
			name := string(kind)
			checkFtranPattern(t, s, name+"/cold")
			for round := 0; round < 2; round++ {
				for q, v := range xs {
					if q%5 == round {
						s.SetVarUpper(v, 0)
					}
				}
				if _, err := s.Solve(); err != nil {
					t.Fatalf("%s seed %d round %d: %v", kind, seed, round, err)
				}
				checkFtranPattern(t, s, name+"/warm")
			}
		}
	}
}

// denseScanUpdate is the eta update before patterns: a scan of every row
// of w. The differential baseline for etaFile.update.
func denseScanUpdate(e *etaFile, r int, w []float64) {
	inv := 1 / w[r]
	e.pivRow = append(e.pivRow, int32(r))
	for i, wi := range w {
		var v float64
		if i == r {
			v = inv
		} else if wi != 0 {
			v = -wi * inv
		} else {
			continue
		}
		if math.Abs(v) < etaDropTol {
			continue
		}
		e.idx = append(e.idx, int32(i))
		e.val = append(e.val, v)
		e.nnz++
	}
	e.start = append(e.start, int32(len(e.idx)))
}

type etaEntry struct {
	row int32
	val float64
}

// lastEta returns the newest eta's entries sorted by row.
func lastEta(e *etaFile) []etaEntry {
	k := len(e.pivRow) - 1
	var out []etaEntry
	for q := e.start[k]; q < e.start[k+1]; q++ {
		out = append(out, etaEntry{e.idx[q], e.val[q]})
	}
	slices.SortFunc(out, func(a, b etaEntry) int { return int(a.row - b.row) })
	return out
}

// sameEta updates a patterned and a dense-scan eta file with the same
// column and checks that they store the same (row, value) set.
func sameEta(t *testing.T, name string, pe, de *etaFile, r int, w []float64, pat []int32) {
	t.Helper()
	pe.update(r, w, pat)
	denseScanUpdate(de, r, w)
	got, want := lastEta(pe), lastEta(de)
	if !slices.Equal(got, want) || pe.pivRow[len(pe.pivRow)-1] != de.pivRow[len(de.pivRow)-1] || pe.nnz != de.nnz {
		t.Fatalf("%s: eta at row %d stores %v, the dense scan %v", name, r, got, want)
	}
}

// TestEtaUpdateMatchesDenseScan checks that the patterned eta update stores
// exactly the entries of the dense row scan it replaced: on random sparse
// columns whose patterns come in random order and carry explicit zeros and
// entries below etaDropTol, and on the FTRAN'd columns of a solved LP.
func TestEtaUpdateMatchesDenseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m = 50
	pe, de := &etaFile{}, &etaFile{}
	pe.reset(m)
	de.reset(m)
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, m)
		pat := rng.Perm(m)[:1+rng.Intn(m)]
		for _, i := range pat {
			switch rng.Intn(4) {
			case 0: // on the pattern but zero (cancellation, an eta's pivot row)
			case 1:
				w[i] = 1e-15 * rng.NormFloat64() // dropped
			default:
				w[i] = rng.NormFloat64()
			}
		}
		r := pat[rng.Intn(len(pat))]
		w[r] = 0.5 + rng.Float64()
		p32 := make([]int32, len(pat))
		for q, i := range pat {
			p32[q] = int32(i)
		}
		sameEta(t, "random", pe, de, r, w, p32)
	}

	s, _ := solvedTauBackend(t, Sparse, 2)
	pe.reset(s.sf.m)
	de.reset(s.sf.m)
	checked := 0
	for j := 0; j < s.sf.n; j++ {
		w, pat := s.ftranColumn(j)
		r, best := -1, pivTol
		for _, i := range pat {
			if a := math.Abs(w[i]); a > best {
				r, best = int(i), a
			}
		}
		if r >= 0 {
			sameEta(t, "ftran column", pe, de, r, w, pat)
			checked++
		}
	}
	if checked < s.sf.m {
		t.Fatalf("checked %d columns, want ≥ %d", checked, s.sf.m)
	}
}

// TestSingularRefactorLeavesScratchClean drives a refactorization into a
// singular basis partway through its placements (a column and its exact
// duplicate both basic, beside structural columns placed before them) and
// checks that the FTRAN scratch is left clean: no stale mark, w zero off
// its pattern. The backend must then still solve to the legacy verdict.
func TestSingularRefactorLeavesScratchClean(t *testing.T) {
	for _, kind := range []BackendKind{Sparse, Dense} {
		rng := rand.New(rand.NewSource(3))
		ps, _, _ := tauShapeSpec(rng, 4, 20, 3, 0.8)
		be, err := NewBackend(kind, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.Solve(); err != nil {
			t.Fatal(err)
		}
		opt := be.Basis()
		nv, m := len(ps.obj), len(ps.rows)
		// Duplicate a basic structural column as a new last variable.
		dup, slackRow := -1, -1
		for r, j := range opt.Cols {
			if j < nv && j > 0 && dup < 0 {
				dup = j
			}
			if j >= nv && slackRow < 0 {
				slackRow = r
			}
		}
		if dup < 0 || slackRow < 0 {
			t.Fatalf("%s: optimal basis has no structural/slack pair to work with", kind)
		}
		ext := ps.clone()
		ext.obj = append(ext.obj, ext.obj[dup])
		ext.ub = append(ext.ub, ext.ub[dup])
		for r := range ext.rows {
			for _, tm := range ext.rows[r].terms {
				if tm.Var == dup {
					ext.rows[r].terms = append(ext.rows[r].terms, Term{nv, tm.Coef})
				}
			}
		}
		// The optimal basis with the slack of slackRow traded for the
		// duplicate: singular. Slack columns shift up by one.
		b := &Basis{Cols: make([]int, m), Status: make([]VarStatus, nv+1+m)}
		for j := 0; j < nv; j++ {
			b.Status[j] = opt.Status[j]
		}
		for r := 0; r < m; r++ {
			b.Status[nv+1+r] = opt.Status[nv+r]
		}
		for r, j := range opt.Cols {
			if j >= nv {
				j++
			}
			b.Cols[r] = j
		}
		b.Status[b.Cols[slackRow]] = NonbasicLower
		b.Cols[slackRow] = nv
		b.Status[nv] = BasicVar

		be2, err := NewBackend(kind, ext.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		s := be2.(*solverState)
		if err := s.Warm(b); err == nil {
			t.Fatalf("%s: Warm accepted a basis with a duplicated column", kind)
		}
		if len(s.ws.colPat) == 0 {
			t.Fatalf("%s: the failed refactor FTRAN'd nothing; the case tests nothing", kind)
		}
		checkColumnScratch(t, s, string(kind)+"/singular")
		ref, err := ext.build().Solve()
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve()
		if err != nil {
			t.Fatalf("%s: solve after the singular Warm: %v", kind, err)
		}
		sameVerdict(t, string(kind)+"/singular", ref, sol)
		checkColumnScratch(t, s, string(kind)+"/solved")
	}
}
