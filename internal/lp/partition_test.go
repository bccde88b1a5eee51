package lp

import (
	"math"
	"math/rand"
	"testing"
)

// kernelCheck wraps the sparse backend's basis representation and, after
// every basis change and every refactorization, checks the partitioned
// kernels against a dense explicit inverse of the same basis. The dense
// inverse follows in lockstep: it replays each placement and pivot with
// its own FTRAN of the entering column. Install it on a freshly built
// solverState (all-slack basis), before the first Solve.
type kernelCheck struct {
	basisRep
	t           *testing.T
	s           *solverState
	ref         denseInverse
	refactoring bool
	allRows     bool // check btranUnit of every row, not a sample

	checks     int
	rowEtas    int // checks made while the eta file held a row eta
	unitS      int // btranUnit calls checked on implicit rows
	unitW      int // ... and on W rows
	foldChecks int // general btrans checked with a nonzero implicit entry
	worst      float64
}

func installKernelCheck(t *testing.T, s *solverState, allRows bool) *kernelCheck {
	c := &kernelCheck{basisRep: s.inv, t: t, s: s, allRows: allRows}
	c.ref.reset(s.sf.m)
	s.inv = c
	return c
}

func (c *kernelCheck) reset(m int) {
	c.refactoring = true
	c.basisRep.reset(m)
	c.ref.reset(m)
}

func (c *kernelCheck) markRefactored() {
	c.basisRep.markRefactored()
	c.refactoring = false
	c.check()
}

func (c *kernelCheck) update(r int, w []float64, pat []int32) {
	c.basisRep.update(r, w, pat)
	col := make([]float64, c.s.sf.m)
	c.s.sf.scatterColumn(c.s.basis[r], 1, col)
	c.ref.ftran(col)
	c.ref.update(r, col, nil)
	if !c.refactoring {
		c.check()
	}
}

// near compares entry i of what(arg) with want within 1e-9 relative
// (floored at 1).
func (c *kernelCheck) near(what string, arg, i int, got, want float64) {
	err := math.Abs(got-want) / (1 + math.Abs(want))
	if err > c.worst {
		c.worst = err
	}
	if err > 1e-9 {
		c.t.Fatalf("check %d (pivot %d): %s(%d), row %d: %v partitioned, %v dense", c.checks, c.s.iters, what, arg, i, got, want)
	}
}

func (c *kernelCheck) check() {
	s, m := c.s, c.s.sf.m
	c.checks++
	if e := c.basisRep.(*etaFile); len(e.pivRow) > 0 {
		for _, r := range e.pivRow {
			if r < 0 {
				c.rowEtas++
				break
			}
		}
	}
	// FTRAN of every basic column is its unit vector.
	for r, j := range s.basis {
		w, pat := s.ftranColumn(j)
		c.near("ftranColumn", j, r, w[r], 1)
		for _, i := range pat {
			if int(i) != r {
				c.near("ftranColumn", j, int(i), w[i], 0)
			}
		}
	}
	// btranUnit against the dense rows, for implicit and W rows.
	y := make([]float64, m)
	nS, nW := 0, 0
	for q := 0; q < m; q++ {
		r := (q + 7*c.checks) % m
		in := s.implicit[r]
		if !c.allRows && ((in && nS >= 3) || (!in && nW >= 3)) {
			continue
		}
		if in {
			nS++
		} else {
			nW++
		}
		s.btranUnit(r, y)
		for i, v := range y {
			c.near("btranUnit", r, i, v, c.ref.binv[r*m+i])
		}
	}
	c.unitS += nS
	c.unitW += nW
	// The general BTRAN, with the phase-1 costs of the current values when
	// there are any, and with ±1 costs on a spread of rows.
	var costs [][]float64
	if len(s.xB) == m {
		p1 := make([]float64, m)
		for i, v := range s.xB {
			switch {
			case v < -feasTol:
				p1[i] = -1
			case v > s.sf.ub[s.basis[i]]+feasTol:
				p1[i] = 1
			}
		}
		costs = append(costs, p1)
	}
	spread := make([]float64, m)
	for i := 0; i < 24; i++ {
		spread[(i*53+c.checks)%m] = float64(i%2*2 - 1)
	}
	costs = append(costs, spread)
	for _, cb := range costs {
		for i, v := range cb {
			if v != 0 && s.implicit[i] {
				c.foldChecks++
				break
			}
		}
		got := append([]float64(nil), cb...)
		want := append([]float64(nil), cb...)
		s.btran(got)
		c.ref.btran(want)
		for i := range got {
			c.near("btran", c.checks, i, got[i], want[i])
		}
	}
	// computeXB against the dense FTRAN of the effective right-hand side.
	if len(s.xB) == m {
		saved := append([]float64(nil), s.xB...)
		s.computeXB()
		want := append([]float64(nil), s.sf.rhs...)
		for j, st := range s.status {
			if st == atUpper {
				s.sf.scatterColumn(j, -s.sf.ub[j], want)
			}
		}
		c.ref.ftran(want)
		for i := range want {
			c.near("computeXB", c.checks, i, s.xB[i], want[i])
		}
		copy(s.xB, saved)
	}
}

// requireCoverage fails unless the checks saw every partitioned path.
func (c *kernelCheck) requireCoverage(t *testing.T, minChecks int) {
	t.Helper()
	if c.checks < minChecks || c.rowEtas == 0 || c.unitS == 0 || c.unitW == 0 || c.foldChecks == 0 {
		t.Fatalf("coverage too thin: %d checks (want ≥ %d), %d with row etas, btranUnit on %d implicit and %d W rows, %d folding btrans",
			c.checks, minChecks, c.rowEtas, c.unitS, c.unitW, c.foldChecks)
	}
	t.Logf("%d checks (%d with row etas), btranUnit on %d implicit and %d W rows, %d folding btrans, worst relative error %.2g",
		c.checks, c.rowEtas, c.unitS, c.unitW, c.foldChecks, c.worst)
}

// TestPartitionedKernelsMatchDense checks FTRAN, btranUnit on implicit and
// W rows, the general BTRAN and computeXB after every basis change against
// a dense inverse of the same basis: on the scheduling-shaped corpus (cold
// phase-1 solves and shrinking-load dual-simplex re-solves, scaled and
// raw), and on a cold solve of the M=10/N=100/K=8 anchor τ-LP (scaled)
// plus the dual-simplex re-solves that follow clamping the assignments it
// uses.
func TestPartitionedKernelsMatchDense(t *testing.T) {
	t.Run("sched-shape", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		total := &kernelCheck{}
		for trial := 0; trial < 12; trial++ {
			ps := randomSchedShapeSpec(rng)
			s := newSolverState(Sparse, ps.build(), NewWorkspace(), trial%2 == 0)
			chk := installKernelCheck(t, s, true)
			base := ps.rows[0].rhs
			for step := 0; step < 4; step++ {
				for r, row := range ps.rows {
					if row.sense == LE && row.rhs > 0 {
						s.SetRHS(r, base*(1-0.08*float64(step)))
					}
				}
				sol, err := s.Solve()
				if err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				if sol.Status != Optimal {
					break
				}
			}
			total.checks += chk.checks
			total.rowEtas += chk.rowEtas
			total.unitS += chk.unitS
			total.unitW += chk.unitW
			total.foldChecks += chk.foldChecks
			total.worst = math.Max(total.worst, chk.worst)
		}
		total.requireCoverage(t, 200)
	})
	t.Run("anchor", func(t *testing.T) {
		if testing.Short() || raceEnabled {
			t.Skip("a dense inverse per pivot of the 1110-row anchor takes seconds")
		}
		rng := rand.New(rand.NewSource(1))
		ps, xs, _ := tauShapeSpec(rng, 10, 100, 8, 1)
		s := newSolverState(Sparse, ps.build(), NewWorkspace(), true)
		chk := installKernelCheck(t, s, false)
		sol, err := s.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("cold solve: %v, %v", sol, err)
		}
		cold := chk.checks
		for round := 0; round < 3; round++ {
			clamped := 0
			for _, v := range xs {
				if sol.X[v] > 1e-9 && clamped < 15 {
					s.SetVarUpper(v, 0)
					clamped++
				}
			}
			if sol, err = s.Solve(); err != nil || sol.Status != Optimal {
				t.Fatalf("round %d: warm solve: %v, %v", round, sol, err)
			}
		}
		if chk.checks == cold {
			t.Fatal("the warm re-solves made no checked pivot")
		}
		chk.requireCoverage(t, 300)
	})
}

// decodeSlackLP reads a small LP whose rows are sparse and mostly loose,
// so its optimal bases keep many slacks basic: a column count (1–16) and
// per column an upper-bound byte (below 24: +∞, else b/32) and a cost byte
// ((b−128)/16, made nonnegative on an unbounded column so the LP stays
// bounded); then a row count (1–24) and per row its sense, a term count
// (1–8), per term a column and a coefficient byte ((b−128)/8, zero read
// as 1/8), and a right-hand side byte ((b−96)/8). The bytes after the
// LP's are returned unread.
func decodeSlackLP(data []byte) (*problemSpec, fuzzBytes) {
	b := fuzzBytes(data)
	nc := 1 + int(b.next()%16)
	ps := &problemSpec{}
	for j := 0; j < nc; j++ {
		ub := math.Inf(1)
		if u := b.next(); u >= 24 {
			ub = float64(u) / 32
		}
		c := (float64(b.next()) - 128) / 16
		if math.IsInf(ub, 1) {
			c = math.Abs(c)
		}
		ps.ub = append(ps.ub, ub)
		ps.obj = append(ps.obj, c)
	}
	nr := 1 + int(b.next()%24)
	for r := 0; r < nr; r++ {
		row := specRow{sense: Sense(b.next() % 3)}
		nt := 1 + int(b.next()%8)
		for q := 0; q < nt; q++ {
			j := int(b.next()) % nc
			a := (float64(b.next()) - 128) / 8
			if a == 0 {
				a = 0.125
			}
			row.terms = append(row.terms, Term{j, a})
		}
		row.rhs = (float64(b.next()) - 96) / 8
		ps.rows = append(ps.rows, row)
	}
	return ps, b
}

// tauSlackSeed encodes a min-τ scheduling LP in decodeSlackLP's format: τ
// (cost 1, unbounded) plus x_ij and y_ik in [0, 1], load rows
// Σ p·x + Σ s·y − τ ≤ 0, assignment rows Σ_i x_ij = 1 and one x_ij ≤ y_ik
// row per pair: most of those slacks stay basic.
func tauSlackSeed(rng *rand.Rand, m, n, K int) []byte {
	coef := func(a float64) byte { return byte(128 + 8*a) }
	x := func(i, j int) int { return 1 + i*n + j }
	y := func(i, k int) int { return 1 + m*n + i*K + k }
	out := []byte{byte(1 + m*n + m*K - 1), 0, 144}
	for q := 0; q < m*n+m*K; q++ {
		out = append(out, 32, 128)
	}
	nr := m + n + m*n
	out = append(out, byte(nr-1))
	class := make([]int, n)
	for j := range class {
		class[j] = rng.Intn(K)
	}
	for i := 0; i < m; i++ {
		out = append(out, byte(LE), byte(n+K))
		out = append(out, 0, coef(-1))
		for j := 0; j < n; j++ {
			out = append(out, byte(x(i, j)), coef(float64(1+rng.Intn(8))))
		}
		for k := 0; k < K; k++ {
			out = append(out, byte(y(i, k)), coef(float64(1+rng.Intn(4))))
		}
		out = append(out, 96)
	}
	for j := 0; j < n; j++ {
		out = append(out, byte(EQ), byte(m-1))
		for i := 0; i < m; i++ {
			out = append(out, byte(x(i, j)), coef(1))
		}
		out = append(out, 104)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out = append(out, byte(LE), 1, byte(x(i, j)), coef(1), byte(y(i, class[j])), coef(-1), 96)
		}
	}
	return out
}

// FuzzSparseMatchesTableau solves small LPs with many basic slacks on the
// sparse backend, cold and then warm after one SetRHS/SetVarUpper round,
// and compares each verdict with the dense tableau (Problem.Solve) of the
// same problem: the same status, and on an optimum the same objective
// within 1e-7 relative.
func FuzzSparseMatchesTableau(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][3]int{{2, 3, 2}, {2, 4, 2}, {3, 3, 2}, {2, 5, 2}} {
		f.Add(append(tauSlackSeed(rng, shape[0], shape[1], shape[2]), 1, 60, 3, 16))
	}
	for i := 0; i < 4; i++ {
		seed := make([]byte, 96)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, b := decodeSlackLP(data)
		be, err := NewBackend(Sparse, ps.build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			ref, err := ps.build().Solve()
			if err != nil {
				t.Fatalf("%s: tableau: %v", step, err)
			}
			got, err := be.Solve()
			if err != nil {
				t.Fatalf("%s: sparse: %v", step, err)
			}
			if got.Status != ref.Status {
				t.Fatalf("%s: status %v, tableau %v", step, got.Status, ref.Status)
			}
			if ref.Status == Optimal {
				if d := math.Abs(got.Objective - ref.Objective); d > 1e-7*math.Max(1, math.Abs(ref.Objective)) {
					t.Fatalf("%s: objective %v, tableau %v", step, got.Objective, ref.Objective)
				}
			}
		}
		check("cold")
		r, j := int(b.next())%len(ps.rows), int(b.next())%len(ps.ub)
		ps.rows[r].rhs = (float64(b.next()) - 96) / 8
		ps.ub[j] = float64(b.next()) / 32
		be.SetRHS(r, ps.rows[r].rhs)
		be.SetVarUpper(j, ps.ub[j])
		check("warm")
	})
}
