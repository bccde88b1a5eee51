package lp

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"strings"
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
	// A few innocent LE rows besides the contradiction.
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

// TestPresolveDifferentialCorpus is the acceptance differential for
// equilibration scaling: on random box/eq/mixed/infeasible LPs, every
// backend solved scaled must reproduce the verdict and objective of the
// same backend solved raw (WithPresolve(false)), the unscaled primal point
// must be feasible in the original problem, and the scaled basis must be
// transplantable into a fresh raw backend that then re-certifies the same
// verdict.
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
							t.Fatalf("scaled Solve: %v", err)
						}
						if sol.Status != ref.Status {
							t.Fatalf("status %v scaled, %v raw", sol.Status, ref.Status)
						}
						if sol.Presolve == nil {
							t.Fatal("Solution.Presolve not populated on the scaled path")
						}
						if sol.Status != Optimal {
							return true
						}
						if math.Abs(sol.Objective-ref.Objective) > 1e-6 {
							t.Fatalf("objective %v scaled, %v raw", sol.Objective, ref.Objective)
						}
						agree(t, ps, "scaled "+string(kind), ref, cloneSolution(sol))
						// The scaled basis must be accepted by a fresh raw
						// backend and re-certify the same optimum (cleanup
						// pivots allowed).
						if b := on.Basis(); b != nil {
							fresh, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
							if err != nil {
								t.Fatalf("NewBackend(fresh): %v", err)
							}
							if err := fresh.Warm(b); err == nil {
								ws, err := fresh.Solve()
								if err != nil {
									t.Fatalf("warm Solve from the scaled basis: %v", err)
								}
								if ws.Status != Optimal || math.Abs(ws.Objective-ref.Objective) > 1e-6 {
									t.Fatalf("scaled-basis warm solve: status %v obj %v, want optimal %v",
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
// shrink the load RHS — for 9 steps on a scheduling-shaped LP, scaled and
// raw side by side. Verdicts and objectives must match at every step, and
// every scaled solve must report its scaling.
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
					t.Fatalf("%s seed %d step %d: scaled: %v", kind, seed, step, err)
				}
				b, err := off.Solve()
				if err != nil {
					t.Fatalf("%s seed %d step %d: plain: %v", kind, seed, step, err)
				}
				if a.Status != b.Status {
					t.Fatalf("%s seed %d step %d (T=%g): scaled %v, plain %v",
						kind, seed, step, T, a.Status, b.Status)
				}
				if a.Status == Optimal && math.Abs(a.Objective-b.Objective) > 1e-6 {
					t.Fatalf("%s seed %d step %d: objective %v vs %v",
						kind, seed, step, a.Objective, b.Objective)
				}
				if a.Presolve == nil {
					t.Fatalf("%s seed %d step %d: scaled solve reported no scaling", kind, seed, step)
				}
				T *= 0.85
			}
		}
	}
}

// TestRuizScalingEquilibrates: on wildly unbalanced coefficients a scaled
// build must leave every row and column max |a| near 1.
func TestRuizScalingEquilibrates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, m := 12, 8
	p := &Problem{}
	for j := 0; j < n; j++ {
		p.AddVar(rng.NormFloat64(), 1+rng.Float64()*9)
	}
	for r := 0; r < m; r++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				mag := math.Pow(10, float64(rng.Intn(9))-4) // 1e-4 … 1e4
				terms = append(terms, Term{j, mag * (1 + rng.Float64())})
			}
		}
		sense := LE
		if r%2 == 1 {
			sense = GE // negated rows must equilibrate too
		}
		p.AddConstraint(sense, 1e3*(1+rng.Float64()), terms...)
	}
	var sf standardForm
	if passes := sf.build(p, NewWorkspace(), true); passes == 0 {
		t.Fatal("scaling did not run")
	}
	rmax := make([]float64, m)
	cmax := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
			a := math.Abs(sf.colVal[k])
			rmax[sf.colRow[k]] = math.Max(rmax[sf.colRow[k]], a)
			cmax[j] = math.Max(cmax[j], a)
		}
	}
	for r, v := range rmax {
		if v != 0 && (v < 0.5 || v > 2) {
			t.Fatalf("row %d max |a| = %v after scaling", r, v)
		}
	}
	for j, v := range cmax {
		if v != 0 && (v < 0.5 || v > 2) {
			t.Fatalf("col %d max |a| = %v after scaling", j, v)
		}
	}
	for r := 1; r < m; r += 2 {
		if sf.rowMul[r] >= 0 {
			t.Fatalf("GE row %d: multiplier %v lost its sign", r, sf.rowMul[r])
		}
	}
}

// TestScaledSolveUnscalesX: a scaled backend works on x' = x/C, but its X,
// objective, SetRHS and SetVarUpper are all in the Problem's coordinates.
func TestScaledSolveUnscalesX(t *testing.T) {
	// min −x0 − x1 over 1000·x0 ≤ 2000, 0.001·x1 ≥ −1, 0.001·x1 ≤ 0.003,
	// x ≤ 10: the optimum is x = (2, 3).
	ps := &problemSpec{
		obj: []float64{-1, -1},
		ub:  []float64{10, 10},
		rows: []specRow{
			{LE, 2000, []Term{{0, 1000}}},
			{GE, -1, []Term{{1, 0.001}}},
			{LE, 0.003, []Term{{1, 0.001}}},
		},
	}
	for _, kind := range []BackendKind{Dense, Sparse} {
		be, err := NewBackend(kind, ps.build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if C := be.(*solverState).sf.colScale; C == nil || C[0] == 1 || C[1] == 1 {
			t.Fatalf("%s: column scales %v, want both moved off 1", kind, C)
		}
		check := func(step string, want []float64) {
			t.Helper()
			sol, err := be.Solve()
			if err != nil {
				t.Fatalf("%s %s: %v", kind, step, err)
			}
			if sol.Status != Optimal {
				t.Fatalf("%s %s: status %v", kind, step, sol.Status)
			}
			obj := 0.0
			for j := range want {
				if math.Abs(sol.X[j]-want[j]) > 1e-9 {
					t.Fatalf("%s %s: x = %v, want %v", kind, step, sol.X, want)
				}
				obj -= want[j]
			}
			if math.Abs(sol.Objective-obj) > 1e-9 {
				t.Fatalf("%s %s: objective %v, want %v", kind, step, sol.Objective, obj)
			}
		}
		check("cold", []float64{2, 3})
		be.SetRHS(0, 500)
		check("SetRHS", []float64{0.5, 3})
		be.SetVarUpper(1, 1.5)
		check("SetVarUpper", []float64{0.5, 1.5})
	}
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// unit maps a byte onto [0, 1].
func (b *fuzzBytes) unit() float64 { return float64(b.next()) / 255 }

// fuzzLP is a small LP decoded from fuzz bytes, together with the point x0
// that makes it feasible by construction.
type fuzzLP struct {
	ps *problemSpec
	x0 []float64
}

// decodeFuzzLP reads, in order: the row and column counts (1–6 each); per
// column its upper bound in [0.5, 10], the position of x0 in [0, ub], its
// cost and a scale exponent v_j in [−1.5, 1.5]; per row its sense, a scale
// exponent u_r in [−1.5, 1.5], per column a presence/sign byte (0 absent,
// 1 positive, 2 negative, mod 3) and an entry byte w in [0, 1], and a
// margin byte. Entry (r, j) has magnitude 10^(u_r+v_j)·(1+w), kept within
// [10^-3, 10^3]: a badly scaled but well-posed matrix, the case
// equilibration is for. (Independent magnitudes over six decades inside
// one row make EQ chains whose float optimum is off by 10^-6 in any
// coordinates.) Inequality rows hold at x0 with slack ≥ 0.1; EQ rows hold
// at x0 exactly. A row left empty gets a unit entry so it constrains. The
// bytes after the LP's are returned unread.
func decodeFuzzLP(data []byte) (*fuzzLP, fuzzBytes) {
	b := fuzzBytes(data)
	nr, nc := 1+int(b.next()%6), 1+int(b.next()%6)
	fl := &fuzzLP{ps: &problemSpec{}, x0: make([]float64, nc)}
	exp := func() float64 { return 3*b.unit() - 1.5 }
	colExp := make([]float64, nc)
	for j := 0; j < nc; j++ {
		ub := 0.5 + 9.5*b.unit()
		fl.ps.ub = append(fl.ps.ub, ub)
		fl.x0[j] = ub * b.unit()
		fl.ps.obj = append(fl.ps.obj, (float64(b.next())-128)/32)
		colExp[j] = exp()
	}
	for r := 0; r < nr; r++ {
		row := specRow{sense: Sense(b.next() % 3)}
		rowExp := exp()
		for j := 0; j < nc; j++ {
			sign := b.next() % 3
			mag := math.Pow(10, rowExp+colExp[j]) * (1 + b.unit())
			mag = math.Min(1e3, math.Max(1e-3, mag))
			switch sign {
			case 1:
				row.terms = append(row.terms, Term{j, mag})
			case 2:
				row.terms = append(row.terms, Term{j, -mag})
			}
		}
		if len(row.terms) == 0 {
			row.terms = append(row.terms, Term{r % nc, 1})
		}
		row.rhs = fl.rowRHS(row, 0.1+b.unit())
		fl.ps.rows = append(fl.ps.rows, row)
	}
	return fl, b
}

// rowRHS returns the right-hand side that makes row hold at x0 with the
// given margin (none on an equality).
func (fl *fuzzLP) rowRHS(row specRow, margin float64) float64 {
	ax := 0.0
	for _, tm := range row.terms {
		ax += tm.Coef * fl.x0[tm.Var]
	}
	switch row.sense {
	case LE:
		return ax + margin
	case GE:
		return ax - margin
	}
	return ax
}

// encodeFuzzSpec writes a differential-corpus spec in decodeFuzzLP's
// format: its shape (capped at 6×6), senses, sign pattern, costs, bounds,
// and per row the magnitude of its largest coefficient, with each entry
// relative to it. x0 sits mid-box, infinite bounds become the widest
// finite one, and right-hand sides are rebuilt around x0.
func encodeFuzzSpec(ps *problemSpec) []byte {
	quant := func(v, lo, hi float64) byte {
		return byte(math.Round(255 * math.Min(1, math.Max(0, (v-lo)/(hi-lo)))))
	}
	nr, nc := min(len(ps.rows), 6), min(len(ps.obj), 6)
	out := []byte{byte(nr - 1), byte(nc - 1)}
	for j := 0; j < nc; j++ {
		out = append(out, quant(ps.ub[j], 0.5, 10), 128, quant(ps.obj[j]*32+128, 0, 255), 128)
	}
	for _, row := range ps.rows[:nr] {
		coef := make([]float64, nc)
		top := 0.0
		for _, tm := range row.terms {
			if tm.Var < nc {
				coef[tm.Var] += tm.Coef
			}
		}
		for _, c := range coef {
			top = math.Max(top, math.Abs(c))
		}
		// The largest entry decodes as 10^u·2, the others in proportion
		// (those below half of it at the floor 10^u).
		out = append(out, byte(row.sense), quant(math.Log10(math.Max(top, 1e-3)/2), -1.5, 1.5))
		for _, c := range coef {
			w := quant(2*math.Abs(c)/math.Max(top, 1e-300)-1, 0, 1)
			switch {
			case c > 0:
				out = append(out, 1, w)
			case c < 0:
				out = append(out, 2, w)
			default:
				out = append(out, 0, 0)
			}
		}
		out = append(out, 128)
	}
	return out
}

// fuzzViolation returns the first bound or row of ps that x misses by
// more than rel relative ("" when none): a bound relative to max(1, u), a
// row relative to its magnitude |b| + Σ|a_j·x_j|. A row is measured against
// its own magnitude, not against 1, so that a row of 10^-3 coefficients
// cannot hide a violation as large as its activity.
func fuzzViolation(ps *problemSpec, x []float64, rel float64) string {
	for j, v := range x {
		tol := rel * math.Max(1, ps.ub[j])
		if v < -tol || v > ps.ub[j]+tol {
			return fmt.Sprintf("x[%d] = %v outside [0, %v]", j, v, ps.ub[j])
		}
	}
	for r, row := range ps.rows {
		ax, mag := 0.0, math.Abs(row.rhs)
		for _, tm := range row.terms {
			ax += tm.Coef * x[tm.Var]
			mag += math.Abs(tm.Coef * x[tm.Var])
		}
		tol := rel*mag + 1e-15
		if (row.sense != GE && ax > row.rhs+tol) || (row.sense != LE && ax < row.rhs-tol) {
			return fmt.Sprintf("row %d (sense %d): a·x = %v against rhs %v", r, row.sense, ax, row.rhs)
		}
	}
	return ""
}

// exactOptimum checks basis b against ps in rational arithmetic. It
// returns the objective of the basis' vertex when that vertex is primal
// feasible and its reduced costs prove it optimal, and nil otherwise
// (including a singular basis). The float data convert to rationals
// exactly, so a non-nil result is the LP's true optimum.
func exactOptimum(ps *problemSpec, b *Basis) *big.Rat {
	m, nv := len(ps.rows), len(ps.obj)
	n := nv + m
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	// Standard-form columns in the original row orientation: row r reads
	// a_r·x + σ_r·s_r = b_r, with σ_r = −1 on a GE row.
	col := make([][]*big.Rat, n)
	for j := range col {
		col[j] = make([]*big.Rat, m)
		for r := range col[j] {
			col[j][r] = new(big.Rat)
		}
	}
	rhs := make([]*big.Rat, m)
	for r, row := range ps.rows {
		for _, tm := range row.terms {
			col[tm.Var][r].Add(col[tm.Var][r], rat(tm.Coef))
		}
		col[nv+r][r].SetInt64(1)
		if row.sense == GE {
			col[nv+r][r].SetInt64(-1)
		}
		rhs[r] = rat(row.rhs)
	}
	fixed := func(j int) bool { return (j < nv && ps.ub[j] == 0) || (j >= nv && ps.rows[j-nv].sense == EQ) }
	x := make([]*big.Rat, n)
	for j := range x {
		x[j] = new(big.Rat)
		if b.Status[j] == NonbasicUpper {
			switch {
			case j < nv:
				x[j] = rat(ps.ub[j])
			case !fixed(j):
				return nil // an inequality slack has no finite upper bound
			}
		}
	}
	// B·x_B = b − N·x_N, and Bᵀ·y = c_B.
	B := make([][]*big.Rat, m)
	Bt := make([][]*big.Rat, m)
	for r := range B {
		B[r] = make([]*big.Rat, m+1)
		Bt[r] = make([]*big.Rat, m+1)
		B[r][m] = new(big.Rat).Set(rhs[r])
		for j := 0; j < n; j++ {
			if b.Status[j] != BasicVar && x[j].Sign() != 0 {
				B[r][m].Sub(B[r][m], new(big.Rat).Mul(col[j][r], x[j]))
			}
		}
		Bt[r][m] = new(big.Rat)
		if c := b.Cols[r]; c < nv {
			Bt[r][m] = rat(ps.obj[c])
		}
		for q, c := range b.Cols {
			B[r][q] = new(big.Rat).Set(col[c][r])
			Bt[r][q] = new(big.Rat).Set(col[b.Cols[r]][q])
		}
	}
	xB, y := solveRat(B), solveRat(Bt)
	if xB == nil || y == nil {
		return nil
	}
	for q, c := range b.Cols {
		x[c] = xB[q]
		if x[c].Sign() < 0 || (c < nv && x[c].Cmp(rat(ps.ub[c])) > 0) || (fixed(c) && x[c].Sign() != 0) {
			return nil // primal infeasible
		}
	}
	obj := new(big.Rat)
	for j := 0; j < n; j++ {
		cj := new(big.Rat)
		if j < nv {
			cj = rat(ps.obj[j])
			obj.Add(obj, new(big.Rat).Mul(cj, x[j]))
		}
		if b.Status[j] == BasicVar || fixed(j) {
			continue
		}
		d := new(big.Rat).Set(cj)
		for r := 0; r < m; r++ {
			d.Sub(d, new(big.Rat).Mul(y[r], col[j][r]))
		}
		if (b.Status[j] == NonbasicLower && d.Sign() < 0) || (b.Status[j] == NonbasicUpper && d.Sign() > 0) {
			return nil // a reduced cost proves the vertex improvable
		}
	}
	return obj
}

// solveRat solves the square system in the augmented matrix a (last column
// the right-hand side) by Gaussian elimination, or returns nil when it is
// singular. a is overwritten.
func solveRat(a [][]*big.Rat) []*big.Rat {
	m := len(a)
	for k := 0; k < m; k++ {
		p := k
		for p < m && a[p][k].Sign() == 0 {
			p++
		}
		if p == m {
			return nil
		}
		a[k], a[p] = a[p], a[k]
		for r := 0; r < m; r++ {
			if r == k || a[r][k].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Quo(a[r][k], a[k][k])
			for c := k; c <= m; c++ {
				a[r][c].Sub(a[r][c], new(big.Rat).Mul(f, a[k][c]))
			}
		}
	}
	out := make([]*big.Rat, m)
	for k := range out {
		out[k] = new(big.Rat).Quo(a[k][m], a[k][k])
	}
	return out
}

// checkScaledAgainstRaw solves both backends from their current state. The
// scaled X must satisfy the original rows and bounds within 1e-6 relative.
// Whenever either final basis is proven optimal in rational arithmetic,
// the scaled objective must lie within 1e-7·max(1, |obj|) of that exact
// optimum, and when both are proven their optima must be equal. The raw
// solve's own objective is not compared: its absolute 1e-7 tolerances, on
// rows of 10^-3 coefficients or EQ chains spanning six decades, can accept
// a basis that fails the proof.
func checkScaledAgainstRaw(t *testing.T, step string, ps *problemSpec, scaled, raw Backend) {
	t.Helper()
	want, err := raw.Solve()
	if err != nil {
		t.Fatalf("%s: raw: %v", step, err)
	}
	got, err := scaled.Solve()
	if err != nil {
		t.Fatalf("%s: scaled: %v", step, err)
	}
	if want.Status != Optimal || got.Status != Optimal {
		t.Fatalf("%s: status raw %v, scaled %v; the LP is feasible and bounded by construction", step, want.Status, got.Status)
	}
	if v := fuzzViolation(ps, got.X, 1e-6); v != "" {
		t.Fatalf("%s: scaled X violates the problem: %s", step, v)
	}
	opt := exactOptimum(ps, scaled.Basis())
	optRaw := exactOptimum(ps, raw.Basis())
	if opt == nil {
		opt = optRaw
	} else if optRaw != nil && opt.Cmp(optRaw) != 0 {
		t.Fatalf("%s: two proven optima %v and %v", step, opt.FloatString(12), optRaw.FloatString(12))
	}
	if opt == nil {
		return
	}
	o, _ := opt.Float64()
	tol := 1e-7 * math.Max(1, math.Abs(o))
	if math.Abs(got.Objective-o) > tol {
		t.Fatalf("%s: scaled objective %v, proven optimum %v", step, got.Objective, o)
	}
}

// FuzzScaledMatchesRaw solves small feasible LPs with coefficients spread
// over six decades on the sparse backend, scaled and raw: both must reach
// an optimum, the scaled one must match the optimum that either final
// basis proves exactly, and the scaled X must satisfy the original problem.
// Then one SetRHS/SetVarUpper round that keeps x0 feasible is applied to
// both and re-solved warm, under the same checks.
func FuzzScaledMatchesRaw(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		for _, gen := range []func(*rand.Rand) *problemSpec{randomBoxSpec, randomEqSpec, randomMixedSpec} {
			f.Add(append(encodeFuzzSpec(gen(rng)), byte(i), 96, byte(3*i), 200))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, b := decodeFuzzLP(data)
		ps := fl.ps
		scaled, err := NewBackend(Sparse, ps.build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := NewBackend(Sparse, ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		checkScaledAgainstRaw(t, "cold", ps, scaled, raw)

		// The mutation bytes follow the LP's own.
		j, r := int(b.next())%len(ps.ub), int(b.next())%len(ps.rows)
		ps.ub[j] = math.Max(fl.x0[j], ps.ub[j]*b.unit())
		ps.rows[r].rhs = fl.rowRHS(ps.rows[r], 0.1+b.unit())
		for _, be := range []Backend{scaled, raw} {
			be.SetVarUpper(j, ps.ub[j])
			be.SetRHS(r, ps.rows[r].rhs)
		}
		checkScaledAgainstRaw(t, "warm", ps, scaled, raw)
	})
}

// TestRawSolveReportsExactVertex: on the fuzz seed f82cea4d61d78b41
// (all-EQ rows of 0.016 coefficients) the pivots' incrementally updated
// basic values drift from the final basis' vertex by 6.5e-7 relative in
// the objective. The reported X and objective must be those of the basis
// the solve stops on, on both inverses, raw.
func TestRawSolveReportsExactVertex(t *testing.T) {
	file, err := os.ReadFile("testdata/fuzz/FuzzScaledMatchesRaw/f82cea4d61d78b41")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(file), "\n")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	fl, _ := decodeFuzzLP([]byte(data))
	for _, kind := range []BackendKind{Dense, Sparse} {
		be, err := NewBackend(kind, fl.ps.build(), nil, WithPresolve(false))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := be.Solve()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status %v; the LP is feasible and bounded by construction", kind, sol.Status)
		}
		opt := exactOptimum(fl.ps, be.Basis())
		if opt == nil {
			t.Fatalf("%s: final basis is not proven optimal", kind)
		}
		o, _ := opt.Float64()
		if d := math.Abs(sol.Objective - o); d > 1e-9*math.Max(1, math.Abs(o)) {
			t.Errorf("%s: objective %.12g, exact optimum of the final basis %.12g (rel. err %.3g)", kind, sol.Objective, o, d/math.Max(1, math.Abs(o)))
		}
	}
}
