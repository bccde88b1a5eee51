package lp

import (
	"math"
	"math/rand"
	"testing"
)

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
