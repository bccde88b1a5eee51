package lp

import (
	"math"
	"math/rand"
	"testing"
)

// vubSpec is a problemSpec plus variable upper bounds x ≤ y.
type vubSpec struct {
	*problemSpec
	pairs [][2]int // {x, key}
}

func (vs *vubSpec) build() *Problem {
	p := vs.problemSpec.build()
	for _, pr := range vs.pairs {
		p.AddVUB(pr[0], pr[1])
	}
	return p
}

// decodeVUBLP reads a small LP with variable upper bounds: a key count
// (1–4) and per key an upper-bound byte (below 64: 0, below 128: 1, below
// 160: +∞, else b/64) and a cost byte; then a bounded-column count (1–12)
// and per bounded column its key, a switch byte (below 32: clamped to 0)
// and a cost byte; then rows as decodeSlackLP reads them (a row count 1–12,
// terms over every column, coefficients (b−128)/8). Cost bytes read as
// (b−128)/16, made nonnegative on a column that could grow without bound.
// The bytes after the LP's are returned unread.
func decodeVUBLP(data []byte) (*vubSpec, fuzzBytes) {
	b := fuzzBytes(data)
	vs := &vubSpec{problemSpec: &problemSpec{}}
	nk := 1 + int(b.next()%4)
	for k := 0; k < nk; k++ {
		var ub float64
		switch u := b.next(); {
		case u < 64:
			ub = 0
		case u < 128:
			ub = 1
		case u < 160:
			ub = math.Inf(1)
		default:
			ub = float64(u) / 64
		}
		c := (float64(b.next()) - 128) / 16
		if math.IsInf(ub, 1) {
			c = math.Abs(c) + 1 // outweighs any bounded column riding along
		}
		vs.ub = append(vs.ub, ub)
		vs.obj = append(vs.obj, c)
	}
	nx := 1 + int(b.next()%12)
	for q := 0; q < nx; q++ {
		key := int(b.next()) % nk
		ub := 1.0
		if b.next() < 32 {
			ub = 0
		}
		c := (float64(b.next()) - 128) / 16
		if math.IsInf(vs.ub[key], 1) {
			c = math.Max(c, -0.5)
		}
		vs.pairs = append(vs.pairs, [2]int{len(vs.ub), key})
		vs.ub = append(vs.ub, ub)
		vs.obj = append(vs.obj, c)
	}
	nc := len(vs.ub)
	nr := 1 + int(b.next()%12)
	for r := 0; r < nr; r++ {
		row := specRow{sense: Sense(b.next() % 3)}
		nt := 1 + int(b.next()%6)
		for q := 0; q < nt; q++ {
			j := int(b.next()) % nc
			a := (float64(b.next()) - 128) / 8
			if a == 0 {
				a = 0.125
			}
			row.terms = append(row.terms, Term{j, a})
		}
		row.rhs = (float64(b.next()) - 96) / 8
		vs.rows = append(vs.rows, row)
	}
	return vs, b
}

// vubSeed encodes a small assignment LP in decodeVUBLP's format: setups
// are the keys (upper bound 1) and assignments their bounded columns, with
// one assignment row Σ x = 1 per job and one budget row over five random
// columns; rng picks the coefficients, so the Ruiz scales differ and
// r ≠ 1.
func vubSeed(rng *rand.Rand, keys, jobs int) []byte {
	coef := func(a float64) byte { return byte(128 + 8*a) }
	out := []byte{byte(keys - 1)}
	for k := 0; k < keys; k++ {
		out = append(out, 96, byte(128+16*(1+rng.Intn(3))))
	}
	out = append(out, byte(keys*jobs-1))
	for q := 0; q < keys*jobs; q++ {
		out = append(out, byte(q%keys), 200, byte(128+rng.Intn(48)))
	}
	out = append(out, byte(jobs))
	for j := 0; j < jobs; j++ {
		out = append(out, byte(EQ), byte(keys))
		for k := 0; k < keys; k++ {
			out = append(out, byte(keys+j*keys+k), coef(1))
		}
		out = append(out, 104)
	}
	out = append(out, byte(LE), 5)
	for q := 0; q < 5; q++ {
		out = append(out, byte(rng.Intn(keys*(jobs+1))), coef(float64(1+rng.Intn(8))))
	}
	return append(out, 96+8*byte(1+rng.Intn(6)))
}

// checkVUB solves the spec on be and compares it with the tableau on the
// explicit rows: status, objective, and x ≤ y on the returned X. It also
// checks the maintained VUB pricing state against a rebuild.
func checkVUB(t *testing.T, step string, kind BackendKind, vs *vubSpec, be Backend) {
	t.Helper()
	ref, err := vs.build().Solve()
	if err != nil {
		t.Fatalf("%s: tableau: %v", step, err)
	}
	got, err := be.Solve()
	if err != nil {
		t.Fatalf("%s %s: %v", step, kind, err)
	}
	checkVUBState(t, step+" "+string(kind), be.(*solverState))
	if got.Status != ref.Status {
		t.Fatalf("%s %s: status %v, tableau %v", step, kind, got.Status, ref.Status)
	}
	if ref.Status != Optimal {
		return
	}
	if d := math.Abs(got.Objective - ref.Objective); d > 1e-9*math.Max(1, math.Abs(ref.Objective)) {
		t.Fatalf("%s %s: objective %v, tableau %v", step, kind, got.Objective, ref.Objective)
	}
	for _, pr := range vs.pairs {
		if x, y := got.X[pr[0]], got.X[pr[1]]; x > y {
			t.Fatalf("%s %s: x%d = %v above its key x%d = %v", step, kind, pr[0], x, pr[1], y)
		}
	}
}

// FuzzVUBMatchesTableau: small LPs with variable upper bounds solved with
// AddVUB on both backends, cold and warm after SetVarUpper and SetRHS,
// must agree with the tableau on the explicit x − y ≤ 0 rows.
func FuzzVUBMatchesTableau(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		f.Add(append(vubSeed(rng, 2+i%3, 2+i%4), 1, 0, 2, 40, 0, 9, byte(i), 3*byte(i)))
	}
	for i := 0; i < 60; i++ {
		seed := make([]byte, 40+rng.Intn(80))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, b := decodeVUBLP(data)
		for _, kind := range []BackendKind{Sparse, Dense} {
			vs := &vubSpec{vs.problemSpec.clone(), vs.pairs}
			b := b
			be, err := NewBackend(kind, vs.build(), nil)
			if err != nil {
				t.Fatal(err)
			}
			checkVUB(t, "cold", kind, vs, be)
			for round := 0; round < 2; round++ {
				j, r := int(b.next())%len(vs.ub), int(b.next())%len(vs.rows)
				switch u := b.next(); {
				case j >= len(vs.ub)-len(vs.pairs):
					vs.ub[j] = float64(u % 2) // a bounded column's switch
				case u < 96:
					vs.ub[j] = float64(u % 2)
				default:
					vs.ub[j] = float64(u) / 64
				}
				vs.rows[r].rhs = (float64(b.next()) - 96) / 8
				be.SetVarUpper(j, vs.ub[j])
				be.SetRHS(r, vs.rows[r].rhs)
				checkVUB(t, "warm", kind, vs, be)
			}
		}
	})
}

// TestBlandTakesLowestVUBColumn checks that Bland's rule offers every
// eligible VUB column, whatever its rate: the scan visits the columns key
// by key, not in ascending index order, so a rate prefilter would hide a
// lower-index column behind a higher-index one with a larger rate. Column 2
// (key 0, rate 2) is visited before column 1 (key 3, rate 0.5); Bland must
// still enter column 1.
func TestBlandTakesLowestVUBColumn(t *testing.T) {
	p := &Problem{}
	for j := 0; j < 4; j++ {
		p.AddVar(0, 1)
	}
	p.AddVUB(2, 0)
	p.AddVUB(1, 3)
	p.AddConstraint(LE, 1, Term{0, 1}, Term{1, 1}, Term{2, 1}, Term{3, 1})
	s := newSolverState(Sparse, p, NewWorkspace(), false)
	for j := range s.status {
		s.status[j], s.d[j] = basic, 0
	}
	s.status[1], s.d[1] = atLower, -0.5
	s.status[2], s.d[2] = atLower, -2
	if j, _, _ := s.chooseEntering(true); j != 1 {
		t.Errorf("Bland entered column %d, want 1 (the lowest eligible index)", j)
	}
	if j, _, _ := s.chooseEntering(false); j != 2 {
		t.Errorf("Dantzig entered column %d, want 2 (the largest rate)", j)
	}
}
