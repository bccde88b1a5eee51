package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkVUBState compares the VUB pricing state the pivots maintained in s
// with a rebuild from s's statuses and reduced costs: every slot's sign and
// d copy, and every key's rider count, signature and rider list. When they
// agree the rebuild leaves the state as it found it.
func checkVUBState(t *testing.T, step string, s *solverState) {
	t.Helper()
	if s.sf.nVUB == 0 {
		return
	}
	if s.vubStale {
		t.Fatalf("%s: VUB pricing state left stale by Solve", step)
	}
	ws := s.ws
	sgn, dv := slices.Clone(ws.vubSgn), slices.Clone(ws.vubD)
	riders, sig, lists := slices.Clone(ws.riders), slices.Clone(ws.keySig), slices.Clone(ws.riderX)
	s.rebuildVUB()
	for k, x := range s.sf.keyX {
		if sgn[k] != ws.vubSgn[k] {
			t.Fatalf("%s: slot %d (column %d) sign %d, rebuild %d", step, k, x, sgn[k], ws.vubSgn[k])
		}
		if math.Float64bits(dv[k]) != math.Float64bits(ws.vubD[k]) {
			t.Fatalf("%s: slot %d (column %d) d copy %v, rebuild %v", step, k, x, dv[k], ws.vubD[k])
		}
	}
	for i, y := range s.sf.keys {
		if riders[i] != ws.riders[i] || sig[i] != ws.keySig[i] {
			t.Fatalf("%s: key %d riders %d (signature %x), rebuild %d (%x)", step, y, riders[i], sig[i], ws.riders[i], ws.keySig[i])
		}
		lo := s.sf.keyPtr[y]
		if got, want := lists[lo:lo+riders[i]], ws.riderX[lo:lo+riders[i]]; !slices.Equal(got, want) {
			t.Fatalf("%s: key %d rider list %v, rebuild %v", step, y, got, want)
		}
	}
}

// anchorVUBSpec is the rounding relaxation's shape at M=10/N=100/K=8 with
// full eligibility: tauShapeSpec with its x ≤ y rows declared as variable
// upper bounds (110 rows, 1081 columns, 1000 bounded columns under 80
// keys). It also returns the x columns and their processing times.
func anchorVUBSpec(rng *rand.Rand) (*vubSpec, []int, []float64) {
	const m, n = 10, 100
	ps, xs, p := tauShapeSpec(rng, m, n, 8, 1)
	vs := &vubSpec{problemSpec: ps}
	for _, row := range ps.rows[m+n:] {
		vs.pairs = append(vs.pairs, [2]int{row.terms[0].Var, row.terms[1].Var})
	}
	ps.rows = ps.rows[:m+n]
	return vs, xs, p
}

// TestVUBStateMatchesRebuild checks the VUB pricing state after every
// solve of the anchor-shaped rounding LP: cold, then warm after rounds of
// clamps (SetVarUpper of every x by a makespan guess, as the rounding
// search sets them) and SetRHS on an assignment row. checkVUB runs the same
// check after every solve of FuzzVUBMatchesTableau, seed corpus included.
func TestVUBStateMatchesRebuild(t *testing.T) {
	vs, xs, p := anchorVUBSpec(rand.New(rand.NewSource(1)))
	be, err := NewBackend(Sparse, vs.build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := be.(*solverState)
	warmPivots := 0
	solve := func(step string) {
		t.Helper()
		sol, err := be.Solve()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if step == "warm" {
			warmPivots += sol.Iterations
		}
		checkVUBState(t, step, s)
	}
	solve("cold")
	// T = 35 leaves the LP infeasible: the dual simplex stops on a ray.
	for round, T := range []float64{60, 50, 45, 55, 35, 42, 100} {
		for q, x := range xs {
			u := 1.0
			if p[q] > T {
				u = 0
			}
			be.SetVarUpper(x, u)
		}
		switch round {
		case 2:
			be.SetRHS(12, 0) // a departed job's assignment row
		case 4:
			be.SetRHS(12, 1)
		}
		solve("warm")
	}
	if warmPivots == 0 {
		t.Fatal("no warm solve pivoted: the rounds check nothing the cold solve did not")
	}
}
