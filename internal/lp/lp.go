// Package lp implements a dense, bounded-variable, two-phase primal simplex
// solver for linear programs in the form
//
//	minimize    c·x
//	subject to  a_r·x {≤,=,≥} b_r    for every constraint r
//	            0 ≤ x_j ≤ u_j        for every variable j (u_j may be +∞)
//
// The Go ecosystem has no production pure-Go LP solver and this module is
// restricted to the standard library, so the solver is built from scratch.
// It is the substrate for the LP relaxations used by the paper's unrelated-
// machines algorithms: the relaxation of ILP-UM (Section 3.1) and
// LP-RelaxedRA (Section 3.3). Because it is a simplex method, optimal
// solutions are basic feasible solutions, i.e. extreme points of the
// polytope — exactly the property the pseudoforest rounding of Section 3.3
// relies on.
//
// The implementation uses Dantzig pricing with an automatic switch to
// Bland's rule when the objective stalls, which guarantees termination.
package lp

import (
	"fmt"
	"math"
)

// Sense is the relation of a constraint row.
type Sense int

const (
	// LE is a_r·x ≤ b_r.
	LE Sense = iota
	// GE is a_r·x ≥ b_r.
	GE
	// EQ is a_r·x = b_r.
	EQ
)

// Status reports the outcome of Solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded below.
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Problem is a linear program under construction. The zero value is an empty
// problem ready for AddVar/AddConstraint.
//
// Coefficients are stored as append-only (row, var, coef) triplets in three
// flat parallel slices rather than per-row term maps: AddConstraint is pure
// appends (amortized zero allocations per row), and accumulation of repeated
// variables is deferred to the consumers, all of which build additively — the
// dense tableau adds coefficients into cells, and the backends' CSC form
// tolerates duplicate (row, var) entries because every access is a scatter or
// a dot product.
type Problem struct {
	obj  []float64
	ub   []float64
	rows []rowMeta

	// Coefficient triplets, in AddConstraint order: entry t is the
	// coefficient tCoef[t] of variable tVar[t] in row tRow[t].
	tRow  []int32
	tVar  []int32
	tCoef []float64
}

// rowMeta is the per-constraint metadata (the coefficients live in the
// problem-wide triplet slices).
type rowMeta struct {
	sense Sense
	rhs   float64
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddVar appends a variable with objective coefficient obj and upper bound
// upper (use math.Inf(1) for an unbounded variable) and returns its index.
// All variables have lower bound 0.
func (p *Problem) AddVar(obj, upper float64) int {
	if upper < 0 || math.IsNaN(upper) || math.IsNaN(obj) || math.IsInf(obj, 0) {
		panic(fmt.Sprintf("lp: invalid variable (obj=%v, upper=%v)", obj, upper))
	}
	p.obj = append(p.obj, obj)
	p.ub = append(p.ub, upper)
	return len(p.obj) - 1
}

// AddConstraint appends the constraint Σ terms {≤,=,≥} rhs. Terms may repeat
// a variable; coefficients are accumulated (additively, by the consumers of
// the triplet storage). Referencing a variable that has not been added panics
// (a construction bug, not an input condition).
func (p *Problem) AddConstraint(sense Sense, rhs float64, terms ...Term) {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: invalid rhs %v", rhs))
	}
	r := int32(len(p.rows))
	p.rows = append(p.rows, rowMeta{sense: sense, rhs: rhs})
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			panic(fmt.Sprintf("lp: invalid coefficient %v", t.Coef))
		}
		if t.Coef == 0 {
			continue
		}
		p.tRow = append(p.tRow, r)
		p.tVar = append(p.tVar, int32(t.Var))
		p.tCoef = append(p.tCoef, t.Coef)
	}
}

// AddTerm appends one coefficient triplet to an existing constraint row.
// Because the triplet storage is additive, a repeated (row, var) pair
// accumulates onto the earlier coefficient — AddTerm(r, {v, Δ}) is therefore
// also the in-place idiom for changing an existing coefficient by Δ without
// rewriting the row. Backends built before the call do not observe it; the
// incremental re-solve pipeline extends a retained Problem this way and then
// rebuilds its backend, transplanting the old basis (see ExtendBasis).
func (p *Problem) AddTerm(row int, t Term) {
	if row < 0 || row >= len(p.rows) {
		panic(fmt.Sprintf("lp: AddTerm references unknown row %d", row))
	}
	if t.Var < 0 || t.Var >= len(p.obj) {
		panic(fmt.Sprintf("lp: AddTerm references unknown variable %d", t.Var))
	}
	if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
		panic(fmt.Sprintf("lp: invalid coefficient %v", t.Coef))
	}
	if t.Coef == 0 {
		return
	}
	p.tRow = append(p.tRow, int32(row))
	p.tVar = append(p.tVar, int32(t.Var))
	p.tCoef = append(p.tCoef, t.Coef)
}

// Solution is the result of Solve.
type Solution struct {
	// Status is Optimal, Infeasible or Unbounded.
	Status Status
	// X holds the values of the structural variables (valid when Optimal).
	X []float64
	// Objective is c·X (valid when Optimal).
	Objective float64
	// Iterations is the total number of simplex pivots performed.
	Iterations int
	// Refactors is the number of basis refactorizations the sparse
	// backend ran since the previous Solve returned (periodic eta-file
	// rebuilds during the solve plus a Warm transplant's). The dense
	// inverse never refactorizes mid-solve, so only Warm counts there.
	Refactors int
	// Presolve reports what the reduction pipeline did for this backend,
	// when the solve ran through one (nil otherwise). See WithPresolve.
	Presolve *PresolveInfo
	// FromStart reports that this solve began at the start basis given to
	// NewBackend (WithStart) rather than at the all-slack basis. It is
	// false when no start was given, when the start could not be used
	// (presolve reduced the problem, or the basis was rejected or
	// singular), and on every later solve.
	FromStart bool
}

// Value returns the value of variable v in the solution.
func (s *Solution) Value(v int) float64 { return s.X[v] }
