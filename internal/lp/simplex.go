package lp

import (
	"fmt"
	"math"
)

const (
	// tol is the feasibility/optimality tolerance of the solver.
	tol = 1e-8
	// pivTol is the minimum magnitude of an acceptable pivot element.
	pivTol = 1e-9
	// stallLimit is the number of non-improving pivots after which the
	// solver switches from Dantzig pricing to Bland's rule.
	stallLimit = 200
)

// nonbasic status of a column.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
)

// tableau is the working state of the bounded-variable simplex method.
type tableau struct {
	m, n   int         // rows, total columns (structural + slack + artificial)
	a      [][]float64 // m×n constraint matrix in current basis coordinates
	xB     []float64   // values of the basic variables, per row
	basis  []int       // column basic in each row
	status []varStatus
	ub     []float64 // per-column upper bound
	cost   []float64 // reduced-cost row for the current phase
	z      float64   // current objective value (for stall detection)

	nStruct int // number of structural columns
	nArt    int // number of artificial columns (suffix of the columns)

	iters    int
	bland    bool
	stall    int
	hitLimit bool
}

// Solve runs the two-phase tableau simplex method and returns the
// solution. It returns an error only for internal failures (iteration
// explosion), which indicates a solver bug rather than a property of the
// input. It shares no code with the Backend solvers and is kept as the
// tests' independent reference; production solves use NewBackend.
func (p *Problem) Solve() (*Solution, error) {
	SolveGauge.enter()
	defer SolveGauge.exit()
	p = p.withVUBRows()
	t := newTableau(p)
	// Phase 1: minimize the sum of artificials.
	if t.nArt > 0 {
		t.setPhaseCost(t.phase1Cost())
		if st := t.iterate(); st != Optimal {
			// Phase 1 is bounded below by 0; Unbounded cannot happen.
			return nil, fmt.Errorf("lp: phase 1 ended with status %v", st)
		}
		if t.hitLimit {
			return nil, fmt.Errorf("lp: simplex iteration limit reached in phase 1 (%d pivots)", t.iters)
		}
		if t.objective() > 1e-6 {
			return &Solution{Status: Infeasible, Iterations: t.iters}, nil
		}
		t.dropArtificials()
	}
	// Phase 2: minimize the real objective.
	t.setPhaseCost(t.phase2Cost(p))
	st := t.iterate()
	if t.hitLimit {
		return nil, fmt.Errorf("lp: simplex iteration limit reached (%d pivots)", t.iters)
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Iterations: t.iters}, nil
	}
	x := t.structuralValues()
	obj := 0.0
	for j, c := range p.obj {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: t.iters}, nil
}

// newTableau builds the initial tableau: all rows converted to equalities
// with slacks, rhs made non-negative, artificials added where no natural
// identity column exists. Structural variables start nonbasic at lower
// bound (0), so the initial basic solution is x_B = b ≥ 0.
func newTableau(p *Problem) *tableau {
	m := len(p.rows)
	nStruct := len(p.obj)
	// Column layout: [0,nStruct) structural, then one slack per LE/GE row,
	// then artificials for rows that need them.
	type rowPlan struct {
		sign     float64 // +1 or -1 applied to the whole row
		slackCol int     // -1 if none
		slackCoe float64
		artCol   int // -1 if none
	}
	plans := make([]rowPlan, m)
	next := nStruct
	for r, row := range p.rows {
		pl := rowPlan{sign: 1, slackCol: -1, artCol: -1}
		sense := row.sense
		if row.rhs < 0 {
			pl.sign = -1
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		switch sense {
		case LE:
			pl.slackCol, pl.slackCoe = next, 1
			next++
		case GE:
			pl.slackCol, pl.slackCoe = next, -1
			next++
		}
		plans[r] = pl
	}
	nArt := 0
	for r := range p.rows {
		// LE rows (after sign fix) have a +1 slack that can start basic.
		// GE and EQ rows need an artificial.
		needArt := plans[r].slackCol == -1 || plans[r].slackCoe < 0
		if needArt {
			plans[r].artCol = next
			next++
			nArt++
		}
	}
	n := next
	t := &tableau{
		m: m, n: n,
		a:       make([][]float64, m),
		xB:      make([]float64, m),
		basis:   make([]int, m),
		status:  make([]varStatus, n),
		ub:      make([]float64, n),
		nStruct: nStruct,
		nArt:    nArt,
	}
	for j := 0; j < nStruct; j++ {
		t.ub[j] = p.ub[j]
	}
	for j := nStruct; j < n; j++ {
		t.ub[j] = math.Inf(1) // slacks and artificials are unbounded above
	}
	for r := range p.rows {
		t.a[r] = make([]float64, n)
	}
	for k, r := range p.tRow {
		t.a[r][p.tVar[k]] += plans[r].sign * p.tCoef[k]
	}
	for r, row := range p.rows {
		pl := plans[r]
		rhs := pl.sign * row.rhs
		if pl.slackCol >= 0 {
			t.a[r][pl.slackCol] = pl.slackCoe
		}
		if pl.artCol >= 0 {
			t.a[r][pl.artCol] = 1
			t.basis[r] = pl.artCol
		} else {
			t.basis[r] = pl.slackCol
		}
		t.xB[r] = rhs
		t.status[t.basis[r]] = basic
	}
	return t
}

// phase1Cost is 1 on artificial columns, 0 elsewhere.
func (t *tableau) phase1Cost() []float64 {
	c := make([]float64, t.n)
	for j := t.n - t.nArt; j < t.n; j++ {
		c[j] = 1
	}
	return c
}

// phase2Cost is the structural objective, with a prohibitive cost on any
// remaining artificial column so it can never re-enter.
func (t *tableau) phase2Cost(p *Problem) []float64 {
	c := make([]float64, t.n)
	copy(c, p.obj)
	for j := t.n - t.nArt; j < t.n; j++ {
		if t.ub[j] != 0 {
			c[j] = 1e30 // dropArtificials pins ub to 0, this is belt-and-braces
		}
	}
	return c
}

// setPhaseCost installs a cost vector and prices out the basic columns so
// that reduced costs of basic variables are zero.
func (t *tableau) setPhaseCost(c []float64) {
	t.cost = c
	for r := 0; r < t.m; r++ {
		cb := t.cost[t.basis[r]]
		if cb == 0 {
			continue
		}
		row := t.a[r]
		for j := 0; j < t.n; j++ {
			t.cost[j] -= cb * row[j]
		}
		// Pricing introduces rounding noise on the basic column itself.
		t.cost[t.basis[r]] = 0
	}
	t.z = 0 // tracked incrementally; only changes matter
	t.stall = 0
	t.bland = false
}

// objective returns the phase-1 infeasibility measure: the total value
// carried by artificial variables (all artificials are basic or at their
// lower/pinned bound, so summing basic artificial values suffices).
func (t *tableau) objective() float64 {
	sum := 0.0
	for r := 0; r < t.m; r++ {
		if t.basis[r] >= t.n-t.nArt {
			sum += t.xB[r]
		}
	}
	return sum
}

// iterate runs simplex pivots until optimality or unboundedness.
func (t *tableau) iterate() Status {
	maxIters := 200*(t.m+t.n) + 20000
	for {
		j := t.chooseEntering()
		if j < 0 {
			return Optimal
		}
		prevZ := t.z
		if st := t.pivot(j); st != Optimal {
			return st
		}
		t.iters++
		if t.iters > maxIters {
			t.hitLimit = true
			return Optimal
		}
		if t.z < prevZ-tol {
			t.stall = 0
		} else {
			t.stall++
			if t.stall > stallLimit {
				t.bland = true
			}
		}
	}
}

// chooseEntering picks a nonbasic column whose move improves the objective:
// at lower bound with negative reduced cost, or at upper bound with positive
// reduced cost. Returns -1 at optimality.
func (t *tableau) chooseEntering() int {
	best, bestScore := -1, tol
	for j := 0; j < t.n; j++ {
		switch t.status[j] {
		case atLower:
			if d := -t.cost[j]; d > bestScore {
				if t.bland {
					return j
				}
				best, bestScore = j, d
			}
		case atUpper:
			if d := t.cost[j]; d > bestScore {
				if t.bland {
					return j
				}
				best, bestScore = j, d
			}
		}
	}
	return best
}

// pivot moves entering column j from its bound. dir=+1 when increasing from
// the lower bound, -1 when decreasing from the upper bound. It performs the
// bounded-variable ratio test (leaving at lower bound, leaving at upper
// bound, or a bound flip of j itself) and updates the tableau.
func (t *tableau) pivot(j int) Status {
	dir := 1.0
	if t.status[j] == atUpper {
		dir = -1
	}
	// Max step before some basic variable hits one of its bounds.
	limit := math.Inf(1)
	leave := -1
	leaveAt := atLower
	for r := 0; r < t.m; r++ {
		arj := t.a[r][j] * dir
		var ratio float64
		var at varStatus
		switch {
		case arj > pivTol:
			// Basic variable decreases toward 0.
			ratio, at = t.xB[r]/arj, atLower
		case arj < -pivTol:
			// Basic variable increases toward its upper bound.
			ubB := t.ub[t.basis[r]]
			if math.IsInf(ubB, 1) {
				continue
			}
			ratio, at = (ubB-t.xB[r])/(-arj), atUpper
		default:
			continue
		}
		if ratio < 0 {
			ratio = 0 // degeneracy: a basic variable slightly past its bound
		}
		// Strictly smaller ratio wins; on (near-)ties prefer the smallest
		// basic index, which combined with Bland pricing prevents cycling.
		if ratio < limit-tol || (ratio < limit+tol && leave >= 0 && t.basis[r] < t.basis[leave]) {
			limit, leave, leaveAt = ratio, r, at
		}
	}
	// Bound flip: j travels the full distance between its bounds.
	if u := t.ub[j]; u < limit {
		// Flip without changing the basis.
		for r := 0; r < t.m; r++ {
			t.xB[r] -= t.a[r][j] * dir * u
		}
		t.z += t.cost[j] * dir * u
		if t.status[j] == atLower {
			t.status[j] = atUpper
		} else {
			t.status[j] = atLower
		}
		return Optimal
	}
	if leave < 0 {
		return Unbounded
	}
	// Update basic values for a step of size limit.
	t.z += t.cost[j] * dir * limit
	for r := 0; r < t.m; r++ {
		t.xB[r] -= t.a[r][j] * dir * limit
	}
	enterVal := limit
	if t.status[j] == atUpper {
		enterVal = t.ub[j] - limit
	}
	// The leaving variable exits exactly at a bound; clamp away rounding.
	old := t.basis[leave]
	if leaveAt == atLower {
		t.status[old] = atLower
	} else {
		t.status[old] = atUpper
	}
	t.basis[leave] = j
	t.status[j] = basic
	t.xB[leave] = enterVal

	// Gaussian elimination to restore the identity column for j.
	prow := t.a[leave]
	pv := prow[j]
	inv := 1 / pv
	for c := 0; c < t.n; c++ {
		prow[c] *= inv
	}
	prow[j] = 1 // exact
	for r := 0; r < t.m; r++ {
		if r == leave {
			continue
		}
		f := t.a[r][j]
		if f == 0 {
			continue
		}
		row := t.a[r]
		for c := 0; c < t.n; c++ {
			row[c] -= f * prow[c]
		}
		row[j] = 0 // exact
	}
	if f := t.cost[j]; f != 0 {
		for c := 0; c < t.n; c++ {
			t.cost[c] -= f * prow[c]
		}
		t.cost[j] = 0
	}
	return Optimal
}

// dropArtificials removes artificial columns from consideration after a
// successful phase 1: basic artificials (necessarily at value ~0) are pivoted
// out where possible, and every artificial's upper bound is pinned to 0 so
// none can ever carry value again.
func (t *tableau) dropArtificials() {
	artStart := t.n - t.nArt
	for r := 0; r < t.m; r++ {
		if t.basis[r] < artStart {
			continue
		}
		// Try to pivot the artificial out in favor of a non-artificial
		// column with a usable pivot element in this row. Only columns at
		// their lower bound qualify: forcePivot keeps the incoming
		// variable's value at the artificial's (zero), which would be
		// wrong for a column currently sitting at a nonzero upper bound.
		done := false
		for j := 0; j < artStart && !done; j++ {
			if t.status[j] != atLower {
				continue
			}
			if math.Abs(t.a[r][j]) > 1e-7 {
				t.forcePivot(r, j)
				done = true
			}
		}
		// If no pivot exists the row is redundant (all-zero over real
		// columns); the artificial stays basic at value 0, harmless since
		// its bound is pinned below.
	}
	for j := artStart; j < t.n; j++ {
		t.ub[j] = 0
		if t.status[j] == atUpper {
			t.status[j] = atLower
		}
	}
}

// forcePivot performs a degenerate pivot bringing column j into the basis at
// row r. Used only to evict zero-valued artificials, so the basic values do
// not change beyond the swap itself.
func (t *tableau) forcePivot(r, j int) {
	old := t.basis[r]
	t.status[old] = atLower
	t.basis[r] = j
	t.status[j] = basic
	// xB[r] keeps its (zero) value: the incoming variable assumes it.
	prow := t.a[r]
	pv := prow[j]
	inv := 1 / pv
	for c := 0; c < t.n; c++ {
		prow[c] *= inv
	}
	prow[j] = 1
	t.xB[r] *= inv
	for rr := 0; rr < t.m; rr++ {
		if rr == r {
			continue
		}
		f := t.a[rr][j]
		if f == 0 {
			continue
		}
		row := t.a[rr]
		for c := 0; c < t.n; c++ {
			row[c] -= f * prow[c]
		}
		row[j] = 0
		t.xB[rr] -= f * t.xB[r]
	}
	if f := t.cost[j]; f != 0 {
		for c := 0; c < t.n; c++ {
			t.cost[c] -= f * prow[c]
		}
		t.cost[j] = 0
	}
}

// structuralValues extracts the structural part of the current basic
// solution, clamping small negatives introduced by floating point.
func (t *tableau) structuralValues() []float64 {
	x := make([]float64, t.nStruct)
	for j := 0; j < t.nStruct; j++ {
		switch t.status[j] {
		case atUpper:
			x[j] = t.ub[j]
		default:
			x[j] = 0
		}
	}
	for r := 0; r < t.m; r++ {
		if b := t.basis[r]; b < t.nStruct {
			v := t.xB[r]
			if v < 0 && v > -1e-6 {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}
