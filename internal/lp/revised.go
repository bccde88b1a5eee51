package lp

import (
	"fmt"
	"math"
	"slices"
)

// solverState is the revised simplex core shared by every Backend: a
// bounded-variable simplex method over the canonical standard form, driven
// through a basisRep (dense explicit inverse or sparse eta file). It keeps
// the basis, the nonbasic statuses and the factorization alive between
// Solve calls, which is what makes warm re-solving after SetRHS /
// SetVarUpper mutations cheap:
//
//   - a cold Solve runs a bound-violation composite phase 1 (no artificial
//     variables: the all-slack basis is always factorizable and basics are
//     simply allowed to start outside their bounds) followed by a primal
//     phase 2;
//   - a cold Solve may instead begin at a start basis handed over at
//     construction (WithStart; the rounding relaxation passes the greedy
//     schedule's vertex). A primal-feasible start leaves phase 1 nothing
//     to do; a singular one is dropped and the solve runs from the slacks;
//   - a warm Solve after mutations re-prices the unchanged reduced costs,
//     and when the previous optimal basis is still dual feasible repairs
//     primal feasibility with the dual simplex — typically a handful of
//     pivots instead of a full two-phase solve.
//
// Phase 2 and the dual simplex keep the reduced costs d current across
// pivots instead of re-pricing every column from fresh duals: at a basis
// change with entering column q in row r, d_j −= θ·α_rj with θ = d_q/α_rq
// and α_r = (e_rᵀB⁻¹)·[A I] the pivot row. The pivot row is accumulated from
// a row-wise (CSR) copy of the standard form over the rows where e_rᵀB⁻¹ is
// nonzero only, a small fraction of them on the scheduling LPs. d is
// recomputed from scratch after every refactorization, every 256 pivots,
// and once more before Optimal is returned; phase 1 prices from fresh
// duals, because its costs change whenever a basic variable turns feasible.
//
// Each pivot and each refactorization placement works on the entering
// column w = B⁻¹a through its pattern: ftranColumn returns the rows w may be
// nonzero on, and the ratio test, the xB update, the eta update and the
// refactorization's pivot search loop over that list instead of all m
// rows. ftranColumn sets and clears the Workspace marks that build the
// pattern itself, so no caller ever sees a set mark.
//
// On the sparse backend the rows are partitioned. A row whose own slack is
// basic in it is an implicit-slack row (the set S, every other row is in
// W); the eta file factors only the W block and holds no entry in an S row
// (see etaFile). ftranColumn and ftran fill the S rows in from the matrix
// after the eta file's ops, and btran and btranUnit fold them into W first.
// A refactorization resets S to the rows it places a slack in; a pivot whose
// leaving row is in S appends a row eta and moves the row to W, so S only
// shrinks in between. On the scheduling LPs most rows are x ≤ y rows whose
// slack stays basic, and no FTRAN or BTRAN replays them. The dense inverse
// keeps S empty.
//
// Dantzig pricing switches to Bland's rule after a stall, as in the legacy
// tableau solver, so degenerate instances cannot cycle forever.
type solverState struct {
	sf  standardForm
	inv basisRep
	ws  *Workspace

	basis  []int       // column basic in each row
	status []varStatus // per column
	xB     []float64   // values of the basic variables (ws-backed)

	// The row partition (ws-backed). implicit marks the rows of S and
	// nImplicit counts them; partitioned is false on the dense backend,
	// which keeps S empty. wRows lists the W rows in ascending order. pos[j]
	// is the row structural column j is basic in, −1 when it is nonbasic:
	// the fold reaches the W rows of a basic column through it. colW is the
	// number of W rows at the head of the pattern ftranColumn returned
	// last; the S rows follow them.
	partitioned bool
	implicit    []bool
	nImplicit   int
	pos         []int32
	wRows       []int32
	colW        int

	// d holds the phase-2 reduced costs (ws-backed, 0 on basic columns)
	// and dAge the pivots since they were last recomputed; −1 means d is
	// not current for the basis (phase 1 uses the buffer for its own
	// costs). alpha and mark are the pivot row's scratch: zero/false
	// outside a pivotRow call.
	d     []float64
	dAge  int
	alpha []float64
	mark  []bool

	sol       Solution
	iters     int  // pivots in the current Solve call
	refactors int  // refactorizations since the previous Solve returned
	dualOK    bool // the current basis is known dual feasible (prior optimum)
	fromStart bool // the basis is the construction-time start, not yet solved from

	info *PresolveInfo // scaled builds only: reported on every Solution
}

const (
	// feasTol is the per-variable bound-violation tolerance.
	feasTol = 1e-7
	// dualTol is the reduced-cost tolerance for dual feasibility.
	dualTol = 1e-7
	// infeasTol is the total phase-1 violation above which the LP is
	// declared infeasible (mirrors the legacy tableau solver).
	infeasTol = 1e-6
)

// newSolverState builds the backend of a validated kind bound to p,
// equilibrating the standard form when scale is set.
func newSolverState(kind BackendKind, p *Problem, ws *Workspace, scale bool) *solverState {
	s := &solverState{ws: ws, dAge: -1}
	passes := s.sf.build(p, ws, scale)
	if scale {
		s.info = &PresolveInfo{ScalePasses: passes}
		presolveAgg.runs.Add(1)
		presolveAgg.rows.Add(int64(s.sf.m))
		presolveAgg.scalePasses.Add(int64(passes))
	}
	if kind == Dense {
		s.inv = &denseInverse{}
	} else {
		s.inv = &etaFile{}
		s.partitioned = true
	}
	s.d = growF(&ws.d, s.sf.n)
	s.initColumn()
	s.basis = make([]int, s.sf.m)
	s.status = make([]varStatus, s.sf.n)
	s.implicit = growBool(&ws.implicit, s.sf.m)
	s.pos = growI32(&ws.pos, s.sf.nv)
	s.coldReset()
	return s
}

// --- Backend interface -------------------------------------------------------

func (s *solverState) SetRHS(r int, rhs float64) {
	if r < 0 || r >= s.sf.m {
		panic(fmt.Sprintf("lp: SetRHS row %d out of range", r))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: invalid rhs %v", rhs))
	}
	s.sf.rhs[r] = s.sf.rowMul[r] * rhs
}

func (s *solverState) SetVarUpper(v int, upper float64) {
	if v < 0 || v >= s.sf.nv {
		panic(fmt.Sprintf("lp: SetVarUpper variable %d out of range", v))
	}
	if upper < 0 || math.IsNaN(upper) {
		panic(fmt.Sprintf("lp: invalid upper bound %v", upper))
	}
	if s.sf.colScale != nil {
		upper /= s.sf.colScale[v]
	}
	s.sf.ub[v] = upper
	if s.status[v] == atUpper && math.IsInf(upper, 1) {
		// A nonbasic variable cannot sit at an infinite bound.
		s.status[v] = atLower
	}
}

func (s *solverState) Basis() *Basis {
	b := &Basis{
		Cols:   make([]int, s.sf.m),
		Status: make([]VarStatus, s.sf.n),
	}
	copy(b.Cols, s.basis)
	for j, st := range s.status {
		b.Status[j] = VarStatus(st)
	}
	return b
}

func (s *solverState) Warm(b *Basis) error {
	if b == nil || len(b.Cols) != s.sf.m || len(b.Status) != s.sf.n {
		return fmt.Errorf("lp: Warm basis has wrong shape (want %d rows, %d columns)", s.sf.m, s.sf.n)
	}
	nBasic := 0
	for j, st := range b.Status {
		switch st {
		case BasicVar:
			nBasic++
		case NonbasicUpper:
			if math.IsInf(s.sf.ub[j], 1) {
				return fmt.Errorf("lp: Warm basis puts column %d at an infinite upper bound", j)
			}
		case NonbasicLower:
		default:
			return fmt.Errorf("lp: Warm basis has invalid status %d for column %d", st, j)
		}
	}
	if nBasic != s.sf.m {
		return fmt.Errorf("lp: Warm basis has %d basic columns, want %d", nBasic, s.sf.m)
	}
	seen := make([]bool, s.sf.n)
	for _, j := range b.Cols {
		if j < 0 || j >= s.sf.n || b.Status[j] != BasicVar {
			return fmt.Errorf("lp: Warm basis row column %d is not a basic column", j)
		}
		if seen[j] {
			return fmt.Errorf("lp: Warm basis names column %d in two rows", j)
		}
		seen[j] = true
	}
	copy(s.basis, b.Cols)
	for j, st := range b.Status {
		s.status[j] = varStatus(st)
	}
	s.dAge = -1
	if err := s.refactor(); err != nil {
		s.coldReset()
		return fmt.Errorf("lp: Warm basis is singular: %w", err)
	}
	// Optimality of the transplanted basis is verified (not assumed) at the
	// next Solve: the dual-feasibility check gates the warm path.
	s.dualOK = true
	return nil
}

// installStart installs the construction-time start basis (WithStart). A
// start is a feasible point, not a prior optimum, so the next Solve goes
// straight to the primal phases instead of testing dual feasibility. A
// rejected or singular basis leaves the all-slack basis in place, and the
// solve runs cold.
func (s *solverState) installStart(b *Basis) {
	if s.Warm(b) == nil {
		s.dualOK = false
		s.fromStart = true
	}
}

// Solve optimizes from the current state. See the Backend docs for the
// ownership rules of the returned Solution.
func (s *solverState) Solve() (*Solution, error) {
	SolveGauge.enter()
	defer SolveGauge.exit()
	defer func() { s.fromStart = false }() // a start serves one solve only
	s.iters = 0
	s.xB = growF(&s.ws.xB, s.sf.m)
	s.computeXB()
	maxIters := 200*(s.sf.m+s.sf.n) + 20000

	if s.dualOK && s.dualFeasible() {
		s.dualOK = false
		st, err := s.dualSimplex(maxIters)
		if err == nil {
			switch st {
			case Infeasible:
				// The failing ray left the basis untouched, so it remains
				// dual feasible for the next warm attempt.
				s.dualOK = true
				return s.finish(Infeasible), nil
			default:
				// Primal feasibility restored; confirm optimality (exits
				// immediately unless numerics left a stray reduced cost).
				st2, err2 := s.primal(true, maxIters)
				if err2 == nil {
					if st2 == Unbounded {
						return s.finish(Unbounded), nil
					}
					s.dualOK = true
					return s.finish(Optimal), nil
				}
			}
		}
		// Numerical trouble on the warm path: restart cold.
		s.coldReset()
		s.computeXB()
	}
	s.dualOK = false

	st, err := s.primal(false, maxIters)
	if err != nil {
		return nil, err
	}
	if st == Infeasible {
		return s.finish(Infeasible), nil
	}
	st, err = s.primal(true, maxIters)
	if err != nil {
		return nil, err
	}
	if st == Unbounded {
		return s.finish(Unbounded), nil
	}
	s.dualOK = true
	return s.finish(Optimal), nil
}

// --- state maintenance -------------------------------------------------------

// coldReset reinstalls the all-slack identity basis, every row in S.
func (s *solverState) coldReset() {
	for j := range s.status {
		s.status[j] = atLower
	}
	for r := 0; r < s.sf.m; r++ {
		s.basis[r] = s.sf.nv + r
		s.status[s.sf.nv+r] = basic
	}
	s.inv.reset(s.sf.m)
	for r := range s.implicit {
		s.implicit[r] = s.partitioned
	}
	s.partition()
	s.dualOK = false
	s.fromStart = false
	s.dAge = -1
}

// computeXB recomputes the basic values from the current rhs, bounds and
// nonbasic statuses: xB = B⁻¹(b − Σ_{j at upper} u_j·a_j).
func (s *solverState) computeXB() {
	rhsEff := growF(&s.ws.rhsEff, s.sf.m)
	copy(rhsEff, s.sf.rhs)
	for j := 0; j < s.sf.n; j++ {
		if s.status[j] == atUpper {
			if u := s.sf.ub[j]; u != 0 {
				s.sf.scatterColumn(j, -u, rhsEff)
			}
		}
	}
	s.ftran(rhsEff)
	copy(s.xB, rhsEff)
}

// ftran overwrites the dense vector v with B⁻¹·v: the eta file's ops, then
// the fill-in of the implicit rows.
func (s *solverState) ftran(v []float64) {
	s.inv.ftran(v)
	if s.nImplicit > 0 {
		s.fillImplicit(v, s.wRows, nil, nil)
	}
}

// refactorPivRel is the relative threshold of the sparsity-driven pivot
// preference: a structurally chosen pivot row is accepted when its
// magnitude is within this factor of the numerically best live pivot
// (standard Markowitz threshold pivoting).
const refactorPivRel = 0.1

// refactor rebuilds the basis representation from scratch for the current
// basic column set, in a Markowitz-style ordering. In the product-form
// inverse, fill is created exactly when a placed column carries entries in
// the pivot rows of earlier placements — every retired row costs one
// future hit per live column that touches it — so the pass works to keep
// pivot rows out of live columns' patterns:
//
//   - slacks first: a basic slack is the unit column of its own row, and
//     placing it there against the identity that reset installs changes
//     nothing — no ftran, no pivot scan, no eta. Every such row is retired
//     before the structural columns are looked at and becomes the new
//     implicit-slack set S, which leaves only the structural bump (~232 of
//     the 1110 basic columns at the M=10/N=100/K=8 scheduling anchor) for
//     the stages below. Entries of structural columns in S rows never
//     pivot and are never stored: they stay out of the row counts, the
//     sparsity key and the etas (on the sparse backend; the dense inverse
//     keeps S empty and factors every row).
//   - row singletons next: whenever some live row is hit by exactly one
//     unplaced column, that column is placed with that row as preferred
//     pivot. A chain of such placements is a permuted triangle and
//     factorizes with zero fill, and the retired row can never hit anyone.
//   - otherwise the sparsest remaining column enters (a counting sort
//     walked through count buckets), and the numeric pivot prefers the
//     live row hit by the fewest live columns among those within
//     refactorPivRel of the largest available magnitude (threshold
//     pivoting), minimizing the hits the retirement mints.
//
// Row counts update in O(1) per retired pattern entry through a row→column
// CSR of the bump pattern, and each placement costs O(nonzeros of the
// FTRAN'd column): ftranColumn zeroes only the previous column's pattern,
// and the numeric scan walks the new pattern's live rows. The basic column
// set must be duplicate-free (Warm rejects a Basis that repeats a column):
// a repeated slack would retire its row twice.
func (s *solverState) refactor() error {
	m, nv := s.sf.m, s.sf.nv
	s.refactors++

	// Slack-first: retire every basic slack's own row (rc −1), which joins
	// S, and gather the structural columns — the bump — into cols.
	rc := growInt(&s.ws.rc, m)
	for r := range rc {
		rc[r] = 0
	}
	cols := growInt(&s.ws.newBasis, m)[:0]
	for _, j := range s.basis {
		if j >= nv {
			rc[j-nv] = -1
		} else {
			cols = append(cols, j)
		}
	}
	nb := len(cols)
	for r := range rc {
		s.implicit[r] = s.partitioned && rc[r] < 0
	}

	// cnt[i] = stored nonzeros of column cols[i] in the live rows, the
	// sparsest-first key (its entries in S rows never reach an eta). −1
	// marks placed. Row → column-position CSR over the bump pattern in
	// live rows (CSC duplicates count with multiplicity), so retiring a
	// pivot row decrements exactly the columns it touches.
	cnt := growInt(&s.ws.cnt, nb)
	rowPtr := growI32(&s.ws.rowPtr, m+1)
	for r := range rowPtr {
		rowPtr[r] = 0
	}
	maxCnt, nnz := 0, 0
	for i, j := range cols {
		c := 0
		for k := s.sf.colPtr[j]; k < s.sf.colPtr[j+1]; k++ {
			if r := s.sf.colRow[k]; rc[r] >= 0 {
				rowPtr[r+1]++
				c++
			}
		}
		cnt[i] = c
		nnz += c
		if c > maxCnt {
			maxCnt = c
		}
	}
	for r := 0; r < m; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	rowCol := growI32(&s.ws.rowCol, nnz)
	fill := growI32(&s.ws.rowFill, m)
	copy(fill, rowPtr[:m])
	for i, j := range cols {
		for k := s.sf.colPtr[j]; k < s.sf.colPtr[j+1]; k++ {
			if r := s.sf.colRow[k]; rc[r] >= 0 {
				rowCol[fill[r]] = int32(i)
				fill[r]++
			}
		}
	}
	// Live-column count per live row; rows whose count drops to 1 are
	// singleton candidates (re-checked at pop: counts keep moving). A row
	// stays live (rc ≥ 0) until a placement pivots on it. Slack rows take
	// their slack here, once and for all.
	stack := s.ws.rowStack[:0]
	for r := 0; r < m; r++ {
		if rc[r] < 0 {
			s.basis[r] = nv + r
			continue
		}
		rc[r] = int(rowPtr[r+1] - rowPtr[r])
		if rc[r] == 1 {
			stack = append(stack, r)
		}
	}

	// Sparsest-first fallback order: a counting sort of the columns by
	// nonzero count, walked through singly-linked count buckets (bhead[c]
	// chains the columns with exactly c entries; placed columns are
	// skipped by their cnt mark as the walk passes them).
	bhead := growInt(&s.ws.bhead, maxCnt+1)
	for c := range bhead {
		bhead[c] = -1
	}
	bnext := growInt(&s.ws.bnext, nb)
	for i := nb - 1; i >= 0; i-- {
		c := cnt[i]
		bnext[i] = bhead[c]
		bhead[c] = i
	}

	s.inv.reset(m)
	cur := 0
	for placed := 0; placed < nb; placed++ {
		// Selection: a row singleton when one exists, else the sparsest
		// unplaced column from the counting-sort walk.
		i := -1
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rc[r] != 1 {
				continue // count moved on or row retired since the push
			}
			for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
				if ci := int(rowCol[k]); cnt[ci] >= 0 {
					i = ci
					break
				}
			}
			if i >= 0 {
				break
			}
		}
		if i < 0 {
			for {
				for bhead[cur] >= 0 && cnt[bhead[cur]] < 0 {
					bhead[cur] = bnext[bhead[cur]] // shed singleton-placed columns
				}
				if bhead[cur] >= 0 {
					break
				}
				cur++
			}
			i = bhead[cur]
			bhead[cur] = bnext[i]
		}
		j := cols[i]
		// Retire the column structurally: live rows it touched lose one
		// live column, minting a singleton candidate at count 1.
		for k := s.sf.colPtr[j]; k < s.sf.colPtr[j+1]; k++ {
			if r := s.sf.colRow[k]; rc[r] > 0 {
				if rc[r]--; rc[r] == 1 {
					stack = append(stack, int(r))
				}
			}
		}
		cnt[i] = -1
		w, pat := s.ftranRows(j, false)
		// Numerically largest live pivot first; then, among live rows
		// within refactorPivRel of it, the row hit by the fewest live
		// columns (larger magnitude, then the lower row, breaks ties) — the
		// retirement then mints the fewest future hits. A singleton-selected
		// column finds its rc=1 row here without special-casing, numerics
		// permitting. Rows off the pattern hold w = 0 and cannot pivot.
		maxAbs := 0.0
		for _, r := range pat {
			if a := math.Abs(w[r]); a > maxAbs && rc[r] >= 0 {
				maxAbs = a
			}
		}
		if maxAbs <= 1e-10 {
			return fmt.Errorf("lp: singular basis (column %d)", j)
		}
		floor := refactorPivRel * maxAbs
		if floor < 1e-10 {
			floor = 1e-10
		}
		best, bestAbs, bestRC := -1, 0.0, 0
		for _, r32 := range pat {
			r := int(r32)
			c := rc[r]
			a := math.Abs(w[r])
			if c < 0 || a < floor {
				continue
			}
			// rc can be 0 here: eta fill made w[r] nonzero in a row no live
			// column's static pattern touches — the ideal pivot.
			if best < 0 || c < bestRC || (c == bestRC && (a > bestAbs || (a == bestAbs && r < best))) {
				best, bestAbs, bestRC = r, a, c
			}
		}
		s.basis[best] = j
		s.inv.update(best, w, pat)
		rc[best] = -1 // retire the pivot row
	}
	s.ws.rowStack = stack[:0]
	s.partition()
	s.inv.markRefactored()
	return nil
}

// partition rebuilds wRows, nImplicit and pos from the implicit marks and
// the basis.
func (s *solverState) partition() {
	sf := &s.sf
	s.wRows = s.ws.wRows[:0]
	for r, in := range s.implicit {
		if !in {
			s.wRows = append(s.wRows, int32(r))
		}
	}
	s.ws.wRows = s.wRows
	s.nImplicit = sf.m - len(s.wRows)
	for j := range s.pos {
		s.pos[j] = -1
	}
	for r, j := range s.basis {
		if j < sf.nv {
			s.pos[j] = int32(r)
		}
	}
}

// initColumn sizes the FTRAN column scratch (ws.w, ws.colMark) for the m
// rows, all zero and unmarked, with an empty pattern: the state
// ftranColumn expects between calls.
func (s *solverState) initColumn() {
	m := s.sf.m
	w := growF(&s.ws.w, m)
	for i := range w {
		w[i] = 0
	}
	mark := growBool(&s.ws.colMark, m)
	for i := range mark {
		mark[i] = false
	}
	s.ws.colPat = s.ws.colPat[:0]
}

// ftranColumn loads column j in current basis coordinates into ws.w and
// returns it with its pattern: the rows that the column, an eta's fill or
// the implicit rows' fill-in touched, each once. The W rows come first, in
// order of first touch, and number s.colW; the S rows follow. Every nonzero
// of w lies on the pattern (a row can be on it and hold 0 after
// cancellation or an eta's pivot). On the W rows the values are
// bit-identical to a dense scatter + eta-file ftran; an S row s gets
// w_s = a_s − Σ_{i∈W} A(s, basis[i])·w_i, walking only the columns basic in
// the W rows with w_i ≠ 0.
//
// The returned slices stay valid until the next call, which zeroes w over
// the old pattern only: w is zero off the pattern and no caller writes it.
// The marks are clear again whenever ftranColumn is not running, so an
// early return by the caller (a singular refactor) leaves nothing stale.
func (s *solverState) ftranColumn(j int) ([]float64, []int32) {
	return s.ftranRows(j, true)
}

// ftranRows is ftranColumn; with fill false it computes the W rows only
// and leaves every S row zero and off the pattern, which is all a
// refactorization's placements read.
func (s *solverState) ftranRows(j int, fill bool) ([]float64, []int32) {
	w, mark := s.ws.w, s.ws.colMark
	for _, i := range s.ws.colPat {
		w[i] = 0
	}
	sf := &s.sf
	slack := [1]int32{int32(j - sf.nv)}
	rows, vals := slack[:], []float64{1}
	if j < sf.nv {
		rows, vals = sf.colRow[sf.colPtr[j]:sf.colPtr[j+1]], sf.colVal[sf.colPtr[j]:sf.colPtr[j+1]]
	}
	pat := s.scatterRows(w, s.ws.colPat[:0], rows, vals, false)
	pat = s.inv.ftranSparse(w, mark, pat)
	s.colW = len(pat)
	if fill && s.nImplicit > 0 {
		pat = s.scatterRows(w, pat, rows, vals, true)
		pat = s.fillImplicit(w, pat[:s.colW], mark, pat)
	}
	for _, i := range pat {
		mark[i] = false
	}
	s.ws.colPat = pat
	return w, pat
}

// scatterRows adds vals into w on those of rows that are implicit exactly
// when implicit is set, appending each row it marks first to pat.
func (s *solverState) scatterRows(w []float64, pat, rows []int32, vals []float64, implicit bool) []int32 {
	mark := s.ws.colMark
	for q, r := range rows {
		if s.implicit[r] == implicit {
			w[r] += vals[q]
			if !mark[r] {
				mark[r] = true
				pat = append(pat, r)
			}
		}
	}
	return pat
}

// fillImplicit subtracts A(s, basis[i])·v_i from v on every implicit row
// s, for the W rows i listed in rows. With mark set it appends each
// implicit row it marks first to pat. A slack basic in a W row is zero on
// every implicit row (each of those holds its own slack).
func (s *solverState) fillImplicit(v []float64, rows []int32, mark []bool, pat []int32) []int32 {
	sf := &s.sf
	for _, i := range rows {
		vi, c := v[i], s.basis[i]
		if vi == 0 || c >= sf.nv {
			continue
		}
		for k := sf.colPtr[c]; k < sf.colPtr[c+1]; k++ {
			if r := sf.colRow[k]; s.implicit[r] {
				if mark != nil && !mark[r] {
					mark[r] = true
					pat = append(pat, r)
				}
				v[r] -= sf.colVal[k] * vi
			}
		}
	}
	return pat
}

// btran overwrites y with yᵀ·B⁻¹: every implicit row with y_s ≠ 0 folds
// into W first (y_W −= y_s·A(s, basis[W])), then the eta file's ops run
// newest→oldest. Phase-2 duals cost nothing here: a basic slack's cost is
// 0, so y is zero on every S row.
func (s *solverState) btran(y []float64) {
	if s.nImplicit > 0 {
		for r, ys := range y {
			if ys != 0 && s.implicit[r] {
				s.foldRow(r, ys, y)
			}
		}
	}
	s.inv.btran(y)
}

// btranUnit overwrites y with row r of B⁻¹ (eᵣᵀ·B⁻¹).
func (s *solverState) btranUnit(r int, y []float64) {
	for i := range y {
		y[i] = 0
	}
	y[r] = 1
	if s.implicit[r] {
		s.foldRow(r, 1, y)
	}
	s.inv.btran(y)
}

// foldRow subtracts ys·A(r, j) from y in the row of every basic structural
// column j (all in W: an S row holds its slack), read from the row-wise
// copy through pos.
func (s *solverState) foldRow(r int, ys float64, y []float64) {
	sf := s.rowCopy()
	for k := sf.rowPtr[r]; k < sf.rowPtr[r+1]; k++ {
		if p := s.pos[sf.rowCol[k]]; p >= 0 {
			y[p] -= ys * sf.rowVal[k]
		}
	}
}

// rowCopy returns the standard form with its row-wise copy built.
func (s *solverState) rowCopy() *standardForm {
	if s.sf.rowPtr == nil {
		s.sf.buildRows(s.ws)
	}
	return &s.sf
}

// dualsFor computes y = c_Bᵀ·B⁻¹ for the given phase into ws.y. The
// second return value reports y ≡ 0 (every basic cost is zero — always
// the case in phase 2 of a feasibility LP), which lets callers skip the
// per-column pricing dot products entirely.
func (s *solverState) dualsFor(phase2 bool) ([]float64, bool) {
	y := growF(&s.ws.y, s.sf.m)
	zero := true
	for i := 0; i < s.sf.m; i++ {
		var c float64
		if phase2 {
			c = s.sf.objAt(s.basis[i])
		} else {
			switch {
			case s.xB[i] < -feasTol:
				c = -1
			case s.xB[i] > s.sf.ub[s.basis[i]]+feasTol:
				c = 1
			}
		}
		y[i] = c
		if c != 0 {
			zero = false
		}
	}
	if !zero {
		s.btran(y)
	}
	return y, zero
}

// price fills d with the reduced costs of the given phase from fresh duals
// ('cost' is 0 for every column in phase 1, whose objective is pure bound
// violation); basic columns get 0. The phase-2 fill makes d current.
func (s *solverState) price(phase2 bool) {
	y, yZero := s.dualsFor(phase2)
	d := s.d
	for j := range d {
		if s.status[j] == basic {
			d[j] = 0
			continue
		}
		c := 0.0
		if phase2 {
			c = s.sf.objAt(j)
		}
		if !yZero {
			c -= s.sf.dotColumn(j, y)
		}
		d[j] = c
	}
	if phase2 {
		s.dAge = 0
	} else {
		s.dAge = -1
	}
}

// dualFeasible reports whether the current basis is dual feasible for the
// real (phase 2) objective within dualTol. It leaves d current.
func (s *solverState) dualFeasible() bool {
	s.price(true)
	if s.sf.objZero {
		return true // all reduced costs are identically zero
	}
	for j, d := range s.d {
		if s.status[j] == basic || s.sf.ub[j] == 0 {
			continue // fixed columns cannot move: sign irrelevant
		}
		if s.status[j] == atLower && d < -dualTol {
			return false
		}
		if s.status[j] == atUpper && d > dualTol {
			return false
		}
	}
	return true
}

// pivotRow computes the pivot row α = ρᵀ·[A I] for ρ = e_rᵀB⁻¹ from the
// row-wise copy of A, visiting only the rows where ρ is nonzero: ρ is zero
// on every implicit row but r, so only r and the W rows are scanned. It
// returns the columns whose entry was touched (each once); their values
// are in s.alpha until updateDuals or clearRow resets the scratch.
func (s *solverState) pivotRow(r int, rho []float64) []int32 {
	sf := s.rowCopy()
	if s.alpha == nil {
		s.alpha = growF(&s.ws.alpha, sf.n)
		for j := range s.alpha {
			s.alpha[j] = 0
		}
		s.mark = growBool(&s.ws.mark, sf.nv)
		for j := range s.mark {
			s.mark[j] = false
		}
	}
	touched := s.ws.touched[:0]
	if s.implicit[r] {
		touched = s.addPivotRow(r, rho[r], touched)
	}
	for _, i := range s.wRows {
		if ri := rho[i]; ri != 0 {
			touched = s.addPivotRow(int(i), ri, touched)
		}
	}
	s.ws.touched = touched
	return touched
}

// addPivotRow adds ri times row i of [A I] into the pivot row, appending
// the columns it touches first to touched.
func (s *solverState) addPivotRow(i int, ri float64, touched []int32) []int32 {
	sf, alpha, mark := &s.sf, s.alpha, s.mark
	alpha[sf.nv+i] = ri // the slack column of row i
	touched = append(touched, int32(sf.nv+i))
	cols := sf.rowCol[sf.rowPtr[i]:sf.rowPtr[i+1]]
	vals := sf.rowVal[sf.rowPtr[i]:sf.rowPtr[i+1]]
	vals = vals[:len(cols)]
	for k, c := range cols {
		if !mark[c] {
			mark[c] = true
			touched = append(touched, c)
		}
		alpha[c] += ri * vals[k]
	}
	return touched
}

// clearRow resets the pivot-row scratch pivotRow filled.
func (s *solverState) clearRow(touched []int32) {
	for _, j := range touched {
		s.alpha[j] = 0
		if int(j) < s.sf.nv {
			s.mark[j] = false
		}
	}
}

// updateDuals moves the reduced costs across the basis change in which
// column q enters in row r with pivot element arq = α_rq: d_j −= θ·α_rj
// with θ = d_q/α_rq over the pivot row's support, d_q = 0, and the leaving
// column (α_rp = 1) gets −θ. It consumes the pivot row (clearRow) and must
// run before the basis change is applied.
func (s *solverState) updateDuals(touched []int32, q, r int, arq float64) {
	theta := s.d[q] / arq
	for _, j := range touched {
		if s.status[j] != basic {
			s.d[j] -= theta * s.alpha[j]
		}
	}
	s.clearRow(touched)
	s.d[q] = 0
	s.d[s.basis[r]] = -theta
	s.dAge++
}

// violation returns the total and maximum bound violation of the basics.
func (s *solverState) violation() (sum, max float64) {
	for i := 0; i < s.sf.m; i++ {
		v := s.xB[i]
		var excess float64
		if v < 0 {
			excess = -v
		} else if ubB := s.sf.ub[s.basis[i]]; v > ubB {
			excess = v - ubB
		}
		if excess > 0 {
			sum += excess
			if excess > max {
				max = excess
			}
		}
	}
	return sum, max
}

// --- primal simplex (composite phase 1 + phase 2) ---------------------------

// primal runs bounded primal simplex iterations. With phase2=false it
// minimizes the total bound violation of the basic variables (the
// artificial-free composite phase 1): out-of-bounds basics price as ±1 and
// block the ratio test only when they reach the bound they violate, from
// outside. Returns Optimal when feasible/optimal, Infeasible when the
// phase-1 optimum has positive violation, Unbounded for a phase-2 ray.
//
// Phase 2 prices from the maintained reduced costs d (recomputed on entry
// when they are not current); phase 1 re-prices from fresh duals every
// iteration.
func (s *solverState) primal(phase2 bool, maxIters int) (Status, error) {
	stall, bland := 0, false
	sinceRecompute := 0
	if phase2 && s.dAge < 0 {
		s.price(true)
	}
	for {
		if s.iters > maxIters {
			return 0, fmt.Errorf("lp: simplex iteration limit reached (%d pivots)", s.iters)
		}
		if s.inv.shouldRefactor() {
			if err := s.refactor(); err != nil {
				return 0, err
			}
			s.computeXB()
			if phase2 {
				s.price(true)
			}
		}
		var vSum float64
		if !phase2 {
			var vMax float64
			if vSum, vMax = s.violation(); vMax <= feasTol {
				return Optimal, nil
			}
			s.price(false)
		}
		j, dir, dj := s.chooseEntering(bland)
		if j < 0 {
			if phase2 {
				if s.dAge > 0 {
					s.price(true) // confirm on fresh reduced costs
					continue
				}
				return Optimal, nil
			}
			if vSum > infeasTol {
				return Infeasible, nil
			}
			return Optimal, nil // violation within noise: accept as feasible
		}
		w, pat := s.ftranColumn(j)
		leave, leaveAt, t, flip := s.ratioTest(j, dir, w, pat, !phase2, bland)
		if leave < 0 && !flip {
			if phase2 {
				return Unbounded, nil
			}
			// Phase 1 is bounded below by 0; an unblocked ray is numerics.
			return 0, fmt.Errorf("lp: phase 1 found an unblocked ray (violation %g)", vSum)
		}
		if flip {
			s.applyFlip(j, dir, w, pat)
		} else {
			if phase2 && !s.sf.objZero {
				rho := growF(&s.ws.rho, s.sf.m)
				s.btranUnit(leave, rho)
				s.updateDuals(s.pivotRow(leave, rho), j, leave, w[leave])
			}
			s.applyPivot(j, dir, w, pat, leave, leaveAt, t)
		}
		// Stall detection: |d_j|·t is the objective improvement.
		if math.Abs(dj)*t > tol {
			stall = 0
		} else if stall++; stall > stallLimit {
			bland = true
		}
		if sinceRecompute++; sinceRecompute >= 256 {
			s.computeXB() // shed accumulated floating-point drift
			if phase2 {
				s.price(true)
			}
			sinceRecompute = 0
		}
	}
}

// chooseEntering picks a nonbasic column whose move improves the phase
// objective, by the reduced costs in d: at lower bound with d < −tol, or at
// upper bound with d > tol. Dantzig (largest |d|) normally, first eligible
// index under Bland's rule. Fixed columns (upper bound 0) never enter.
// Returns (-1,0,0) at phase optimality.
func (s *solverState) chooseEntering(bland bool) (j int, dir, dj float64) {
	best, bestScore, bestDir, bestD := -1, tol, 1.0, 0.0
	for c, d := range s.d {
		st := s.status[c]
		if st == basic || s.sf.ub[c] == 0 {
			continue
		}
		var score float64
		var dr float64
		if st == atLower {
			score, dr = -d, 1
		} else {
			score, dr = d, -1
		}
		if score > bestScore {
			if bland {
				return c, dr, d
			}
			best, bestScore, bestDir, bestD = c, score, dr, d
		}
	}
	return best, bestDir, bestD
}

// ratioTest finds the maximum step t for entering column j moving in
// direction dir (+1 from lower bound, −1 from upper), with column w =
// B⁻¹a_j and its pattern pat (the only rows it visits). allowViolated
// enables the phase-1 rules: an out-of-bounds basic does not block until
// it reaches the bound it violates (from outside), and blocks there. Returns the leaving row and the bound it leaves at, or
// flip=true when the entering column's own opposite bound is the binding
// limit. leave<0 && !flip means unblocked (unbounded ray).
func (s *solverState) ratioTest(j int, dir float64, w []float64, pat []int32, allowViolated, bland bool) (leave int, leaveAt varStatus, t float64, flip bool) {
	limit := math.Inf(1)
	if u := s.sf.ub[j]; !math.IsInf(u, 1) {
		limit, flip = u, true
	}
	leave = -1
	for _, i32 := range pat {
		i := int(i32)
		wi := w[i]
		if wi > -pivTol && wi < pivTol {
			continue
		}
		delta := -wi * dir // d(xB[i])/dt
		v := s.xB[i]
		ubB := s.sf.ub[s.basis[i]]
		var ti float64
		var at varStatus
		switch {
		case allowViolated && v < -feasTol:
			if delta <= 0 {
				continue // moves further below: accounted by the phase cost
			}
			ti, at = -v/delta, atLower
		case allowViolated && v > ubB+feasTol:
			if delta >= 0 {
				continue
			}
			ti, at = (ubB-v)/delta, atUpper
		default:
			if delta < 0 {
				ti, at = v/(-delta), atLower
			} else if !math.IsInf(ubB, 1) {
				ti, at = (ubB-v)/delta, atUpper
			} else {
				continue
			}
		}
		if ti < 0 {
			ti = 0 // degeneracy: a basic variable slightly past its bound
		}
		take := ti < limit-tol
		if !take && ti < limit+tol && leave >= 0 {
			// Near-tie between rows: Bland prefers the smallest basic
			// index (anti-cycling); otherwise take the larger pivot, and on
			// an exact tie the lower row, whatever the pattern's order.
			if bland {
				take = s.basis[i] < s.basis[leave]
			} else {
				a, b := math.Abs(wi), math.Abs(w[leave])
				take = a > b || (a == b && i < leave)
			}
		}
		if take {
			limit, leave, leaveAt, flip = ti, i, at, false
		}
	}
	return leave, leaveAt, limit, flip
}

// applyFlip moves entering column j across to its opposite bound without a
// basis change; w is nonzero on pat only.
func (s *solverState) applyFlip(j int, dir float64, w []float64, pat []int32) {
	if u := s.sf.ub[j]; u != 0 {
		for _, i := range pat {
			if wi := w[i]; wi != 0 {
				s.xB[i] -= wi * dir * u
			}
		}
	}
	if s.status[j] == atLower {
		s.status[j] = atUpper
	} else {
		s.status[j] = atLower
	}
	s.iters++
}

// applyPivot performs the basis exchange: entering j (moving dir·t) for
// the basic variable of row leave, which exits at leaveAt. w is the
// entering column as ftranColumn returned it, nonzero on pat only; the new
// eta stores its W rows.
func (s *solverState) applyPivot(j int, dir float64, w []float64, pat []int32, leave int, leaveAt varStatus, t float64) {
	if t != 0 {
		for _, i := range pat {
			if wi := w[i]; wi != 0 {
				s.xB[i] -= wi * dir * t
			}
		}
	}
	enterVal := t
	if dir < 0 {
		enterVal = s.sf.ub[j] - t
	}
	if s.implicit[leave] {
		s.leaveImplicit(leave, pat)
	}
	old := s.basis[leave]
	s.status[old] = leaveAt
	s.basis[leave] = j
	s.status[j] = basic
	if old < s.sf.nv {
		s.pos[old] = -1
	}
	if j < s.sf.nv {
		s.pos[j] = int32(leave)
	}
	s.xB[leave] = enterVal
	s.inv.update(leave, w, pat[:s.colW])
	s.iters++
}

// leaveImplicit moves the implicit row r into W ahead of a pivot on it. It
// appends the row eta v_r −= Σ_{i∈W} A(r, basis[i])·v_i, read from the
// row-wise copy through pos, so the eta file's ops now produce row r
// themselves; and it moves r, which the entering column's fill-in put in
// the S tail of pat, to the end of the W head, so the column eta stores it.
func (s *solverState) leaveImplicit(r int, pat []int32) {
	sf := s.rowCopy()
	idx, val := s.ws.rowEtaIdx[:0], s.ws.rowEtaVal[:0]
	for k := sf.rowPtr[r]; k < sf.rowPtr[r+1]; k++ {
		if p := s.pos[sf.rowCol[k]]; p >= 0 {
			idx = append(idx, p)
			val = append(val, sf.rowVal[k])
		}
	}
	if len(idx) > 0 {
		s.inv.addRow(r, idx, val)
	}
	s.ws.rowEtaIdx, s.ws.rowEtaVal = idx, val
	s.implicit[r] = false
	s.nImplicit--
	q, _ := slices.BinarySearch(s.wRows, int32(r))
	s.wRows = slices.Insert(s.wRows, q, int32(r))
	s.ws.wRows = s.wRows
	for q := s.colW; q < len(pat); q++ {
		if pat[q] == int32(r) {
			pat[q], pat[s.colW] = pat[s.colW], pat[q]
			break
		}
	}
	s.colW++
}

// --- dual simplex (the warm-restart workhorse) -------------------------------

// dualSimplex restores primal feasibility from a dual-feasible basis: the
// state after RHS or bound mutations of a previously optimal solve. Each
// iteration evicts the worst bound-violating basic variable and enters the
// column chosen by the bounded-variable dual ratio test, so dual
// feasibility is invariant and termination means optimality. Returns
// Infeasible when no column can repair a violated row — with a
// dual-feasible basis that is a certificate that the mutated LP has no
// feasible point, exactly what a shrinking-makespan feasibility probe
// needs. Errors signal numerical trouble; the caller falls back to a cold
// solve.
func (s *solverState) dualSimplex(maxIters int) (Status, error) {
	m := s.sf.m
	rho := growF(&s.ws.rho, m)
	stall := 0
	lastViol := math.Inf(1)
	for iter := 0; ; iter++ {
		if s.iters > maxIters || iter > maxIters {
			return 0, fmt.Errorf("lp: dual simplex iteration limit reached (%d pivots)", s.iters)
		}
		if s.inv.shouldRefactor() {
			if err := s.refactor(); err != nil {
				return 0, err
			}
			s.computeXB()
			s.price(true)
		}
		// Leaving variable: the basic with the largest bound violation.
		r, below := -1, false
		worst := feasTol
		vSum := 0.0
		for i := 0; i < m; i++ {
			v := s.xB[i]
			ubB := s.sf.ub[s.basis[i]]
			if excess := -v; excess > worst {
				worst, r, below = excess, i, true
			} else if excess := v - ubB; excess > worst {
				worst, r, below = excess, i, false
			}
			if v < 0 {
				vSum -= v
			} else if v > ubB {
				vSum += v - ubB
			}
		}
		if r < 0 {
			return Optimal, nil // primal feasible (and dual feasible): done
		}
		if vSum < lastViol-tol {
			lastViol, stall = vSum, 0
		} else if stall++; stall > 2*stallLimit {
			// Degenerate dual pivots are not making progress (possible when
			// every reduced cost ties at zero, as in pure feasibility LPs).
			return 0, fmt.Errorf("lp: dual simplex stalled (violation %g)", vSum)
		}
		// Row r of B⁻¹, the pivot row over its support, then the dual
		// ratio test over its nonbasic columns (a column outside the
		// support has α = 0 and cannot repair row r). A feasibility LP (all
		// costs zero) keeps every reduced cost at exactly zero: every
		// sign-eligible column ties at ratio 0 and the stability tie-break
		// picks among them.
		s.btranUnit(r, rho)
		touched := s.pivotRow(r, rho)
		e, dirE := -1, 1.0
		bestRatio, bestAbs := math.Inf(1), 0.0
		for _, c32 := range touched {
			c := int(c32)
			st := s.status[c]
			if st == basic || s.sf.ub[c] == 0 {
				continue
			}
			alpha := s.alpha[c]
			if alpha > -pivTol && alpha < pivTol {
				continue
			}
			dirC := 1.0
			if st == atUpper {
				dirC = -1
			}
			eff := alpha * dirC
			// xB[r] must move toward the violated bound: up when below
			// the lower bound, down when above the upper.
			if below {
				if eff >= 0 {
					continue
				}
			} else if eff <= 0 {
				continue
			}
			ratio := math.Abs(s.d[c]) / math.Abs(alpha)
			take := ratio < bestRatio-dualTol
			if !take && ratio < bestRatio+dualTol {
				take = math.Abs(alpha) > bestAbs // stability tie-break
			}
			if take {
				e, dirE, bestRatio, bestAbs = c, dirC, ratio, math.Abs(alpha)
			}
		}
		if e < 0 {
			// No column can push row r back inside its bounds while keeping
			// dual feasibility: the LP is infeasible (dual unbounded).
			s.clearRow(touched)
			return Infeasible, nil
		}
		w, pat := s.ftranColumn(e)
		if math.Abs(w[r]) < pivTol {
			s.clearRow(touched)
			return 0, fmt.Errorf("lp: dual pivot element vanished (row %d, col %d)", r, e)
		}
		target, leaveAt := 0.0, atLower
		if !below {
			target, leaveAt = s.sf.ub[s.basis[r]], atUpper
		}
		t := (s.xB[r] - target) / (w[r] * dirE)
		if t < 0 {
			if t < -feasTol {
				s.clearRow(touched)
				return 0, fmt.Errorf("lp: negative dual step %g", t)
			}
			t = 0
		}
		// Deliberately no dual bound-flip here: when t exceeds the entering
		// column's own span, the pivot brings it into the basis above its
		// bound and later iterations repair that manufactured violation.
		// Measured on the rounding guess trajectory this converges several
		// times faster than the textbook flip (which pays a full pricing
		// iteration to absorb only |alpha|·u of violation), and a search
		// that churns anyway is best abandoned to the stall guard above —
		// the caller's cold re-solve is cheaper than grinding out flips.
		s.updateDuals(touched, e, r, w[r])
		s.applyPivot(e, dirE, w, pat, r, leaveAt, t)
	}
}

// --- solution extraction -----------------------------------------------------

func (s *solverState) finish(st Status) *Solution {
	s.sol = Solution{Status: st, Iterations: s.iters, Refactors: s.refactors, FromStart: s.fromStart, Presolve: s.info}
	s.refactors = 0
	if st != Optimal {
		return &s.sol
	}
	// Report the final basis' exact vertex, not the basic values as the
	// pivots' incremental updates left them (a solve without pivots still
	// holds the values Solve computed on entry).
	if s.iters > 0 {
		s.computeXB()
	}
	x := growF(&s.ws.x, s.sf.nv)
	for j := 0; j < s.sf.nv; j++ {
		if s.status[j] == atUpper {
			x[j] = s.sf.ub[j]
		} else {
			x[j] = 0
		}
	}
	for r := 0; r < s.sf.m; r++ {
		if b := s.basis[r]; b < s.sf.nv {
			v := s.xB[r]
			if v < 0 && v > -infeasTol {
				v = 0
			}
			x[b] = v
		}
	}
	obj := 0.0
	for j, c := range s.sf.obj {
		obj += c * x[j]
	}
	if C := s.sf.colScale; C != nil {
		for j := range x {
			// Unscale; round-off must not leak a negative value.
			x[j] = max(x[j]*C[j], 0)
		}
	}
	s.sol.X = x
	s.sol.Objective = obj
	return &s.sol
}
