package lp

import (
	"fmt"
	"math"
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
// Variable upper bounds (Problem.AddVUB) have no row. A VUB column x with
// key y (x ≤ r·y in scaled coordinates) at its upper bound sits at r·y, a
// rider of y: while y is basic the basis holds y's composite column
// a_y + Σ r·a_x over its riders (parts). d and the pivot row of a nonbasic
// key are its composite's (d_y + Σ r·d_x). While y is nonbasic at 0, x is
// parked at the bound its reduced cost asks for, with no pivot
// (vubCandidates). The ratio tests hold every basic x to r·y while y is
// basic or entering; when x reaches r·y it leaves at its upper bound and a
// trivial eta adds a_x to y's column.
//
// Pricing and the pivot row read the VUB columns from state kept current
// across pivots (Maros, Computational Techniques of the Simplex Method,
// ch. 9), not re-derived per pivot. Each slot of keyX holds its column's
// bound sign (−1 at 0, +1 at r·y, 0 basic or clamped) and a copy of d, so a
// key's candidates are one contiguous pass (vubCandidates); each key holds
// its rider count, rider-set signature and rider list, which foldRiders
// walks instead of the pivot row's support. updateDuals and pivotDuals
// copy every d they change into the slots; applyPivot, applyFlip, park and
// SetVarUpper refresh the key whose column changed status or bound. price
// rebuilds the whole state, and coldReset and Warm mark it stale, for a
// rebuild at its next use.
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

	// pos[j] is the row structural column j is basic in, −1 when it is
	// nonbasic (ws-backed).
	pos []int32

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
	vubStale  bool // the VUB pricing state needs a rebuild before its next use

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
	}
	s.d = grow(&ws.d, s.sf.n)
	s.initColumn()
	s.basis = make([]int, s.sf.m)
	s.status = make([]varStatus, s.sf.n)
	clear(grow(&ws.etaCol, s.sf.m))
	nk := len(s.sf.keys)
	ws.vubSgn, ws.vubD = grow(&ws.vubSgn, s.sf.nVUB), grow(&ws.vubD, s.sf.nVUB)
	ws.riderX, ws.riders = grow(&ws.riderX, s.sf.nVUB), grow(&ws.riders, nk)
	ws.keySig, ws.keyNorm = grow(&ws.keySig, nk), grow(&ws.keyNorm, nk)
	clear(grow(&ws.normSig, nk)) // key norms are the last build's
	s.pos = grow(&ws.pos, s.sf.nv)
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
	if y, r := s.sf.vub(v); y >= 0 {
		if upper == 0 && s.status[v] == atUpper {
			s.clampVUB(v, y, r)
		}
		s.touchVUB(v) // a clamp or an unclamp moves the slot's sign
		return
	}
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
			if y, _ := s.sf.vub(j); y >= 0 {
				break
			}
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
		if y, _ := s.sf.vub(j); y >= 0 && st == NonbasicUpper && s.sf.ub[j] == 0 {
			s.status[j] = atLower // a clamped VUB column sits at 0
		}
	}
	s.dAge, s.vubStale = -1, true
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
	s.xB = grow(&s.ws.xB, s.sf.m)
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

// coldReset reinstalls the all-slack identity basis.
func (s *solverState) coldReset() {
	for j := range s.status {
		s.status[j] = atLower
	}
	for r := 0; r < s.sf.m; r++ {
		s.basis[r] = s.sf.nv + r
		s.status[s.sf.nv+r] = basic
	}
	s.inv.reset(s.sf.m)
	s.setPos()
	s.dualOK = false
	s.fromStart = false
	s.dAge = -1
	s.vubStale = true
}

// computeXB recomputes the basic values from the current rhs, bounds and
// nonbasic statuses: xB = B⁻¹(b − Σ_{j at upper} u_j·a_j).
func (s *solverState) computeXB() {
	rhsEff := grow(&s.ws.rhsEff, s.sf.m)
	copy(rhsEff, s.sf.rhs)
	for j := 0; j < s.sf.n; j++ {
		if s.status[j] == atUpper {
			if y, _ := s.sf.vub(j); y >= 0 {
				continue // at r·x_y: part of its key's column
			}
			if u := s.sf.ub[j]; u != 0 {
				for _, c := range s.parts(j) {
					s.sf.scatterColumn(int(c), -u*s.partScale(j, c), rhsEff)
				}
			}
		}
	}
	s.inv.ftran(rhsEff)
	copy(s.xB, rhsEff)
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
//     before the structural columns are looked at, which leaves only the
//     structural bump for the stages below. Entries of structural columns
//     in slack rows never pivot: they stay out of the row counts and the
//     sparsity key.
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

	// Slack-first: retire every basic slack's own row (rc −1) and gather
	// the structural columns — the bump — into cols.
	rc := grow(&s.ws.rc, m)
	for r := range rc {
		rc[r] = 0
	}
	cols := grow(&s.ws.newBasis, m)[:0]
	for _, j := range s.basis {
		if j >= nv {
			rc[j-nv] = -1
		} else {
			cols = append(cols, j)
		}
	}
	nb := len(cols)

	// cnt[i] = stored nonzeros of column cols[i] in the live rows, the
	// sparsest-first key. −1
	// marks placed. Row → column-position CSR over the bump pattern in
	// live rows (CSC duplicates count with multiplicity), so retiring a
	// pivot row decrements exactly the columns it touches.
	cnt := grow(&s.ws.cnt, nb)
	rowPtr := grow(&s.ws.rowPtr, m+1)
	for r := range rowPtr {
		rowPtr[r] = 0
	}
	maxCnt, nnz := 0, 0
	for i, j := range cols {
		c := 0
		for _, pc := range s.parts(j) {
			for k := s.sf.colPtr[pc]; k < s.sf.colPtr[pc+1]; k++ {
				if r := s.sf.colRow[k]; rc[r] >= 0 {
					rowPtr[r+1]++
					c++
				}
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
	rowCol := grow(&s.ws.rowCol, nnz)
	fill := grow(&s.ws.rowFill, m)
	copy(fill, rowPtr[:m])
	for i, j := range cols {
		for _, pc := range s.parts(j) {
			for k := s.sf.colPtr[pc]; k < s.sf.colPtr[pc+1]; k++ {
				if r := s.sf.colRow[k]; rc[r] >= 0 {
					rowCol[fill[r]] = int32(i)
					fill[r]++
				}
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
	bhead := grow(&s.ws.bhead, maxCnt+1)
	for c := range bhead {
		bhead[c] = -1
	}
	bnext := grow(&s.ws.bnext, nb)
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
		for _, pc := range s.parts(j) {
			for k := s.sf.colPtr[pc]; k < s.sf.colPtr[pc+1]; k++ {
				if r := s.sf.colRow[k]; rc[r] > 0 {
					if rc[r]--; rc[r] == 1 {
						stack = append(stack, int(r))
					}
				}
			}
		}
		cnt[i] = -1
		w, pat := s.ftranColumn(j)
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
	s.setPos()
	s.inv.markRefactored()
	return nil
}

// setPos rebuilds pos from the basis.
func (s *solverState) setPos() {
	for j := range s.pos {
		s.pos[j] = -1
	}
	for r, j := range s.basis {
		if j < s.sf.nv {
			s.pos[j] = int32(r)
		}
	}
}

// initColumn sizes the FTRAN column scratch (ws.w, ws.colMark) for the m
// rows, all zero and unmarked, with an empty pattern: the state
// ftranColumn expects between calls.
func (s *solverState) initColumn() {
	m := s.sf.m
	w := grow(&s.ws.w, m)
	for i := range w {
		w[i] = 0
	}
	mark := grow(&s.ws.colMark, m)
	for i := range mark {
		mark[i] = false
	}
	s.ws.colPat = s.ws.colPat[:0]
}

// ftranColumn loads column j, as the basis holds it, in current basis
// coordinates into ws.w and returns it with its pattern: the rows that the
// column or an eta's fill touched, each once. Every nonzero of w lies on
// the pattern (a row can be on it and hold 0 after cancellation or an eta's
// pivot), and the values are bit-identical to a dense scatter + ftran.
//
// The returned slices stay valid until the next call, which zeroes w over
// the old pattern only: w is zero off the pattern and no caller writes it.
// The marks are clear again whenever ftranColumn is not running, so an
// early return by the caller (a singular refactor) leaves nothing stale.
func (s *solverState) ftranColumn(j int) ([]float64, []int32) {
	w, mark := s.ws.w, s.ws.colMark
	for _, i := range s.ws.colPat {
		w[i] = 0
	}
	pat := s.inv.ftranSparse(w, mark, s.scatterCol(w, s.ws.colPat[:0], j))
	for _, i := range pat {
		mark[i] = false
	}
	s.ws.colPat = pat
	return w, pat
}

// scatterCol adds column j as the basis holds it (a key's composite) into
// w, appending each row it marks first to pat.
func (s *solverState) scatterCol(w []float64, pat []int32, j int) []int32 {
	sf, mark := &s.sf, s.ws.colMark
	if j >= sf.nv {
		j -= sf.nv
		w[j]++
		mark[j] = true
		return append(pat, int32(j))
	}
	for _, c := range s.parts(j) {
		sc := s.partScale(j, c)
		for k := sf.colPtr[c]; k < sf.colPtr[c+1]; k++ {
			r := sf.colRow[k]
			w[r] += sc * sf.colVal[k]
			if !mark[r] {
				mark[r] = true
				pat = append(pat, r)
			}
		}
	}
	return pat
}

// btranPair overwrites y with (eᵣ − c·e_q)ᵀ·B⁻¹: row r of B⁻¹ when q < 0,
// else the pivot row of a VUB pair whose column is basic in row r and its
// key in row q.
func (s *solverState) btranPair(r, q int, c float64, y []float64) {
	clear(y)
	y[r] = 1
	if q >= 0 {
		y[q] = -c
	}
	s.inv.btran(y)
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
	y := grow(&s.ws.y, s.sf.m)
	zero := true
	for i := 0; i < s.sf.m; i++ {
		var c float64
		if phase2 {
			for _, pc := range s.parts(s.basis[i]) {
				c += s.partScale(s.basis[i], pc) * s.sf.objAt(int(pc))
			}
		} else {
			switch {
			case s.xB[i] < -feasTol:
				// A key below 0 also crosses the bounds 0 ≤ x ≤ r·y of
				// each of its nonbasic columns, by r·|y| each.
				c = -1
				for _, x := range s.sf.keyXs(s.basis[i]) {
					if s.status[x] != basic && s.sf.ub[x] != 0 {
						c -= s.sf.vubR[x]
					}
				}
			case s.xB[i] > s.upper(s.basis[i])+feasTol:
				c = 1
			}
		}
		y[i] = c
		if c != 0 {
			zero = false
		}
	}
	if !phase2 && s.sf.nVUB > 0 {
		// A violated pair x > r·y with y basic also costs −r on y.
		for i, c := range y[:s.sf.m] {
			if q, r := s.pairRow(i); q >= 0 && c > 0 {
				y[q] -= r
			}
		}
	}
	if !zero {
		s.inv.btran(y)
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
	if s.sf.nVUB > 0 {
		for _, x := range s.sf.keyX {
			if y := s.sf.vubKey[x]; s.status[x] == atUpper && s.status[y] != basic {
				d[y] += s.sf.vubR[x] * d[x]
			}
		}
		for i, b := range s.basis {
			if phase2 {
				break
			}
			// Phase 1: raising a nonbasic key lifts the bound r·y of a
			// basic x above it; a key below 0 crosses 0 ≤ x ≤ r·y for its
			// nonbasic columns, whose violation x − r·y (at 0) or −x (at
			// r·y) then moves with x (dualsFor prices the y part).
			y, r := s.sf.vub(b)
			if y >= 0 && s.status[y] != basic && s.sf.ub[b] != 0 && s.xB[i] > s.upper(b)+feasTol {
				d[y] -= r
			}
			for _, x := range s.sf.keyXs(b) {
				if s.xB[i] >= -feasTol || s.status[x] == basic || s.sf.ub[x] == 0 {
					continue
				}
				if s.status[x] == atLower {
					d[x]++
				} else {
					d[x]--
				}
			}
		}
		s.rebuildVUB()
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
	if s.sf.nVUB > 0 {
		// Park the columns of keys at 0 first; the chooser takes no offer.
		s.vubCandidates(&chooser{best: -1, score: math.Inf(1)})
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
// row-wise copy of A, visiting only the rows where ρ is nonzero. It returns
// the columns whose entry was touched (each once); their values are in
// s.alpha until updateDuals or clearRow resets the scratch.
func (s *solverState) pivotRow(r int, rho []float64) []int32 {
	sf := s.rowCopy()
	if s.alpha == nil {
		s.alpha = grow(&s.ws.alpha, sf.n)
		for j := range s.alpha {
			s.alpha[j] = 0
		}
		s.mark = grow(&s.ws.mark, sf.nv)
		for j := range s.mark {
			s.mark[j] = false
		}
	}
	touched := s.ws.touched[:0]
	for i, ri := range rho {
		if ri != 0 {
			touched = s.addPivotRow(i, ri, touched)
		}
	}
	if s.sf.nVUB > 0 {
		touched = s.foldRiders(touched)
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

// foldRiders adds r·α_x into α_y for every rider x (at its upper bound
// under a nonbasic key y) on the pivot row: the composite column's entry.
// It walks the keys' rider lists, not the row's support, and takes a rider
// as on the row when the row marked it.
func (s *solverState) foldRiders(touched []int32) []int32 {
	s.vubSync()
	sf, ws, alpha, mark := &s.sf, s.ws, s.alpha, s.mark
	for i, y := range sf.keys {
		lo := sf.keyPtr[y]
		for _, x := range ws.riderX[lo : lo+ws.riders[i]] {
			if !mark[x] {
				continue
			}
			if !mark[y] {
				mark[y] = true
				touched = append(touched, y)
			}
			alpha[y] += sf.vubR[x] * alpha[x]
		}
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

// pivotDuals moves the reduced costs across the basis change in which
// column q enters in row r with pivot element arq = α_rq: d_j −= θ·α_rj
// with θ = d_q/α_rq over the pivot row's support, d_q = 0, and the leaving
// column (α_rp = 1) gets −θ. It consumes the pivot row (clearRow) and must
// run before the basis change is applied.
func (s *solverState) pivotDuals(touched []int32, q, r int, arq float64) {
	theta := s.d[q] / arq
	s.updateDuals(touched, theta)
	s.d[q] = 0
	s.d[s.basis[r]] = -theta
	s.syncD(q)
	s.syncD(s.basis[r])
}

// updateDuals applies d_j −= θ·α_j to the nonbasic columns of the pivot
// row in s.alpha, copies the new d of each VUB column into its slot, and
// consumes the row.
func (s *solverState) updateDuals(touched []int32, theta float64) {
	nv, pos, dv := int32(s.sf.nv), s.sf.vubPos, s.ws.vubD
	for _, j := range touched {
		if s.status[j] != basic {
			s.d[j] -= theta * s.alpha[j]
		}
		s.alpha[j] = 0 // clearRow, in the same pass
		if j < nv {
			s.mark[j] = false
			if pos != nil && pos[j] >= 0 {
				dv[pos[j]] = s.d[j]
			}
		}
	}
	s.dAge++
}

// violation returns the total and maximum bound violation of the basics.
func (s *solverState) violation() (sum, max float64) {
	for i := 0; i < s.sf.m; i++ {
		v := s.xB[i]
		var excess float64
		if v < 0 {
			excess = -v
		} else if ubB := s.upper(s.basis[i]); v > ubB {
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
			if y, r := s.sf.vub(j); y >= 0 && s.status[y] == basic && phase2 && !s.sf.objZero {
				// y's column gains or loses a_x: a column change in y's row
				// q, with pivot element 1 ± r·w_q (see applyFlip).
				q := int(s.pos[y])
				rho := grow(&s.ws.rho, s.sf.m)
				s.btranPair(q, -1, 0, rho)
				s.updateDuals(s.pivotRow(q, rho), dir*r*s.d[j]/(1+dir*r*w[q]))
			}
			s.applyFlip(j, dir, w, pat, t)
		} else {
			piv, q, r := s.pivotElem(j, leave, leaveAt, w)
			if phase2 && !s.sf.objZero {
				rho := grow(&s.ws.rho, s.sf.m)
				s.btranPair(leave, q, r, rho)
				s.pivotDuals(s.pivotRow(leave, rho), j, leave, piv)
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
// index under Bland's rule. Fixed columns (upper bound 0) never enter. A
// key with riders scores |d| over its composite column's norm: by |d|
// alone the heavy composites win for steps their riders block at once.
// Returns (-1,0,0) at phase optimality.
func (s *solverState) chooseEntering(bland bool) (j int, dir, dj float64) {
	ch := chooser{best: -1, bland: bland}
	vub := s.sf.nVUB > 0
	if vub {
		s.vubCandidates(&ch)
	}
	for _, c32 := range s.sf.plain {
		c := int(c32)
		st := s.status[c]
		if st == basic || s.sf.ub[c] == 0 {
			continue
		}
		rate := s.d[c]
		if st == atLower {
			rate = -rate
		}
		score := rate
		if vub && !bland && rate > tol {
			if k := s.sf.keyIndex(c); k >= 0 && s.ws.riders[k] > 0 {
				score /= s.keyNorm(k)
			}
		}
		if ch.offer(c, rate, score); bland && ch.best == c {
			break // the plain columns ascend
		}
	}
	if ch.best < 0 {
		return -1, 0, 0
	}
	if s.status[ch.best] == atLower {
		return ch.best, 1, s.d[ch.best]
	}
	return ch.best, -1, s.d[ch.best]
}

// chooser is chooseEntering's running choice: the best score, or under
// Bland's rule the lowest index, among columns improving at rate > tol.
type chooser struct {
	best  int
	score float64
	bland bool
}

func (ch *chooser) offer(c int, rate, score float64) {
	if rate > tol && (ch.bland && (ch.best < 0 || c < ch.best) || !ch.bland && score > ch.score) {
		ch.best, ch.score = c, score
	}
}

// vubCandidates offers the VUB columns from the maintained slot state, one
// contiguous pass over each key's slots: the rate of slot k is
// vubSgn[k]·vubD[k] (the sign is 0 on basic and clamped columns, which
// never enter). A column whose key is nonbasic at 0, where both its bounds
// are 0, is parked instead, with no pivot, where its reduced cost asks: at
// r·y (riding along when y enters) for d < −tol. d of the key follows.
func (s *solverState) vubCandidates(ch *chooser) {
	s.vubSync()
	sf, sgn, dv := &s.sf, s.ws.vubSgn, s.ws.vubD
	for i, y := range sf.keys {
		lo, hi := sf.keyPtr[y], sf.keyPtr[y+1]
		switch {
		case s.status[y] != basic && s.keyVal(int(y)) == 0:
			s.park(i, lo, hi)
		case ch.bland:
			// Every eligible column is offered: the scan goes key by key,
			// not by ascending index, so a lower index may come after a
			// larger rate.
			for k := lo; k < hi; k++ {
				rate := float64(sgn[k]) * dv[k]
				ch.offer(int(sf.keyX[k]), rate, rate)
			}
		default:
			sg, dk := sgn[lo:hi], dv[lo:hi]
			dk = dk[:len(sg)]
			best, bk := max(ch.score, tol), -1
			for k, g := range sg {
				if rate := float64(g) * dk[k]; rate > best {
					best, bk = rate, k
				}
			}
			if bk >= 0 {
				ch.best, ch.score = int(sf.keyX[lo+int32(bk)]), best
			}
		}
	}
}

// park moves the columns of key keys[i], nonbasic at 0, to the bound their
// reduced cost asks for, in slot order, folding each move into d of the
// key: a slot moves exactly when its rate is above tol.
func (s *solverState) park(i int, lo, hi int32) {
	sf, sgn, dv, d := &s.sf, s.ws.vubSgn, s.ws.vubD, s.d
	y, moved := sf.keys[i], false
	for k := lo; k < hi; k++ {
		g, dx := sgn[k], dv[k]
		if !(float64(g)*dx > tol) { // also skips sign 0 and a NaN d
			continue
		}
		x := sf.keyX[k]
		if g < 0 {
			s.status[x], d[y] = atUpper, d[y]+sf.vubR[x]*dx
		} else {
			s.status[x], d[y] = atLower, d[y]-sf.vubR[x]*dx
		}
		sgn[k], moved = -g, true
	}
	if moved {
		s.listRiders(i)
	}
}

// vubSync rebuilds the VUB pricing state when an event left it stale.
func (s *solverState) vubSync() {
	if s.vubStale {
		s.rebuildVUB()
	}
}

// rebuildVUB recomputes the VUB pricing state from status and d: every
// slot's d copy, sign and rider membership, and every key's riders.
func (s *solverState) rebuildVUB() {
	for k, x := range s.sf.keyX {
		s.ws.vubD[k] = s.d[x]
	}
	for i := range s.sf.keys {
		s.refreshKey(i)
	}
	s.vubStale = false
}

// refreshKey recomputes the signs of key keys[i]'s slots from the statuses
// and bounds, then its riders.
func (s *solverState) refreshKey(i int) {
	sf, sgn := &s.sf, s.ws.vubSgn
	y := sf.keys[i]
	for k := sf.keyPtr[y]; k < sf.keyPtr[y+1]; k++ {
		switch x := sf.keyX[k]; {
		case s.status[x] == basic || sf.ub[x] == 0:
			sgn[k] = 0
		case s.status[x] == atLower:
			sgn[k] = -1
		default:
			sgn[k] = 1
		}
	}
	s.listRiders(i)
}

// listRiders rebuilds key keys[i]'s rider list, count and signature from
// its slots' signs. The riders of a key are its columns at r·y while it is
// nonbasic; a basic key has none.
func (s *solverState) listRiders(i int) {
	sf, ws := &s.sf, s.ws
	y := sf.keys[i]
	lo, hi := sf.keyPtr[y], sf.keyPtr[y+1]
	n, sig := int32(0), uint64(0)
	if s.status[y] != basic {
		for k := lo; k < hi; k++ {
			if ws.vubSgn[k] > 0 {
				x := sf.keyX[k]
				ws.riderX[lo+n] = x
				n++
				sig += uint64(x+1) * uint64(x+1)
			}
		}
	}
	ws.riders[i], ws.keySig[i] = n, sig+uint64(n)<<48
}

// touchVUB refreshes the key state of column j after j's status or bound
// changed, when j is a VUB column or a key.
func (s *solverState) touchVUB(j int) {
	if s.sf.slot(j) >= 0 {
		s.refreshKey(s.sf.keyIndex(int(s.sf.vubKey[j])))
	} else if i := s.sf.keyIndex(j); i >= 0 {
		s.refreshKey(i)
	}
}

// syncD copies d_j into column j's slot, when j is a VUB column.
func (s *solverState) syncD(j int) {
	if k := s.sf.slot(j); k >= 0 {
		s.ws.vubD[k] = s.d[j]
	}
}

// keyNorm returns the 2-norm of key keys[i]'s composite column, recomputed
// when its rider set changed.
func (s *solverState) keyNorm(i int) float64 {
	ws := s.ws
	if ws.normSig[i] != ws.keySig[i] {
		v := ws.etaCol
		pat := s.scatterCol(v, ws.normRows[:0], int(s.sf.keys[i]))
		n2 := 0.0
		for _, r := range pat {
			n2 += v[r] * v[r]
			v[r], ws.colMark[r] = 0, false
		}
		ws.normRows, ws.normSig[i], ws.keyNorm[i] = pat, ws.keySig[i], math.Sqrt(n2)
	}
	return ws.keyNorm[i]
}

// ratioTest finds the maximum step t for entering column j moving in
// direction dir (+1 from lower bound, −1 from upper), with column w =
// B⁻¹a_j and its pattern pat (the only rows it visits). allowViolated
// enables the phase-1 rules: an out-of-bounds basic does not block until
// it reaches the bound it violates (from outside), and blocks there. Returns
// the leaving row and the bound it leaves at, or flip=true when the
// entering column's own opposite bound is the binding limit (a VUB column
// under a basic key: reaching r·y from below, or 0 from r·y). leave<0 &&
// !flip means unblocked (unbounded ray).
func (s *solverState) ratioTest(j int, dir float64, w []float64, pat []int32, allowViolated, bland bool) (leave int, leaveAt varStatus, t float64, flip bool) {
	limit, leave, bestAbs := math.Inf(1), -1, 0.0
	if y, r := s.sf.vub(j); y >= 0 && s.status[y] == basic {
		// r·y below 0 (a phase-1 violation) is no bound x can reach.
		q := s.pos[y]
		if g, den := r*s.xB[q], 1+dir*r*w[q]; g >= -feasTol && den > pivTol {
			limit, flip = max(g, 0)/den, true
		}
	} else if u := s.upper(j); !math.IsInf(u, 1) {
		limit, flip = u, true
	}
	// take offers row i at step ti with pivot piv. Near-tie between rows:
	// Bland prefers the smallest basic index (anti-cycling); otherwise take
	// the larger pivot, and on an exact tie the lower row, whatever the
	// pattern's order.
	take := func(i int, ti, piv float64, at varStatus) {
		ti = max(ti, 0) // degeneracy: a basic variable slightly past its bound
		ok := ti < limit-tol
		if !ok && ti < limit+tol && leave >= 0 {
			if bland {
				ok = s.basis[i] < s.basis[leave]
			} else {
				a := math.Abs(piv)
				ok = a > bestAbs || (a == bestAbs && i < leave)
			}
		}
		if ok {
			limit, leave, leaveAt, flip, bestAbs = ti, i, at, false, math.Abs(piv)
		}
	}
	for _, i32 := range pat {
		i := int(i32)
		wi := w[i]
		if wi > -pivTol && wi < pivTol {
			continue
		}
		b := s.basis[i]
		ubB := s.upper(b)
		if y, _ := s.sf.vub(b); y >= 0 && s.sf.ub[b] != 0 && (y == j || s.status[y] == basic) {
			ubB = math.Inf(1) // the pair pass below holds x to r·y
		}
		delta := -wi * dir // d(xB[i])/dt
		v := s.xB[i]
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
		take(i, ti, wi, at)
	}
	// Pairs: a basic VUB column x under a basic or entering key y leaves at
	// its upper bound when g = x − r·y reaches 0 (from above in phase 1).
	for i, x := range s.basis {
		y, r := s.sf.vub(x)
		if y < 0 || s.sf.ub[x] == 0 || (y != j && s.status[y] != basic) {
			continue
		}
		dy := dir // rate of y
		if y != j {
			dy = -w[s.pos[y]] * dir
		}
		g, slope := s.xB[i]-r*s.keyVal(y), -w[i]*dir-r*dy
		if allowViolated && g > feasTol {
			if slope < -pivTol {
				take(i, g/-slope, slope, atUpper)
			}
		} else if slope > pivTol {
			take(i, -g/slope, slope, atUpper)
		}
	}
	return leave, leaveAt, limit, flip
}

// applyFlip moves entering column j across to its opposite bound, a step
// of t, without a basis change; w is nonzero on pat only. A VUB column
// under a basic key joins or leaves the key's column instead (foldEta).
func (s *solverState) applyFlip(j int, dir float64, w []float64, pat []int32, t float64) {
	if t != 0 {
		for _, i := range pat {
			if wi := w[i]; wi != 0 {
				s.xB[i] -= wi * dir * t
			}
		}
	}
	if y, r := s.sf.vub(j); y >= 0 && s.status[y] == basic {
		s.foldEta(int(s.pos[y]), dir*r, w, pat)
	} else if y >= 0 {
		s.d[y] += dir * r * s.d[j]
	}
	if s.status[j] == atLower {
		s.status[j] = atUpper
	} else {
		s.status[j] = atLower
	}
	s.touchVUB(j)
	s.iters++
}

// applyPivot performs the basis exchange: entering j (moving dir·t) for
// the basic variable of row leave, which exits at leaveAt. w is the
// entering column as ftranColumn returned it, nonzero on pat only. A VUB
// column leaving at r·y joins y's column, and one entering from r·y leaves
// it (trivialEta).
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
		enterVal = s.upper(j) - t
	}
	old := s.basis[leave]
	if y, _ := s.sf.vub(old); y >= 0 && s.sf.ub[old] == 0 {
		leaveAt = atLower // a clamped VUB column rests at 0, in no key's column
	}
	if y, r := s.sf.vub(old); y >= 0 && leaveAt == atUpper {
		// old leaves at r·y: y's column picks up a_old, whose coordinates
		// are e_leave.
		switch {
		case y == j:
			pat = s.onPattern(pat, leave)
			w[leave] += r
		case s.status[y] == basic:
			q := int(s.pos[y])
			s.trivialEta(q, leave, r)
			pat = s.onPattern(pat, leave)
			w[leave] -= r * w[q]
		default:
			s.d[y] += r * s.d[old]
		}
	}
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
	s.inv.update(leave, w, pat)
	if y, r := s.sf.vub(j); y >= 0 && dir < 0 && s.status[y] == basic {
		s.trivialEta(int(s.pos[y]), leave, -r) // j left y's column
	}
	s.touchVUB(old)
	s.touchVUB(j)
	s.iters++
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
	rho := grow(&s.ws.rho, m)
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
			ubB := s.upper(s.basis[i])
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
		// A VUB column leaving at r·y joins y's column: the pair's row when
		// y is basic, and r more on y's α when y is nonbasic.
		q, rq, yLeave := -1, 0.0, -1
		if y, ry := s.sf.vub(s.basis[r]); y >= 0 && !below && s.sf.ub[s.basis[r]] != 0 {
			if s.status[y] == basic {
				q, rq = int(s.pos[y]), ry
			} else {
				yLeave, rq = y, ry
			}
		}
		s.btranPair(r, q, rq, rho)
		touched := s.pivotRow(r, rho)
		e, dirE := -1, 1.0
		bestRatio, bestAbs := math.Inf(1), 0.0
		if yLeave >= 0 && !s.mark[yLeave] {
			s.mark[yLeave] = true
			touched = append(touched, int32(yLeave))
			s.ws.touched = touched
		}
		for _, c32 := range touched {
			c := int(c32)
			st := s.status[c]
			if st == basic || s.sf.ub[c] == 0 {
				continue
			}
			alpha := s.alpha[c]
			if c == yLeave {
				alpha += rq
			}
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
		target, leaveAt := 0.0, atLower
		if !below {
			target, leaveAt = s.upper(s.basis[r]), atUpper
		}
		piv, _, _ := s.pivotElem(e, r, leaveAt, w)
		if math.Abs(piv) < pivTol {
			s.clearRow(touched)
			return 0, fmt.Errorf("lp: dual pivot element vanished (row %d, col %d)", r, e)
		}
		t := (s.xB[r] - target) / (piv * dirE)
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
		s.pivotDuals(touched, e, r, piv)
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
	x := grow(&s.ws.x, s.sf.nv)
	for j := 0; j < s.sf.nv; j++ {
		if s.status[j] == atUpper {
			x[j] = s.upper(j)
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
	for _, c := range s.sf.keyX[:s.sf.nVUB] {
		x[c] = min(x[c], x[s.sf.vubKey[c]]) // nor x above its key
	}
	s.sol.X = x
	s.sol.Objective = obj
	return &s.sol
}

// --- variable upper bounds ---------------------------------------------------

// parts returns the columns that make up column j as the basis holds it:
// j and, for a key, its riders, each scaled by partScale. Scratch, valid
// until the next call.
func (s *solverState) parts(j int) []int32 {
	ps := append(s.ws.parts[:0], int32(j))
	for _, x := range s.sf.keyXs(j) {
		if s.status[x] == atUpper {
			ps = append(ps, x)
		}
	}
	s.ws.parts = ps
	return ps
}

func (s *solverState) partScale(j int, c int32) float64 {
	if int(c) == j {
		return 1
	}
	return s.sf.vubR[c]
}

// keyVal returns the current value of column y.
func (s *solverState) keyVal(y int) float64 {
	switch s.status[y] {
	case basic:
		return s.xB[s.pos[y]]
	case atUpper:
		return s.sf.ub[y]
	}
	return 0
}

// upper returns column j's current upper bound: u_j, or r·y for a VUB
// column that is not clamped.
func (s *solverState) upper(j int) float64 {
	if y, r := s.sf.vub(j); y >= 0 && s.sf.ub[j] != 0 {
		return r * s.keyVal(y)
	}
	return s.sf.ub[j]
}

// pairRow returns the row and ratio of the basic key of the VUB column
// basic in row i, or (−1, 0).
func (s *solverState) pairRow(i int) (int, float64) {
	if y, r := s.sf.vub(s.basis[i]); y >= 0 && s.sf.ub[s.basis[i]] != 0 && s.status[y] == basic {
		return int(s.pos[y]), r
	}
	return -1, 0
}

// pivotElem returns the pivot element of entering j in row leave, whose
// column exits at bound at: w_leave, or for a VUB column leaving at r·y the
// rate of x − r·y, w_leave − r·w_q with y basic in row q (q and r returned
// for btranPair) or w_leave + r when y is j.
func (s *solverState) pivotElem(j, leave int, at varStatus, w []float64) (float64, int, float64) {
	if at == atUpper {
		if q, r := s.pairRow(leave); q >= 0 {
			return w[leave] - r*w[q], q, r
		}
		if y, r := s.sf.vub(s.basis[leave]); y == j && s.sf.ub[s.basis[leave]] != 0 {
			return w[leave] + r, -1, 0
		}
	}
	return w[leave], -1, 0
}

// clampVUB takes x, just clamped to 0, off its upper bound; under a basic
// key y in row q, y's column drops a_x. When y's column without a_x would
// be singular (eta pivot 1 − r·w_q ≈ 0), x takes row q instead, basic
// above its bound 0, and y leaves at 0; the next Solve repairs both.
func (s *solverState) clampVUB(x, y int, r float64) {
	s.dAge = -1
	if s.status[y] != basic {
		s.status[x] = atLower
		return
	}
	w, pat := s.ftranColumn(x)
	q := int(s.pos[y])
	if math.Abs(1-r*w[q]) >= pivTol {
		s.status[x] = atLower
		s.foldEta(q, -r, w, pat)
		return
	}
	s.inv.update(q, w, pat)
	s.basis[q], s.status[x], s.status[y] = x, basic, atLower
	s.pos[x], s.pos[y] = int32(q), -1
}

// foldEta adds c·a_x to the column basic in row q, where w = B⁻¹a_x with
// pattern pat: an eta whose column is e_q + c·w. It overwrites w.
func (s *solverState) foldEta(q int, c float64, w []float64, pat []int32) {
	pat = s.onPattern(pat, q)
	for _, i := range pat {
		w[i] *= c
	}
	w[q]++
	s.inv.update(q, w, pat)
}

// trivialEta adds c times the column basic in row i to the one basic in
// row q: an eta whose column is e_q + c·e_i.
func (s *solverState) trivialEta(q, i int, c float64) {
	v := s.ws.etaCol
	v[q], v[i] = 1, c
	pat := [2]int32{int32(q), int32(i)}
	s.inv.update(q, v, pat[:])
	v[q], v[i] = 0, 0
}

// onPattern adds row i to the last FTRAN'd column's pattern, if missing.
func (s *solverState) onPattern(pat []int32, i int) []int32 {
	for _, r := range pat {
		if int(r) == i {
			return pat
		}
	}
	s.ws.colPat = append(pat, int32(i))
	return s.ws.colPat
}
