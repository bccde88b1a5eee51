// Package presolve reduces a bounded-variable LP
//
//	minimize    c·x
//	subject to  a_r·x {≤,=,≥} b_r
//	            0 ≤ x_j ≤ u_j   (u_j may be +∞)
//
// before it reaches a solver, and maps solutions of the reduced problem
// back to the original one exactly. The reductions are the classical safe
// set for this form, run to a fixed point:
//
//   - fixed-variable elimination: u_j = 0 (the clamp idiom the rounding
//     layer's ReSolve writes) pins x_j = 0; the column is folded into the
//     right-hand sides and dropped
//   - empty-row removal: a row with no live entries is either trivially
//     satisfied (removed) or a proof of infeasibility
//   - singleton-row removal with bound folding: a_rj·x_j {≤,=,≥} b_r
//     tightens u_j (or fixes x_j for an equality), then the row goes away
//   - singleton-column fixing: a column appearing in one inequality row is
//     fixed at the bound that relaxes the row, when the objective agrees
//   - zero-column drop: a column in no rows moves to its cost-optimal bound
//   - redundant-row detection: a row whose activity range [minact, maxact]
//     cannot violate it is removed; a range that cannot satisfy it is an
//     infeasibility certificate
//
// plus Ruiz-style iterative row/column equilibration scaling of the
// surviving matrix, which stabilizes simplex pricing (iteration counts on
// ill-scaled instances drop sharply).
//
// Every reduction is recorded so the Result can postsolve: reconstruct the
// original-space primal vector, report which fixed column sits at which
// bound (for basis reconstruction by the caller), and forward later RHS and
// bound mutations into the reduced-and-scaled coordinates. The package is
// deliberately solver-agnostic — it speaks flat arrays, not lp.Problem — so
// the lp package can wrap it behind the Backend seam without an import
// cycle.
package presolve

import "math"

// Sense values, numerically identical to lp.Sense.
const (
	SenseLE int8 = 0
	SenseGE int8 = 1
	SenseEQ int8 = 2
)

// FixKind says how an eliminated column was pinned.
type FixKind int8

const (
	// NotFixed: the column survives into the reduced problem.
	NotFixed FixKind = iota
	// FixLower: pinned at 0 (clamped bound, or cost-optimal lower).
	FixLower
	// FixUpper: pinned at its presolve-time upper bound.
	FixUpper
	// FixValue: pinned at an interior value by an equality singleton row.
	FixValue
)

// Input is a bounded-variable LP in flat triplet form. Duplicate (row, col)
// triplets are allowed and accumulate, matching lp.Problem semantics. The
// caller retains ownership; Reduce copies what it mutates.
type Input struct {
	NumCols int
	NumRows int
	Obj     []float64 // len NumCols
	UB      []float64 // len NumCols, +Inf allowed
	Sense   []int8    // len NumRows
	RHS     []float64 // len NumRows
	Row     []int32   // triplets
	Col     []int32
	Coef    []float64
}

// Options controls the pipeline.
type Options struct {
	// Scale enables Ruiz equilibration of the reduced matrix.
	Scale bool
	// MaxPasses caps the reduction fixed-point loop (safety; default 32).
	MaxPasses int
	// ScalePasses caps Ruiz iterations (default 8).
	ScalePasses int
	// Tol is the feasibility tolerance for redundancy/infeasibility
	// decisions (default 1e-9, relative to magnitudes involved).
	Tol float64
}

// Stats summarizes what the pipeline did.
type Stats struct {
	RowsBefore, RowsAfter int
	ColsBefore, ColsAfter int
	NNZBefore, NNZAfter   int
	FixedCols             int
	RemovedRows           int
	RedundantRows         int
	ScalePasses           int
	Passes                int
}

// Result is the reduced problem plus everything needed to go back.
type Result struct {
	// Infeasible is set when a reduction proved the original LP infeasible.
	// The reduced problem arrays are not populated in that case.
	Infeasible bool

	NumCols, NumRows int // original dimensions

	// Maps between original and reduced index spaces (-1 = eliminated).
	ColMap, RowMap   []int32
	ColOrig, RowOrig []int32

	// Per original column: how (if) it was eliminated and at what value.
	Fix    []FixKind
	FixVal []float64

	// Per original row: Σ a_rj·fix_j folded out of the RHS, and the RHS /
	// UB values the reductions assumed (mutating past these invalidates
	// recorded reductions — the caller's cue to bypass).
	RHSShift []float64
	RHSAt    []float64
	UBAt     []float64
	// UBFold[j] is the tightest bound folded onto column j by singleton
	// rows (+Inf when none); later bound mutations forward min(u, fold).
	UBFold []float64

	// Reduced (and, when enabled, scaled) problem in dedup triplet form.
	RObj, RUB, RRHS []float64
	RSense          []int8
	RRow, RCol      []int32
	RCoef           []float64

	// Diagonal scalings (all-ones when scaling is off): the reduced matrix
	// is diag(RowScale)·A·diag(ColScale) over the kept submatrix of A, the
	// reduced variable is x' = x/ColScale.
	RowScale, ColScale []float64

	// FixedObj is Σ c_j·fix_j — add to the reduced objective value.
	FixedObj float64

	Stats Stats
}

// HasReductions reports whether any row or column was eliminated (scaling
// alone does not count).
func (res *Result) HasReductions() bool {
	return res.Stats.RowsAfter != res.Stats.RowsBefore || res.Stats.ColsAfter != res.Stats.ColsBefore
}

// PostsolveX writes the original-space primal vector: eliminated columns at
// their pinned values, kept columns unscaled from xRed. xOrig must have
// length NumCols; xRed length len(ColOrig) (may be nil when no columns
// survived).
func (res *Result) PostsolveX(xRed, xOrig []float64) {
	for j := 0; j < res.NumCols; j++ {
		if res.Fix[j] != NotFixed {
			xOrig[j] = res.FixVal[j]
			continue
		}
		rj := res.ColMap[j]
		x := xRed[rj] * res.ColScale[rj]
		if x < 0 {
			x = 0 // scaling round-off must not leak a negative value
		}
		xOrig[j] = x
	}
}

// reducer is the in-flight working state.
type reducer struct {
	nv, m int
	tol   float64

	obj   []float64
	ub    []float64 // mutable (folds)
	rhs   []float64 // mutable (fix shifts)
	sense []int8

	// Deduplicated CSR of the constraint matrix with per-entry liveness.
	rPtr, rEnd []int32
	eCol       []int32
	eRow       []int32
	eVal       []float64
	alive      []bool
	rowLen     []int32
	// CSC view: cEnt lists CSR entry ids per column.
	cPtr, cEnt []int32
	colLen     []int32

	fix      []FixKind
	fixVal   []float64
	rowGone  []bool
	shift    []float64
	ubFold   []float64
	fixedObj float64

	fixedCols, removedRows, redundantRows int
}

// Reduce runs the pipeline. The returned Result is immutable afterwards and
// safe for concurrent readers.
func Reduce(in *Input, opt Options) *Result {
	if opt.MaxPasses <= 0 {
		opt.MaxPasses = 32
	}
	if opt.ScalePasses <= 0 {
		opt.ScalePasses = 8
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	rd := newReducer(in, opt.Tol)
	res := &Result{
		NumCols: in.NumCols,
		NumRows: in.NumRows,
		RHSAt:   append([]float64(nil), in.RHS...),
		UBAt:    append([]float64(nil), in.UB...),
	}
	res.Stats.RowsBefore = in.NumRows
	res.Stats.ColsBefore = in.NumCols
	res.Stats.NNZBefore = rd.liveEntries()

	feasible := rd.run(opt.MaxPasses, &res.Stats)
	res.Fix = rd.fix
	res.FixVal = rd.fixVal
	res.RHSShift = rd.shift
	res.UBFold = rd.ubFold
	res.FixedObj = rd.fixedObj
	res.Stats.FixedCols = rd.fixedCols
	res.Stats.RemovedRows = rd.removedRows
	res.Stats.RedundantRows = rd.redundantRows
	if !feasible {
		res.Infeasible = true
		return res
	}
	rd.emit(res)
	if opt.Scale {
		ruizScale(res, opt.ScalePasses)
	}
	// Apply scalings to the reduced bounds/costs/rhs (all-ones when off).
	for t := range res.RCoef {
		res.RCoef[t] *= res.RowScale[res.RRow[t]] * res.ColScale[res.RCol[t]]
	}
	for r := range res.RRHS {
		res.RRHS[r] *= res.RowScale[r]
	}
	for j := range res.RUB {
		res.RUB[j] /= res.ColScale[j] // +Inf stays +Inf
		res.RObj[j] *= res.ColScale[j]
	}
	return res
}

func newReducer(in *Input, tol float64) *reducer {
	nv, m := in.NumCols, in.NumRows
	rd := &reducer{
		nv: nv, m: m, tol: tol,
		obj:     in.Obj,
		ub:      append([]float64(nil), in.UB...),
		rhs:     append([]float64(nil), in.RHS...),
		sense:   in.Sense,
		fix:     make([]FixKind, nv),
		fixVal:  make([]float64, nv),
		rowGone: make([]bool, m),
		shift:   make([]float64, m),
		ubFold:  make([]float64, nv),
		rowLen:  make([]int32, m),
		colLen:  make([]int32, nv),
	}
	for j := range rd.ubFold {
		rd.ubFold[j] = math.Inf(1)
	}

	// CSR with duplicate accumulation. Row segments are sized by the raw
	// triplet counts; dedup compacts in place and rEnd records live ends.
	nnz := len(in.Row)
	rd.rPtr = make([]int32, m+1)
	for _, r := range in.Row {
		rd.rPtr[r+1]++
	}
	for r := 0; r < m; r++ {
		rd.rPtr[r+1] += rd.rPtr[r]
	}
	rd.eCol = make([]int32, nnz)
	rd.eVal = make([]float64, nnz)
	next := append([]int32(nil), rd.rPtr[:m]...)
	for t := 0; t < nnz; t++ {
		r := in.Row[t]
		rd.eCol[next[r]] = in.Col[t]
		rd.eVal[next[r]] = in.Coef[t]
		next[r]++
	}
	rd.rEnd = make([]int32, m)
	mark := make([]int32, nv)
	for j := range mark {
		mark[j] = -1
	}
	for r := 0; r < m; r++ {
		w := rd.rPtr[r]
		for q := rd.rPtr[r]; q < rd.rPtr[r+1]; q++ {
			j := rd.eCol[q]
			if p := mark[j]; p >= 0 {
				rd.eVal[p] += rd.eVal[q]
				continue
			}
			mark[j] = w
			rd.eCol[w] = j
			rd.eVal[w] = rd.eVal[q]
			w++
		}
		// Second compaction: drop entries that accumulated to (near) zero.
		w2 := rd.rPtr[r]
		for q := rd.rPtr[r]; q < w; q++ {
			mark[rd.eCol[q]] = -1
			if math.Abs(rd.eVal[q]) <= 1e-12 {
				continue
			}
			rd.eCol[w2] = rd.eCol[q]
			rd.eVal[w2] = rd.eVal[q]
			w2++
		}
		rd.rEnd[r] = w2
		rd.rowLen[r] = w2 - rd.rPtr[r]
	}

	// Liveness, entry→row map, CSC cross-links.
	rd.alive = make([]bool, nnz)
	rd.eRow = make([]int32, nnz)
	for r := 0; r < m; r++ {
		for q := rd.rPtr[r]; q < rd.rEnd[r]; q++ {
			rd.alive[q] = true
			rd.eRow[q] = int32(r)
			rd.colLen[rd.eCol[q]]++
		}
	}
	rd.cPtr = make([]int32, nv+1)
	for j := 0; j < nv; j++ {
		rd.cPtr[j+1] = rd.cPtr[j] + rd.colLen[j]
	}
	rd.cEnt = make([]int32, rd.cPtr[nv])
	cnext := append([]int32(nil), rd.cPtr[:nv]...)
	for r := 0; r < m; r++ {
		for q := rd.rPtr[r]; q < rd.rEnd[r]; q++ {
			j := rd.eCol[q]
			rd.cEnt[cnext[j]] = q
			cnext[j]++
		}
	}
	return rd
}

func (rd *reducer) liveEntries() int {
	n := 0
	for r := 0; r < rd.m; r++ {
		n += int(rd.rowLen[r])
	}
	return n
}

func (rd *reducer) killEntry(q int32) {
	rd.alive[q] = false
	rd.rowLen[rd.eRow[q]]--
	rd.colLen[rd.eCol[q]]--
}

// fixCol pins column j at v, folds its coefficients into the RHS of every
// live row it touches, and removes its entries.
func (rd *reducer) fixCol(j int, v float64, kind FixKind) {
	rd.fix[j] = kind
	rd.fixVal[j] = v
	rd.fixedObj += rd.obj[j] * v
	rd.fixedCols++
	for p := rd.cPtr[j]; p < rd.cPtr[j+1]; p++ {
		q := rd.cEnt[p]
		if !rd.alive[q] {
			continue
		}
		r := rd.eRow[q]
		if v != 0 {
			rd.rhs[r] -= rd.eVal[q] * v
			rd.shift[r] += rd.eVal[q] * v
		}
		rd.killEntry(q)
	}
}

func (rd *reducer) removeRow(r int, redundant bool) {
	rd.rowGone[r] = true
	rd.removedRows++
	if redundant {
		rd.redundantRows++
	}
	for q := rd.rPtr[r]; q < rd.rEnd[r]; q++ {
		if rd.alive[q] {
			rd.killEntry(q)
		}
	}
}

// run iterates the reduction passes to a fixed point. Returns false when a
// reduction proves infeasibility.
func (rd *reducer) run(maxPasses int, st *Stats) bool {
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes = pass + 1
		changed := false
		// Clamped/degenerate bounds → fixed columns.
		for j := 0; j < rd.nv; j++ {
			if rd.fix[j] == NotFixed && rd.ub[j] <= 1e-11 {
				rd.fixCol(j, 0, FixLower)
				changed = true
			}
		}
		// Row reductions.
		for r := 0; r < rd.m; r++ {
			if rd.rowGone[r] {
				continue
			}
			switch rd.rowLen[r] {
			case 0:
				if !rd.emptyRowFeasible(r) {
					return false
				}
				rd.removeRow(r, false)
				changed = true
			case 1:
				ok, ch := rd.singletonRow(r)
				if !ok {
					return false
				}
				changed = changed || ch
			default:
				ok, ch := rd.activityRow(r)
				if !ok {
					return false
				}
				changed = changed || ch
			}
		}
		// Column reductions.
		for j := 0; j < rd.nv; j++ {
			if rd.fix[j] != NotFixed {
				continue
			}
			switch rd.colLen[j] {
			case 0:
				if rd.obj[j] >= 0 {
					rd.fixCol(j, 0, FixLower)
					changed = true
				} else if !math.IsInf(rd.ub[j], 1) {
					rd.fixCol(j, rd.ub[j], FixUpper)
					changed = true
				}
				// obj < 0 with infinite bound: keep the empty column so the
				// solver reports unboundedness itself.
			case 1:
				if rd.singletonCol(j) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return true
}

func (rd *reducer) emptyRowFeasible(r int) bool {
	tol := rd.tol * (1 + math.Abs(rd.shift[r]))
	switch rd.sense[r] {
	case SenseLE:
		return rd.rhs[r] >= -tol
	case SenseGE:
		return rd.rhs[r] <= tol
	default:
		return math.Abs(rd.rhs[r]) <= tol
	}
}

// singletonRow reduces a row with one live entry a·x_j {≤,=,≥} b.
// Returns (feasible, changed).
func (rd *reducer) singletonRow(r int) (bool, bool) {
	var q int32 = -1
	for e := rd.rPtr[r]; e < rd.rEnd[r]; e++ {
		if rd.alive[e] {
			q = e
			break
		}
	}
	if q < 0 { // raced with a concurrent reduction in this pass
		return true, false
	}
	j := int(rd.eCol[q])
	a := rd.eVal[q]
	b := rd.rhs[r]
	bound := b / a
	tol := rd.tol * (1 + math.Abs(bound))
	sense := rd.sense[r]
	if sense == SenseEQ {
		// x_j = b/a exactly: fix and drop the row.
		if bound < -tol || bound > rd.ub[j]+tol {
			return false, false
		}
		v := bound
		if v < 0 {
			v = 0
		}
		if v > rd.ub[j] {
			v = rd.ub[j]
		}
		kind := FixValue
		if v == 0 {
			kind = FixLower
		} else if v == rd.ub[j] {
			kind = FixUpper
		}
		rd.fixCol(j, v, kind)
		rd.removeRow(r, false)
		return true, true
	}
	// Normalize to a "≤" (upper bound on x_j) or "≥" (lower bound) view.
	upperBound := (sense == SenseLE && a > 0) || (sense == SenseGE && a < 0)
	if upperBound {
		if bound < -tol {
			return false, false
		}
		if bound < 0 {
			bound = 0
		}
		if bound < rd.ubFold[j] {
			rd.ubFold[j] = bound
		}
		if bound < rd.ub[j] {
			rd.ub[j] = bound
		}
		rd.removeRow(r, false)
		return true, true
	}
	// Lower-bound view: x_j ≥ bound.
	if bound > rd.ub[j]+tol {
		return false, false
	}
	if bound <= tol {
		// Implied by x_j ≥ 0: the row is vacuous.
		rd.removeRow(r, false)
		return true, true
	}
	// A strictly positive lower bound cannot be represented in the 0-lower
	// form; leave the row for the solver.
	return true, false
}

// activityRow removes rows whose activity range cannot violate them and
// detects rows whose range cannot satisfy them.
func (rd *reducer) activityRow(r int) (bool, bool) {
	minact, maxact := 0.0, 0.0
	for q := rd.rPtr[r]; q < rd.rEnd[r]; q++ {
		if !rd.alive[q] {
			continue
		}
		a := rd.eVal[q]
		u := rd.ub[rd.eCol[q]]
		if a > 0 {
			if math.IsInf(u, 1) {
				maxact = math.Inf(1)
			} else {
				maxact += a * u
			}
		} else {
			if math.IsInf(u, 1) {
				minact = math.Inf(-1)
			} else {
				minact += a * u
			}
		}
	}
	b := rd.rhs[r]
	tol := rd.tol * (1 + math.Abs(b) + math.Abs(maxact) + math.Abs(minact))
	if math.IsInf(maxact, 1) || math.IsInf(minact, -1) {
		tol = rd.tol * (1 + math.Abs(b))
	}
	switch rd.sense[r] {
	case SenseLE:
		if minact > b+tol {
			return false, false
		}
		if maxact <= b+tol {
			rd.removeRow(r, true)
			return true, true
		}
	case SenseGE:
		if maxact < b-tol {
			return false, false
		}
		if minact >= b-tol {
			rd.removeRow(r, true)
			return true, true
		}
	default: // EQ
		if minact > b+tol || maxact < b-tol {
			return false, false
		}
	}
	return true, false
}

// singletonCol fixes a column with one live entry at the bound that relaxes
// its row, when the objective points the same way. Equality rows are left
// alone (the column is needed to satisfy them).
func (rd *reducer) singletonCol(j int) bool {
	var q int32 = -1
	for p := rd.cPtr[j]; p < rd.cPtr[j+1]; p++ {
		if rd.alive[rd.cEnt[p]] {
			q = rd.cEnt[p]
			break
		}
	}
	if q < 0 {
		return false
	}
	r := rd.eRow[q]
	a := rd.eVal[q]
	var relaxAtZero bool
	switch rd.sense[r] {
	case SenseLE:
		relaxAtZero = a > 0
	case SenseGE:
		relaxAtZero = a < 0
	default:
		return false
	}
	if relaxAtZero {
		if rd.obj[j] >= 0 {
			rd.fixCol(j, 0, FixLower)
			return true
		}
	} else if rd.obj[j] <= 0 && !math.IsInf(rd.ub[j], 1) {
		rd.fixCol(j, rd.ub[j], FixUpper)
		return true
	}
	return false
}

// emit compacts the surviving submatrix into the Result.
func (rd *reducer) emit(res *Result) {
	res.ColMap = make([]int32, rd.nv)
	res.RowMap = make([]int32, rd.m)
	for j := 0; j < rd.nv; j++ {
		res.ColMap[j] = -1
		if rd.fix[j] == NotFixed {
			res.ColMap[j] = int32(len(res.ColOrig))
			res.ColOrig = append(res.ColOrig, int32(j))
		}
	}
	for r := 0; r < rd.m; r++ {
		res.RowMap[r] = -1
		if !rd.rowGone[r] {
			res.RowMap[r] = int32(len(res.RowOrig))
			res.RowOrig = append(res.RowOrig, int32(r))
		}
	}
	nr, nc := len(res.RowOrig), len(res.ColOrig)
	res.RRHS = make([]float64, nr)
	res.RSense = make([]int8, nr)
	for r2, r := range res.RowOrig {
		res.RRHS[r2] = rd.rhs[r]
		res.RSense[r2] = rd.sense[r]
	}
	res.RObj = make([]float64, nc)
	res.RUB = make([]float64, nc)
	for j2, j := range res.ColOrig {
		res.RObj[j2] = rd.obj[j]
		res.RUB[j2] = rd.ub[j]
	}
	nnz := 0
	for r := 0; r < rd.m; r++ {
		if !rd.rowGone[r] {
			nnz += int(rd.rowLen[r])
		}
	}
	res.RRow = make([]int32, 0, nnz)
	res.RCol = make([]int32, 0, nnz)
	res.RCoef = make([]float64, 0, nnz)
	for r2, r := range res.RowOrig {
		for q := rd.rPtr[r]; q < rd.rEnd[r]; q++ {
			if !rd.alive[q] {
				continue
			}
			res.RRow = append(res.RRow, int32(r2))
			res.RCol = append(res.RCol, res.ColMap[rd.eCol[q]])
			res.RCoef = append(res.RCoef, rd.eVal[q])
		}
	}
	res.RowScale = make([]float64, nr)
	res.ColScale = make([]float64, nc)
	for r := range res.RowScale {
		res.RowScale[r] = 1
	}
	for j := range res.ColScale {
		res.ColScale[j] = 1
	}
	res.Stats.RowsAfter = nr
	res.Stats.ColsAfter = nc
	res.Stats.NNZAfter = nnz
}

// ruizScale runs Ruiz equilibration on the reduced triplets, accumulating
// the diagonal factors into res.RowScale/ColScale. The matrix values in
// RCoef are NOT modified here — Reduce applies the final scales once.
func ruizScale(res *Result, maxPasses int) {
	nr, nc := len(res.RRHS), len(res.RObj)
	if nr == 0 || nc == 0 || len(res.RCoef) == 0 {
		return
	}
	rmax := make([]float64, nr)
	cmax := make([]float64, nc)
	for pass := 0; pass < maxPasses; pass++ {
		for r := range rmax {
			rmax[r] = 0
		}
		for j := range cmax {
			cmax[j] = 0
		}
		for t, v := range res.RCoef {
			av := math.Abs(v) * res.RowScale[res.RRow[t]] * res.ColScale[res.RCol[t]]
			if r := res.RRow[t]; av > rmax[r] {
				rmax[r] = av
			}
			if j := res.RCol[t]; av > cmax[j] {
				cmax[j] = av
			}
		}
		converged := true
		for _, v := range rmax {
			if v != 0 && (v < 0.9 || v > 1.1) {
				converged = false
				break
			}
		}
		if converged {
			for _, v := range cmax {
				if v != 0 && (v < 0.9 || v > 1.1) {
					converged = false
					break
				}
			}
		}
		if converged {
			break
		}
		res.Stats.ScalePasses++
		for r, v := range rmax {
			if v > 0 {
				res.RowScale[r] /= math.Sqrt(v)
			}
		}
		for j, v := range cmax {
			if v > 0 {
				res.ColScale[j] /= math.Sqrt(v)
			}
		}
	}
}
