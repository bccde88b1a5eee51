package lp

import "math"

// standardForm is the canonical shape shared by all backends:
//
//	minimize    c·x
//	subject to  A x + I s = b
//	            0 ≤ x_j ≤ u_j,  0 ≤ s_r ≤ su_r
//
// GE rows are negated at build time so every row is LE (slack ub +∞) or EQ
// (slack ub 0); b may therefore be negative, which the bound-violation
// phase 1 handles without artificial variables. Structural columns are
// stored sparse (CSC); slack columns are implicit unit vectors.
//
// A scaled build also equilibrates the matrix (Ruiz, "A scaling algorithm
// to equilibrate both rows and columns norms in matrices", RAL-TR-2001-034):
// with row factors R and column factors C it stores A' = R·A·C, b' = R·b,
// c' = C·c and u' = u/C, so the solver works on x' = x/C. Scaling changes
// neither the shape nor which column sits at which bound, so a Basis means
// the same in both coordinates; only values cross the boundary (SetRHS,
// SetVarUpper, and the X that finish reports).
type standardForm struct {
	m  int // rows
	nv int // structural variables
	n  int // total columns: nv + m (one slack per row)

	colPtr []int32 // nv+1 offsets into colRow/colVal
	colRow []int32
	colVal []float64

	// Row-wise (CSR) copy of the structural columns, built on first use by
	// buildRows: the pivot row ρᵀA is accumulated over the rows where ρ is
	// nonzero only. nil until built.
	rowPtr []int32 // m+1 offsets into rowCol/rowVal
	rowCol []int32
	rowVal []float64

	obj    []float64 // length nv (slack cost is 0)
	ub     []float64 // length n: structural bounds then slack bounds
	rhs    []float64 // length m, current (sign-adjusted, scaled) right-hand sides
	rowMul []float64 // per row: sign·R_r (−1 negates a GE row), applied to SetRHS updates
	// colScale holds the column factors C_j of a scaled build (nil when
	// unscaled): SetVarUpper divides by it, finish multiplies X by it.
	colScale []float64

	objZero bool // every objective coefficient is 0 (a feasibility LP)
}

// build populates the standard form from a Problem, reusing ws buffers.
// When scale is set it equilibrates the matrix and returns the number of
// Ruiz passes that ran.
func (sf *standardForm) build(p *Problem, ws *Workspace, scale bool) int {
	m, nv := len(p.rows), len(p.obj)
	n := nv + m
	sf.m, sf.nv, sf.n = m, nv, n

	sf.obj = growF(&ws.sfObj, nv)
	copy(sf.obj, p.obj)
	sf.objZero = true
	for _, c := range sf.obj {
		if c != 0 {
			sf.objZero = false
			break
		}
	}
	sf.ub = growF(&ws.sfUB, n)
	copy(sf.ub, p.ub)
	sf.rhs = growF(&ws.sfRHS, m)
	sf.rowMul = growF(&ws.sfRowMul, m)

	// Column counts first, then prefix sums, then fill. The problem stores
	// coefficients as append-only triplets; a variable repeated within one
	// row simply yields duplicate (row, col) CSC entries, which is harmless
	// because every access path (scatterColumn, dotColumn) accumulates.
	cnt := growI32(&ws.sfCnt, nv+1)
	for i := range cnt {
		cnt[i] = 0
	}
	nnz := len(p.tRow)
	for _, v := range p.tVar {
		cnt[v+1]++
	}
	sf.colPtr = growI32(&ws.sfPtr, nv+1)
	sf.colPtr[0] = 0
	for j := 0; j < nv; j++ {
		sf.colPtr[j+1] = sf.colPtr[j] + cnt[j+1]
	}
	sf.colRow = growI32(&ws.sfRow, nnz)
	sf.colVal = growF(&ws.sfVal, nnz)
	next := growI32(&ws.sfNext, nv)
	copy(next, sf.colPtr[:nv])
	for r, row := range p.rows {
		sign := 1.0
		if row.sense == GE {
			sign = -1 // a·x ≥ b  ⇔  −a·x ≤ −b
		}
		sf.rowMul[r] = sign
		switch row.sense {
		case EQ:
			sf.ub[nv+r] = 0 // slack pinned: equality
		default:
			sf.ub[nv+r] = math.Inf(1)
		}
	}
	for t, r := range p.tRow {
		v := p.tVar[t]
		k := next[v]
		sf.colRow[k] = r
		sf.colVal[k] = sf.rowMul[r] * p.tCoef[t]
		next[v] = k + 1
	}
	sf.colScale = nil
	passes := 0
	if scale {
		passes = sf.equilibrate(ws)
	}
	for r, row := range p.rows {
		sf.rhs[r] = sf.rowMul[r] * row.rhs
	}
	return passes
}

// ruizMaxPasses caps the equilibration passes of a scaled build.
const ruizMaxPasses = 8

// equilibrate runs Ruiz iterations on the stored matrix: each pass divides
// every row and every column by the square root of its largest |a|, until
// all of them lie in [0.9, 1.1] or ruizMaxPasses have run. It then applies
// the accumulated factors to the matrix, the costs and the structural
// bounds, folds the row factors into rowMul (so build scales b with it),
// and leaves the column factors in colScale. Duplicate (row, col) entries
// count separately toward the maxima; any positive factors keep the LP
// equivalent.
func (sf *standardForm) equilibrate(ws *Workspace) int {
	R := growF(&ws.sfRowScale, sf.m)
	C := growF(&ws.sfColScale, sf.nv)
	for r := range R {
		R[r] = 1
	}
	for j := range C {
		C[j] = 1
	}
	rmax := growF(&ws.sfRowMax, sf.m)
	cmax := growF(&ws.sfColMax, sf.nv)
	passes := 0
	for passes < ruizMaxPasses && len(sf.colVal) > 0 {
		for r := range rmax {
			rmax[r] = 0
		}
		for j := 0; j < sf.nv; j++ {
			cmax[j] = 0
			for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
				r := sf.colRow[k]
				av := math.Abs(sf.colVal[k]) * R[r] * C[j]
				if av > rmax[r] {
					rmax[r] = av
				}
				if av > cmax[j] {
					cmax[j] = av
				}
			}
		}
		if equilibrated(rmax) && equilibrated(cmax) {
			break
		}
		passes++
		for r, v := range rmax {
			if v > 0 {
				R[r] /= math.Sqrt(v)
			}
		}
		for j, v := range cmax {
			if v > 0 {
				C[j] /= math.Sqrt(v)
			}
		}
	}
	for j := 0; j < sf.nv; j++ {
		for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
			sf.colVal[k] *= R[sf.colRow[k]] * C[j]
		}
		sf.ub[j] /= C[j] // +Inf stays +Inf
		sf.obj[j] *= C[j]
	}
	for r := range sf.rowMul {
		sf.rowMul[r] *= R[r]
	}
	sf.colScale = C
	return passes
}

// equilibrated reports that every nonzero maximum lies in [0.9, 1.1].
func equilibrated(maxes []float64) bool {
	for _, v := range maxes {
		if v != 0 && (v < 0.9 || v > 1.1) {
			return false
		}
	}
	return true
}

// copyFrom deep-copies src into sf using ws-backed storage, so the copy
// shares no mutable state with the source (Backend.Clone's substrate).
func (sf *standardForm) copyFrom(src *standardForm, ws *Workspace) {
	sf.m, sf.nv, sf.n, sf.objZero = src.m, src.nv, src.n, src.objZero
	sf.obj = growF(&ws.sfObj, len(src.obj))
	copy(sf.obj, src.obj)
	sf.ub = growF(&ws.sfUB, len(src.ub))
	copy(sf.ub, src.ub)
	sf.rhs = growF(&ws.sfRHS, len(src.rhs))
	copy(sf.rhs, src.rhs)
	sf.rowMul = growF(&ws.sfRowMul, len(src.rowMul))
	copy(sf.rowMul, src.rowMul)
	sf.colScale = nil
	if src.colScale != nil {
		sf.colScale = growF(&ws.sfColScale, len(src.colScale))
		copy(sf.colScale, src.colScale)
	}
	sf.colPtr = growI32(&ws.sfPtr, len(src.colPtr))
	copy(sf.colPtr, src.colPtr)
	sf.colRow = growI32(&ws.sfRow, len(src.colRow))
	copy(sf.colRow, src.colRow)
	sf.colVal = growF(&ws.sfVal, len(src.colVal))
	copy(sf.colVal, src.colVal)
	sf.rowPtr, sf.rowCol, sf.rowVal = nil, nil, nil
	if src.rowPtr != nil {
		sf.rowPtr = growI32(&ws.sfRowPtr, len(src.rowPtr))
		copy(sf.rowPtr, src.rowPtr)
		sf.rowCol = growI32(&ws.sfRowCol, len(src.rowCol))
		copy(sf.rowCol, src.rowCol)
		sf.rowVal = growF(&ws.sfRowVal, len(src.rowVal))
		copy(sf.rowVal, src.rowVal)
	}
}

// buildRows builds the row-wise copy of the structural columns into
// ws-backed storage (a transpose of the CSC arrays, O(nnz)).
func (sf *standardForm) buildRows(ws *Workspace) {
	ptr := growI32(&ws.sfRowPtr, sf.m+1)
	for r := range ptr {
		ptr[r] = 0
	}
	for _, r := range sf.colRow {
		ptr[r+1]++
	}
	for r := 0; r < sf.m; r++ {
		ptr[r+1] += ptr[r]
	}
	nnz := len(sf.colRow)
	col := growI32(&ws.sfRowCol, nnz)
	val := growF(&ws.sfRowVal, nnz)
	next := growI32(&ws.sfNext, sf.m)
	copy(next, ptr[:sf.m])
	for j := 0; j < sf.nv; j++ {
		for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
			r := sf.colRow[k]
			col[next[r]] = int32(j)
			val[next[r]] = sf.colVal[k]
			next[r]++
		}
	}
	sf.rowPtr, sf.rowCol, sf.rowVal = ptr, col, val
}

// scatterColumn adds scale·(column j) into the dense vector v.
func (sf *standardForm) scatterColumn(j int, scale float64, v []float64) {
	if j >= sf.nv {
		v[j-sf.nv] += scale
		return
	}
	for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
		v[sf.colRow[k]] += scale * sf.colVal[k]
	}
}

// dotColumn returns y·a_j for the dense vector y.
func (sf *standardForm) dotColumn(j int, y []float64) float64 {
	if j >= sf.nv {
		return y[j-sf.nv]
	}
	s := 0.0
	for k := sf.colPtr[j]; k < sf.colPtr[j+1]; k++ {
		s += y[sf.colRow[k]] * sf.colVal[k]
	}
	return s
}

// colNNZ returns the stored nonzero count of column j (1 for slacks).
func (sf *standardForm) colNNZ(j int) int {
	if j >= sf.nv {
		return 1
	}
	return int(sf.colPtr[j+1] - sf.colPtr[j])
}

// objAt returns the objective coefficient of column j (0 for slacks).
func (sf *standardForm) objAt(j int) float64 {
	if j >= sf.nv {
		return 0
	}
	return sf.obj[j]
}

// basisRep abstracts the representation of the basis inverse B⁻¹. The
// solver core drives it through four operations; the dense backend keeps an
// explicit m×m inverse, the sparse backend a product-form eta file.
type basisRep interface {
	// reset reinstalls the identity (the all-slack basis).
	reset(m int)
	// ftran overwrites v with B⁻¹·v.
	ftran(v []float64)
	// ftranSparse is ftran for a v whose nonzeros lie in the rows of pat,
	// each listed once and set in mark. It appends every row that fills to
	// pat, setting its mark, and returns the extended pattern; v comes out
	// bit-identical to ftran's. The caller clears the marks.
	ftranSparse(v []float64, mark []bool, pat []int32) []int32
	// btran overwrites y with yᵀ·B⁻¹ (y is treated as a row vector).
	btran(y []float64)
	// btranUnit overwrites y with row r of B⁻¹ (eᵣᵀ·B⁻¹).
	btranUnit(r int, y []float64)
	// update records a basis change at row r whose entering column, in
	// current basis coordinates, is w (so w[r] is the pivot element). pat
	// lists, once each, rows that cover every nonzero of w (r among them);
	// the eta file reads w over pat only.
	update(r int, w []float64, pat []int32)
	// shouldRefactor reports that the representation has grown stale
	// (e.g. the eta file is long) and a refactorization would pay off.
	shouldRefactor() bool
	// markRefactored tells the representation that the updates applied
	// since the last reset constitute a fresh factorization (so its size
	// is the new staleness baseline, not accumulated churn).
	markRefactored()
	// clone returns an independent deep copy: applying updates to either
	// copy never perturbs the other (Backend.Clone's substrate).
	clone() basisRep
}

// etaDropTol drops negligible eta entries; values this small are far below
// the solver's pivot tolerance and only bloat the file.
const etaDropTol = 1e-13

// etaFile is the product-form inverse: B⁻¹ = E_K···E_1 where each eta
// matrix E is the identity with column pivRow replaced by the stored
// entries. ftran applies etas oldest→newest, btran newest→oldest.
//
// No per-column operation scans all m rows: ftranSparse grows the column's
// pattern as etas fill it, and update stores an eta from that pattern
// alone, in pattern order. The marks ftranSparse sets belong to the caller
// (solverState.ftranColumn clears them before it returns).
type etaFile struct {
	m      int
	pivRow []int32
	start  []int32 // len(pivRow)+1 offsets into idx/val
	idx    []int32
	val    []float64
	nnz    int

	// Refactorization baseline: the file size right after the last
	// refactorization. A large basis legitimately factorizes into a large
	// file, so staleness is measured relative to it, not absolutely —
	// otherwise refactoring could re-trigger itself forever.
	baseNNZ  int
	baseEtas int
}

func (e *etaFile) reset(m int) {
	e.m = m
	e.pivRow = e.pivRow[:0]
	e.start = append(e.start[:0], 0)
	e.idx = e.idx[:0]
	e.val = e.val[:0]
	e.nnz = 0
	e.baseNNZ = 0
	e.baseEtas = 0
}

// ftran and btran re-slice each eta's idx/val to the same length, so the
// inner loops index them without bounds checks.
func (e *etaFile) ftran(v []float64) {
	for k, r := range e.pivRow {
		t := v[r]
		if t == 0 {
			continue
		}
		v[r] = 0
		idx := e.idx[e.start[k]:e.start[k+1]]
		val := e.val[e.start[k]:e.start[k+1]]
		val = val[:len(idx)]
		for q, i := range idx {
			v[i] += val[q] * t
		}
	}
}

func (e *etaFile) ftranSparse(v []float64, mark []bool, pat []int32) []int32 {
	for k, r := range e.pivRow {
		t := v[r]
		if t == 0 {
			continue
		}
		v[r] = 0
		idx := e.idx[e.start[k]:e.start[k+1]]
		val := e.val[e.start[k]:e.start[k+1]]
		val = val[:len(idx)]
		for q, i := range idx {
			// Only a row still at zero can be new to the pattern.
			vi := v[i]
			if vi == 0 && !mark[i] {
				mark[i] = true
				pat = append(pat, i)
			}
			v[i] = vi + val[q]*t
		}
	}
	return pat
}

func (e *etaFile) btran(y []float64) {
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		idx := e.idx[e.start[k]:e.start[k+1]]
		val := e.val[e.start[k]:e.start[k+1]]
		val = val[:len(idx)]
		s := 0.0
		for q, i := range idx {
			s += y[i] * val[q]
		}
		y[e.pivRow[k]] = s
	}
}

func (e *etaFile) btranUnit(r int, y []float64) {
	for i := range y {
		y[i] = 0
	}
	y[r] = 1
	e.btran(y)
}

func (e *etaFile) update(r int, w []float64, pat []int32) {
	inv := 1 / w[r]
	e.pivRow = append(e.pivRow, int32(r))
	for _, i := range pat {
		wi := w[i]
		var v float64
		if int(i) == r {
			v = inv
		} else if wi != 0 {
			v = -wi * inv
		} else {
			continue
		}
		if math.Abs(v) < etaDropTol {
			continue
		}
		e.idx = append(e.idx, i)
		e.val = append(e.val, v)
		e.nnz++
	}
	e.start = append(e.start, int32(len(e.idx)))
}

func (e *etaFile) shouldRefactor() bool {
	// Refactorizing replays one ftran+update per basic column; it pays off
	// once the accumulated churn (file growth beyond the post-refactor
	// baseline) costs several times a fresh factorization, and is pointless
	// before a meaningful number of pivots has accumulated.
	if len(e.pivRow)-e.baseEtas < 64 {
		return false
	}
	return e.nnz > 2*e.baseNNZ+4*e.m+1024
}

func (e *etaFile) markRefactored() {
	e.baseNNZ = e.nnz
	e.baseEtas = len(e.pivRow)
}

func (e *etaFile) clone() basisRep {
	return &etaFile{
		m:        e.m,
		pivRow:   append([]int32(nil), e.pivRow...),
		start:    append([]int32(nil), e.start...),
		idx:      append([]int32(nil), e.idx...),
		val:      append([]float64(nil), e.val...),
		nnz:      e.nnz,
		baseNNZ:  e.baseNNZ,
		baseEtas: e.baseEtas,
	}
}
