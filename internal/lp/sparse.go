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

	obj     []float64 // length nv (slack cost is 0)
	ub      []float64 // length n: structural bounds then slack bounds
	rhs     []float64 // length m, current (sign-adjusted) right-hand sides
	rowSign []float64 // +1/-1 per row, applied to SetRHS updates

	objZero bool // every objective coefficient is 0 (a feasibility LP)
}

// build populates the standard form from a Problem, reusing ws buffers.
func (sf *standardForm) build(p *Problem, ws *Workspace) {
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
	sf.rowSign = growF(&ws.sfSign, m)

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
		sf.rowSign[r] = sign
		sf.rhs[r] = sign * row.rhs
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
		sf.colVal[k] = sf.rowSign[r] * p.tCoef[t]
		next[v] = k + 1
	}
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
	sf.rowSign = growF(&ws.sfSign, len(src.rowSign))
	copy(sf.rowSign, src.rowSign)
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
