package lp

// Workspace holds every per-solve scratch buffer a backend needs — work
// vectors, the standard-form arrays, refactorization marks, the solution
// vector — as grow-only slices, so that building a backend and re-solving
// it repeatedly allocates (almost) nothing after the first use. A
// Workspace can be handed to successive NewBackend calls (e.g. one per
// makespan guess, or a cold rebuild after a warm-start failure) to recycle
// the memory across problem instances of similar shape.
//
// A Workspace must not be shared by two backends that are alive at the
// same time, and is not safe for concurrent use.
type Workspace struct {
	// standard-form storage, and its row-wise (CSR) copy
	sfObj, sfUB, sfRHS, sfRowMul, sfVal []float64
	sfCnt, sfPtr, sfRow, sfNext         []int32
	sfRowPtr, sfRowCol                  []int32
	sfRowVal                            []float64
	// variable upper bounds: key and ratio per column, keys' column lists,
	// and each column's slot or key position
	sfVubKey, sfKeyPtr, sfKeyX, sfKeys, sfPlain, sfVubPos []int32
	sfVubR                                                []float64
	// equilibration factors and their per-pass maxima
	sfRowScale, sfColScale, sfRowMax, sfColMax []float64

	// maintained reduced costs (n), and the pivot row's dense values (n)
	// with its structural support marks (nv) and support list
	d, alpha []float64
	mark     []bool
	touched  []int32

	// dense m-vectors
	xB, w, y, rho, rhsEff []float64
	// the FTRAN'd column's pattern (the rows w may be nonzero on) and the
	// row marks that build it, clear between ftranColumn calls
	colPat  []int32
	colMark []bool
	// the row of each basic structural column (nv); a trivial eta's dense
	// column (m, zero between uses) and a composite column's parts
	pos    []int32
	etaCol []float64
	parts  []int32
	// VUB pricing state, kept current across pivots (see solverState).
	// Per keyX slot (nVUB): the bound sign (−1 at 0, +1 at r·y, 0 basic or
	// clamped), a copy of d, and the rider lists, each key's riders at the
	// front of its own slot range. Per key (len(keys)): the rider count,
	// the rider-set signature, and the composite column's norm with the
	// signature that norm is for.
	vubSgn          []int8
	vubD            []float64
	riderX          []int32
	riders          []int32
	keySig, normSig []uint64
	keyNorm         []float64
	normRows        []int32
	// solution output (nv)
	x []float64
	// refactorization scratch: the structural basic columns (the bump),
	// their pattern counts and count-bucket links, the live-row counts,
	// and the row→column CSR of the bump pattern.
	newBasis                []int
	cnt, bhead, bnext       []int
	rc, rowStack            []int
	rowPtr, rowCol, rowFill []int32
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow resizes *s to n, reallocating only when capacity is exceeded.
// Contents are unspecified (callers overwrite).
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}
