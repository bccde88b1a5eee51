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

// growF resizes *s to n, reallocating only when capacity is exceeded.
// Contents are unspecified (callers overwrite).
func growF(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

func growI32(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

func growBool(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n)
	}
	*s = (*s)[:n]
	return *s
}

func growInt(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	*s = (*s)[:n]
	return *s
}
