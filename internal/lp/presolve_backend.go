package lp

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/lp/presolve"
)

// BackendOption configures NewBackend beyond the kind/problem/workspace
// triple. Options are additive so existing call sites keep compiling.
type BackendOption func(*backendConfig)

type backendConfig struct {
	presolve bool
	start    *Basis
}

// WithPresolve toggles the presolve+scaling pipeline in front of the
// backend (default: on). When on, the first cold Solve runs the reduction
// pipeline on the mutated problem (so clamps written before the first
// Solve are eliminated, not ground through), solves the reduced/equilibrated
// LP, and postsolves solutions and bases exactly. Mutations that invalidate
// a recorded reduction transparently fall back to the unreduced problem,
// transplanting the postsolved basis, so verdicts are always exact.
func WithPresolve(on bool) BackendOption {
	return func(c *backendConfig) { c.presolve = on }
}

// WithStart hands the backend a start basis for its first Solve, in the
// full standard form of the Problem (the shape Basis and Warm use). The
// first cold Solve begins at it instead of at the all-slack basis: a
// primal-feasible start skips phase 1. Behind presolve the start is used
// only when the reductions removed no row and no column (it then maps onto
// the scaled problem unchanged); otherwise, or when the basis is rejected
// or singular, that solve runs cold; the ipm backend always starts cold.
// Later solves never see it. Whether a solve used it is reported by
// Solution.FromStart.
func WithStart(b *Basis) BackendOption {
	return func(c *backendConfig) { c.start = b }
}

// PresolveInfo reports what the presolve pipeline did for one backend
// build. It is attached to every Solution solved through a presolved
// backend (Solution.Presolve).
type PresolveInfo struct {
	RowsBefore, RowsAfter int
	ColsBefore, ColsAfter int
	NNZBefore, NNZAfter   int
	ScalePasses           int
	// Bypassed is set when a mutation invalidated the recorded reductions
	// and the backend fell back to the full problem.
	Bypassed bool
}

// RowReduction returns the fraction of rows eliminated (0 when bypassed).
func (pi *PresolveInfo) RowReduction() float64 {
	if pi == nil || pi.RowsBefore == 0 {
		return 0
	}
	return float64(pi.RowsBefore-pi.RowsAfter) / float64(pi.RowsBefore)
}

// NNZReduction returns the fraction of nonzeros eliminated.
func (pi *PresolveInfo) NNZReduction() float64 {
	if pi == nil || pi.NNZBefore == 0 {
		return 0
	}
	return float64(pi.NNZBefore-pi.NNZAfter) / float64(pi.NNZBefore)
}

// PresolveTotalsSnapshot is a process-wide aggregate of presolve activity,
// for /statsz and schedbench reporting.
type PresolveTotalsSnapshot struct {
	Runs        int64 `json:"runs"`
	Bypasses    int64 `json:"bypasses"`
	Infeasible  int64 `json:"infeasible"`
	RowsBefore  int64 `json:"rowsBefore"`
	RowsAfter   int64 `json:"rowsAfter"`
	ColsBefore  int64 `json:"colsBefore"`
	ColsAfter   int64 `json:"colsAfter"`
	NNZBefore   int64 `json:"nnzBefore"`
	NNZAfter    int64 `json:"nnzAfter"`
	ScalePasses int64 `json:"scalePasses"`
}

var presolveAgg struct {
	runs, bypasses, infeasible       atomic.Int64
	rowsBefore, rowsAfter            atomic.Int64
	colsBefore, colsAfter            atomic.Int64
	nnzBefore, nnzAfter, scalePasses atomic.Int64
}

// PresolveTotals snapshots the process-wide presolve aggregates.
func PresolveTotals() PresolveTotalsSnapshot {
	return PresolveTotalsSnapshot{
		Runs:        presolveAgg.runs.Load(),
		Bypasses:    presolveAgg.bypasses.Load(),
		Infeasible:  presolveAgg.infeasible.Load(),
		RowsBefore:  presolveAgg.rowsBefore.Load(),
		RowsAfter:   presolveAgg.rowsAfter.Load(),
		ColsBefore:  presolveAgg.colsBefore.Load(),
		ColsAfter:   presolveAgg.colsAfter.Load(),
		NNZBefore:   presolveAgg.nnzBefore.Load(),
		NNZAfter:    presolveAgg.nnzAfter.Load(),
		ScalePasses: presolveAgg.scalePasses.Load(),
	}
}

// ResetPresolveTotals zeroes the process-wide presolve aggregates.
func ResetPresolveTotals() {
	presolveAgg.runs.Store(0)
	presolveAgg.bypasses.Store(0)
	presolveAgg.infeasible.Store(0)
	presolveAgg.rowsBefore.Store(0)
	presolveAgg.rowsAfter.Store(0)
	presolveAgg.colsBefore.Store(0)
	presolveAgg.colsAfter.Store(0)
	presolveAgg.nnzBefore.Store(0)
	presolveAgg.nnzAfter.Store(0)
	presolveAgg.scalePasses.Store(0)
}

// presolveBackend wraps a concrete backend behind the reduction pipeline.
// It has three states:
//
//   - pending: no inner backend yet. Mutations accumulate in the local
//     full-space arrays; the first Solve presolves the mutated problem
//     (this is how the ub-clamps ReSolve writes before the first solve get
//     eliminated instead of solved around).
//   - presolved: the inner backend holds the reduced+scaled problem.
//     Mutations that touch surviving rows/columns forward in reduced
//     coordinates; verdicts, X, objective and bases postsolve exactly.
//   - bypass: a mutation invalidated a recorded reduction (raising a bound
//     the redundancy analysis consumed, re-activating an eliminated column,
//     moving the RHS of a removed row). The inner backend is rebuilt on the
//     full problem, warm-started from the postsolved basis, and the wrapper
//     becomes a transparent passthrough.
//
// The wrapper snapshots the Problem at construction (same contract as the
// concrete backends: later Problem mutations are not observed).
type presolveBackend struct {
	kind BackendKind // resolved inner kind (never Auto)
	ws   *Workspace

	// Full-space problem snapshot; rhs/ub are the mutable mutation state.
	nv, m int
	obj   []float64 // immutable, shared across clones
	sense []int8    // immutable, shared
	tRow  []int32   // immutable, shared
	tVar  []int32
	tCoef []float64
	ub    []float64 // current bounds (per-clone)
	rhs   []float64 // current rhs (per-clone)

	inner Backend          // nil ⇒ pending
	red   *presolve.Result // nil with inner ⇒ bypass
	info  *PresolveInfo    // stats of the last presolve/bypass (may be nil)
	start *Basis           // WithStart basis, consumed by the first Solve

	xFull  []float64
	solBuf Solution
}

func newPresolveBackend(kind BackendKind, p *Problem, ws *Workspace, start *Basis) *presolveBackend {
	s := &presolveBackend{
		kind:  kind,
		ws:    ws,
		start: start,
		nv:    len(p.obj),
		m:     len(p.rows),
		obj:   append([]float64(nil), p.obj...),
		ub:    append([]float64(nil), p.ub...),
		tRow:  append([]int32(nil), p.tRow...),
		tVar:  append([]int32(nil), p.tVar...),
		tCoef: append([]float64(nil), p.tCoef...),
	}
	s.sense = make([]int8, s.m)
	s.rhs = make([]float64, s.m)
	for r, rm := range p.rows {
		s.sense[r] = int8(rm.sense)
		s.rhs[r] = rm.rhs
	}
	return s
}

// fullProblem materializes the current full-space state as a Problem for a
// bypass rebuild. The triplet slices are shared (the backends copy them
// into their standard form at construction).
func (s *presolveBackend) fullProblem() *Problem {
	p := &Problem{
		obj:   s.obj,
		ub:    s.ub,
		rows:  make([]rowMeta, s.m),
		tRow:  s.tRow,
		tVar:  s.tVar,
		tCoef: s.tCoef,
	}
	for r := range p.rows {
		p.rows[r] = rowMeta{sense: Sense(s.sense[r]), rhs: s.rhs[r]}
	}
	return p
}

// runPresolve reduces the current full-space state and, unless the outcome
// is trivial (infeasible, or nothing survives), builds the inner backend on
// the reduced problem.
func (s *presolveBackend) runPresolve() *presolve.Result {
	in := &presolve.Input{
		NumCols: s.nv,
		NumRows: s.m,
		Obj:     s.obj,
		UB:      s.ub,
		Sense:   s.sense,
		RHS:     s.rhs,
		Row:     s.tRow,
		Col:     s.tVar,
		Coef:    s.tCoef,
	}
	res := presolve.Reduce(in, presolve.Options{Scale: true})
	st := &res.Stats
	s.info = &PresolveInfo{
		RowsBefore: st.RowsBefore, RowsAfter: st.RowsAfter,
		ColsBefore: st.ColsBefore, ColsAfter: st.ColsAfter,
		NNZBefore: st.NNZBefore, NNZAfter: st.NNZAfter,
		ScalePasses: st.ScalePasses,
	}
	presolveAgg.runs.Add(1)
	presolveAgg.rowsBefore.Add(int64(st.RowsBefore))
	presolveAgg.rowsAfter.Add(int64(st.RowsAfter))
	presolveAgg.colsBefore.Add(int64(st.ColsBefore))
	presolveAgg.colsAfter.Add(int64(st.ColsAfter))
	presolveAgg.nnzBefore.Add(int64(st.NNZBefore))
	presolveAgg.nnzAfter.Add(int64(st.NNZAfter))
	presolveAgg.scalePasses.Add(int64(st.ScalePasses))
	if res.Infeasible {
		presolveAgg.infeasible.Add(1)
	}
	return res
}

// reducedProblem assembles the reduced+scaled LP as a Problem.
func reducedProblem(res *presolve.Result) *Problem {
	p := &Problem{
		obj:   res.RObj,
		ub:    res.RUB,
		rows:  make([]rowMeta, len(res.RRHS)),
		tRow:  res.RRow,
		tVar:  res.RCol,
		tCoef: res.RCoef,
	}
	for r := range p.rows {
		p.rows[r] = rowMeta{sense: Sense(res.RSense[r]), rhs: res.RRHS[r]}
	}
	return p
}

func (s *presolveBackend) Solve() (*Solution, error) {
	if s.inner == nil {
		start := s.start
		s.start = nil
		res := s.runPresolve()
		if res.Infeasible {
			// Stay pending: later mutations can restore feasibility, and
			// the next Solve re-presolves the then-current state.
			return s.verdictSolution(Infeasible, 0), nil
		}
		if len(res.RowOrig) == 0 || len(res.ColOrig) == 0 {
			return s.trivialSolution(res), nil
		}
		inner, err := newResolvedBackend(s.kind, reducedProblem(res), s.ws)
		if err != nil {
			return nil, err
		}
		if sim, ok := inner.(*solverState); ok && start != nil && !res.HasReductions() {
			// Nothing was removed, so the reduced problem has the original
			// rows and columns in order: the start applies as it is, and
			// scaling moves no column between its bounds.
			sim.installStart(start)
		}
		s.inner = inner
		s.red = res
	}
	innerSol, err := s.inner.Solve()
	if err != nil {
		return nil, err
	}
	if s.red == nil { // bypass passthrough
		out := &s.solBuf
		*out = *innerSol
		out.Presolve = s.info
		return out, nil
	}
	out := &s.solBuf
	out.Status = innerSol.Status
	out.Iterations = innerSol.Iterations
	out.Refactors = innerSol.Refactors
	out.FromStart = innerSol.FromStart
	out.Presolve = s.info
	out.X = growF(&s.xFull, s.nv)
	out.Objective = 0
	if innerSol.Status == Optimal {
		s.red.PostsolveX(innerSol.X, out.X)
		out.Objective = innerSol.Objective + s.red.FixedObj
	} else {
		for i := range out.X {
			out.X[i] = 0
		}
	}
	return out, nil
}

// verdictSolution reports a presolve-determined verdict without an inner
// backend. The wrapper stays pending so the next Solve re-presolves.
func (s *presolveBackend) verdictSolution(st Status, obj float64) *Solution {
	out := &s.solBuf
	out.Status = st
	out.Iterations = 0
	out.Refactors = 0
	out.FromStart = false
	out.Objective = obj
	out.Presolve = s.info
	out.X = growF(&s.xFull, s.nv)
	for i := range out.X {
		out.X[i] = 0
	}
	return out
}

// trivialSolution finishes a solve where presolve eliminated every row or
// every column: the survivors are independent, so the optimum is read off
// directly. The wrapper stays pending (re-presolving per Solve keeps later
// mutations exact; the reduction is cheap at these sizes).
func (s *presolveBackend) trivialSolution(res *presolve.Result) *Solution {
	const tol = 1e-9
	// Rows that survived with no columns left must hold at zero activity.
	for r2 := range res.RowOrig {
		b := res.RRHS[r2]
		t := tol * (1 + math.Abs(b))
		switch res.RSense[r2] {
		case presolve.SenseLE:
			if b < -t {
				return s.verdictSolution(Infeasible, 0)
			}
		case presolve.SenseGE:
			if b > t {
				return s.verdictSolution(Infeasible, 0)
			}
		default:
			if math.Abs(b) > t {
				return s.verdictSolution(Infeasible, 0)
			}
		}
	}
	// Columns that survived with no rows left move to their cost bound.
	obj := res.FixedObj
	xRed := make([]float64, len(res.ColOrig))
	for j2 := range res.ColOrig {
		if c := res.RObj[j2]; c < 0 {
			u := res.RUB[j2]
			if math.IsInf(u, 1) {
				return s.verdictSolution(Unbounded, 0)
			}
			xRed[j2] = u
			obj += c * u
		}
	}
	out := s.verdictSolution(Optimal, obj)
	res.PostsolveX(xRed, out.X)
	return out
}

func (s *presolveBackend) SetRHS(r int, rhs float64) {
	if r < 0 || r >= s.m {
		panic(fmt.Sprintf("lp: SetRHS row %d out of range", r))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: invalid rhs %v", rhs))
	}
	s.rhs[r] = rhs
	switch {
	case s.inner == nil: // pending: picked up by the next presolve
	case s.red == nil:
		s.inner.SetRHS(r, rhs)
	default:
		r2 := s.red.RowMap[r]
		if r2 < 0 {
			// The row was eliminated assuming its presolve-time RHS; a
			// different value invalidates that reduction.
			if rhs == s.red.RHSAt[r] {
				return
			}
			s.bypass()
			s.inner.SetRHS(r, rhs)
			return
		}
		s.inner.SetRHS(int(r2), (rhs-s.red.RHSShift[r])*s.red.RowScale[r2])
	}
}

func (s *presolveBackend) SetVarUpper(v int, upper float64) {
	if v < 0 || v >= s.nv {
		panic(fmt.Sprintf("lp: SetVarUpper variable %d out of range", v))
	}
	if upper < 0 || math.IsNaN(upper) {
		panic(fmt.Sprintf("lp: invalid upper bound %v", upper))
	}
	s.ub[v] = upper
	switch {
	case s.inner == nil: // pending
	case s.red == nil:
		s.inner.SetVarUpper(v, upper)
	default:
		red := s.red
		if red.Fix[v] != presolve.NotFixed {
			// Re-clamping an eliminated-at-zero column is a no-op; anything
			// else re-activates it and invalidates the elimination.
			if red.Fix[v] == presolve.FixLower && red.FixVal[v] == 0 && upper == 0 {
				return
			}
			s.bypass()
			s.inner.SetVarUpper(v, upper)
			return
		}
		if upper > red.UBAt[v] && red.Stats.RedundantRows > 0 {
			// Redundant-row removal consumed activity bounds built from the
			// presolve-time ub's; raising one past that envelope could
			// resurrect a removed row.
			s.bypass()
			s.inner.SetVarUpper(v, upper)
			return
		}
		eff := upper
		if f := red.UBFold[v]; f < eff {
			eff = f
		}
		j2 := red.ColMap[v]
		s.inner.SetVarUpper(int(j2), eff/red.ColScale[j2])
	}
}

func (s *presolveBackend) Basis() *Basis {
	if s.inner == nil {
		// Pending: the canonical all-slack starting basis.
		b := &Basis{Cols: make([]int, s.m), Status: make([]VarStatus, s.nv+s.m)}
		for r := 0; r < s.m; r++ {
			b.Cols[r] = s.nv + r
			b.Status[s.nv+r] = BasicVar
		}
		return b
	}
	if s.red == nil {
		return s.inner.Basis()
	}
	return s.postsolveBasis(s.inner.Basis())
}

// postsolveBasis maps a reduced-space basis onto the full standard form:
// kept rows and columns carry their statuses over, every removed row is
// basic in its own slack, and eliminated columns sit nonbasic at the bound
// they were pinned to (interior equality-singleton fixes map to the lower
// bound; the receiving dual simplex repairs those in a pivot each). The
// result is block-diagonal over (kept, removed) and hence nonsingular
// whenever the reduced basis is.
func (s *presolveBackend) postsolveBasis(rb *Basis) *Basis {
	red := s.red
	rnv := len(red.ColOrig)
	nb := &Basis{Cols: make([]int, s.m), Status: make([]VarStatus, s.nv+s.m)}
	for r := 0; r < s.m; r++ {
		nb.Cols[r] = s.nv + r
		nb.Status[s.nv+r] = BasicVar
	}
	for r2, rOrig := range red.RowOrig {
		c := rb.Cols[r2]
		if c < rnv {
			nb.Cols[rOrig] = int(red.ColOrig[c])
		} else {
			nb.Cols[rOrig] = s.nv + int(red.RowOrig[c-rnv])
		}
		nb.Status[s.nv+int(rOrig)] = rb.Status[rnv+r2]
	}
	for j2, jOrig := range red.ColOrig {
		nb.Status[jOrig] = rb.Status[j2]
	}
	for j := 0; j < s.nv; j++ {
		switch red.Fix[j] {
		case presolve.FixLower, presolve.FixValue:
			nb.Status[j] = NonbasicLower
		case presolve.FixUpper:
			nb.Status[j] = NonbasicUpper
		}
	}
	return nb
}

func (s *presolveBackend) Warm(b *Basis) error {
	if b == nil || len(b.Cols) != s.m || len(b.Status) != s.nv+s.m {
		return fmt.Errorf("lp: Warm basis has wrong shape (want %d rows, %d columns)", s.m, s.nv+s.m)
	}
	// A full-space basis transplant only makes sense on the full problem.
	if s.inner == nil || s.red != nil {
		if err := s.bypass(); err != nil {
			return err
		}
	}
	return s.inner.Warm(b)
}

// bypass rebuilds the inner backend on the unreduced problem, carrying the
// postsolved basis over so the re-solve is a dual-simplex repair rather
// than a cold start.
func (s *presolveBackend) bypass() error {
	var wb *Basis
	if s.inner != nil && s.red != nil {
		wb = s.postsolveBasis(s.inner.Basis())
	}
	s.red = nil
	inner, err := newResolvedBackend(s.kind, s.fullProblem(), s.ws)
	if err != nil {
		return err
	}
	s.inner = inner
	if wb != nil {
		// Best effort: a failed transplant just means a cold re-solve.
		_ = inner.Warm(wb)
	}
	s.info = &PresolveInfo{
		RowsBefore: s.m, RowsAfter: s.m,
		ColsBefore: s.nv, ColsAfter: s.nv,
		Bypassed: true,
	}
	presolveAgg.bypasses.Add(1)
	return nil
}

func (s *presolveBackend) Kind() BackendKind { return s.kind }

func (s *presolveBackend) Clone() Backend {
	c := &presolveBackend{
		kind: s.kind,
		ws:   NewWorkspace(),
		nv:   s.nv, m: s.m,
		obj:   s.obj, // immutable: shared
		sense: s.sense,
		tRow:  s.tRow,
		tVar:  s.tVar,
		tCoef: s.tCoef,
		ub:    append([]float64(nil), s.ub...),
		rhs:   append([]float64(nil), s.rhs...),
		red:   s.red, // immutable after Reduce: shared
		info:  s.info,
		start: s.start, // read-only: shared
	}
	if s.inner != nil {
		c.inner = s.inner.Clone()
	}
	return c
}
