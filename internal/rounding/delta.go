package rounding

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lp"
)

// ApplyDelta patches the relaxation in place so it models newIn =
// d.Apply(rel instance), retaining as much of the solved LP state as the
// delta allows. searchUpper is the largest makespan guess the next dual
// search may evaluate (the engine derives it from the patched previous
// schedule and Delta.AcceptedCap); it must not exceed the build envelope,
// since variables for processing times above the envelope were never
// created.
//
// The patch rungs, cheapest first:
//
//   - Pure clamp patch (job departure, machine removal): the existing
//     backend is mutated with SetVarUpper/SetRHS like a guess change, and
//     the warm basis survives untouched.
//   - Extend-and-transplant (job arrival, machine addition, resize): the
//     retained lp.Problem grows by the delta's columns and rows (AddTerm
//     appends coefficient deltas to existing rows), and the current basis
//     is remapped onto the grown standard form (lp.ExtendBasis) for a
//     deferred rebuild-plus-Warm at the next ReSolve — a handful of
//     dual-simplex repair pivots instead of a cold phase-1 solve.
//   - Anything the first two rungs cannot express soundly (bracket above
//     the envelope, a job left with no variable, an infeasible retained
//     model) returns an error, and the caller falls back to a cold
//     NewRelaxation on newIn.
//
// Ownership contract: ApplyDelta must only be called once the search that
// used the relaxation has finished and the caller holds the sole live
// reference (the engine's retention store hands out states exclusively).
// The instance newIn must be the exact value later passed to
// ScheduleDetailed — the warm path matches them by pointer identity.
func (rel *Relaxation) ApplyDelta(d core.Delta, newIn *core.Instance, searchUpper float64) error {
	if rel.mdl.infeasible {
		return fmt.Errorf("rounding: ApplyDelta on an infeasible relaxation")
	}
	if !(searchUpper > 0) || searchUpper > rel.envelope+core.Eps {
		return fmt.Errorf("rounding: ApplyDelta bracket %g outside envelope %g", searchUpper, rel.envelope)
	}
	// A still-deferred earlier patch must land before this one composes
	// with backend state.
	if rel.stale {
		rel.materialize()
	}
	if rel.be == nil {
		return fmt.Errorf("rounding: ApplyDelta on a relaxation without a backend")
	}
	switch d.Kind {
	case core.DeltaJobDepart:
		return rel.patchDepart(d, newIn)
	case core.DeltaMachineRemove:
		return rel.patchMachineRemove(d, newIn)
	case core.DeltaJobArrive:
		return rel.patchArrive(d, newIn)
	case core.DeltaMachineAdd:
		return rel.patchMachineAdd(newIn)
	case core.DeltaJobResize:
		return rel.patchResize(d, newIn)
	}
	return fmt.Errorf("rounding: ApplyDelta does not support delta kind %v", d.Kind)
}

// rebuildAvail recomputes the per-job unbanned-variable counts from the
// filtered xv/banned state.
func (rel *Relaxation) rebuildAvail(n int) {
	rel.avail = make([]int, n)
	for t, xv := range rel.mdl.xv {
		if !rel.banned[t] {
			rel.avail[xv.j]++
		}
	}
}

// patchDepart clamps the departing job's columns and pins its assignment
// row to zero — a pure in-place mutation the warm basis survives.
func (rel *Relaxation) patchDepart(d core.Delta, newIn *core.Instance) error {
	mdl, in := rel.mdl, rel.in
	if newIn.N != in.N-1 || newIn.M != in.M || d.Job < 0 || d.Job >= in.N {
		return fmt.Errorf("rounding: departure delta does not fit the relaxation")
	}
	jd := d.Job
	for i := 0; i < in.M; i++ {
		if v := mdl.xIdx[i][jd]; v >= 0 {
			rel.dead = append(rel.dead, v)
			rel.be.SetVarUpper(v, 0)
		}
		mdl.xIdx[i] = append(mdl.xIdx[i][:jd:jd], mdl.xIdx[i][jd+1:]...)
	}
	r := mdl.asgRow[jd]
	rel.deadRows = append(rel.deadRows, r)
	rel.be.SetRHS(r, 0)
	mdl.asgRow = append(mdl.asgRow[:jd:jd], mdl.asgRow[jd+1:]...)
	// Filter the clamp list in lockstep with its banned flags, shifting job
	// indices above the departed one.
	xv, banned := mdl.xv[:0], rel.banned[:0]
	for t := range mdl.xv {
		e := mdl.xv[t]
		if e.j == jd {
			continue
		}
		if e.j > jd {
			e.j--
		}
		xv = append(xv, e)
		banned = append(banned, rel.banned[t])
	}
	mdl.xv, rel.banned = xv, banned
	rel.rebuildAvail(newIn.N)
	rel.frac = makeFractional(newIn.M, newIn.N, newIn.K)
	rel.in = newIn
	return nil
}

// patchMachineRemove clamps every column of the removed machine. With all
// its terms clamped the machine's load row reads −τ ≤ 0, which every
// solution satisfies.
func (rel *Relaxation) patchMachineRemove(d core.Delta, newIn *core.Instance) error {
	mdl, in := rel.mdl, rel.in
	if newIn.M != in.M-1 || newIn.N != in.N || d.Machine < 0 || d.Machine >= in.M {
		return fmt.Errorf("rounding: machine-remove delta does not fit the relaxation")
	}
	i0 := d.Machine
	// Precheck before any mutation: every job must keep at least one
	// variable on the surviving machines, or the relaxation could reject
	// guesses the instance actually admits above the envelope.
	for j := 0; j < in.N; j++ {
		ok := false
		for i := 0; i < in.M && !ok; i++ {
			ok = i != i0 && mdl.xIdx[i][j] >= 0
		}
		if !ok {
			return fmt.Errorf("rounding: removing machine %d leaves job %d without variables at the envelope", i0, j)
		}
	}
	gone := make(map[int]bool)
	for j := 0; j < in.N; j++ {
		if v := mdl.xIdx[i0][j]; v >= 0 {
			gone[v] = true
			rel.dead = append(rel.dead, v)
			rel.be.SetVarUpper(v, 0)
		}
	}
	for k := 0; k < in.K; k++ {
		if v := mdl.yIdx[i0][k]; v >= 0 {
			rel.dead = append(rel.dead, v)
			rel.be.SetVarUpper(v, 0)
		}
	}
	mdl.xIdx = append(mdl.xIdx[:i0:i0], mdl.xIdx[i0+1:]...)
	mdl.yIdx = append(mdl.yIdx[:i0:i0], mdl.yIdx[i0+1:]...)
	mdl.loadRow = append(mdl.loadRow[:i0:i0], mdl.loadRow[i0+1:]...)
	xv, banned := mdl.xv[:0], rel.banned[:0]
	for t := range mdl.xv {
		if gone[mdl.xv[t].v] {
			continue
		}
		xv = append(xv, mdl.xv[t])
		banned = append(banned, rel.banned[t])
	}
	mdl.xv, rel.banned = xv, banned
	rel.rebuildAvail(newIn.N)
	rel.frac = makeFractional(newIn.M, newIn.N, newIn.K)
	rel.in = newIn
	return nil
}

// addXVar appends a fresh x_ij variable with all its constraint presence:
// the machine's load row (created on demand), job j's assignment row
// (asgRow < 0 means the caller builds the row itself afterwards), and its
// setup domination (4) as a variable upper bound.
func (rel *Relaxation) addXVar(i, j int, p float64, yv int, asgRow int) int {
	prob := rel.mdl.prob
	v := prob.AddVar(0, 1)
	if p > 0 {
		rel.addLoadTerm(i, lp.Term{Var: v, Coef: p})
	}
	if asgRow >= 0 {
		prob.AddTerm(asgRow, lp.Term{Var: v, Coef: 1})
	}
	prob.AddVUB(v, yv)
	rel.mdl.xv = append(rel.mdl.xv, relaxVar{v: v, j: j, p: p})
	rel.banned = append(rel.banned, false)
	return v
}

// addLoadTerm adds a term to machine i's load row, creating the row when
// the machine had none.
func (rel *Relaxation) addLoadTerm(i int, t lp.Term) {
	if r := rel.mdl.loadRow[i]; r >= 0 {
		rel.mdl.prob.AddTerm(r, t)
	} else {
		rel.mdl.addLoadRow(i, t)
	}
}

// extend finalizes a model-growing patch: the current basis is remapped
// onto the grown standard form and the backend rebuild is deferred to the
// next ReSolve.
func (rel *Relaxation) extend(oldVars, oldRows int) {
	snap := rel.be.Basis()
	ext, err := lp.ExtendBasis(snap, oldVars, rel.mdl.prob.NumVars(), oldRows, rel.mdl.prob.NumRows())
	if err != nil {
		ext = nil // rebuild cold; the patch itself stays valid
	}
	rel.pending, rel.stale = ext, true
	rel.be = nil
}

// patchArrive grows the model by the arriving job's columns and rows.
func (rel *Relaxation) patchArrive(d core.Delta, newIn *core.Instance) error {
	mdl, in := rel.mdl, rel.in
	if newIn.N != in.N+1 || newIn.M != in.M {
		return fmt.Errorf("rounding: arrival delta does not fit the relaxation")
	}
	jn := newIn.N - 1
	k := newIn.Class[jn]
	oldVars, oldRows := mdl.prob.NumVars(), mdl.prob.NumRows()
	type cand struct {
		i  int
		p  float64
		yv int
	}
	var cands []cand
	for i := 0; i < newIn.M; i++ {
		p := newIn.P[i][jn]
		if !core.IsFinite(p) || p > rel.envelope+core.Eps || !core.IsFinite(newIn.S[i][k]) {
			continue
		}
		if mdl.yIdx[i][k] < 0 {
			// The arrival flipped S[i][k] from infinite to finite (first
			// class-k job eligible on machine i): the retained model has no
			// setup variable there, and patching around it would let the
			// relaxation reject guesses newIn actually admits. Fall back to
			// a cold rebuild.
			return fmt.Errorf("rounding: arrival changes the setup structure on machine %d", i)
		}
		cands = append(cands, cand{i: i, p: p, yv: mdl.yIdx[i][k]})
	}
	if len(cands) == 0 {
		return fmt.Errorf("rounding: arriving job has no machine at the envelope %g", rel.envelope)
	}
	// New columns first (load-row coefficient included), then the job's
	// assignment row over all of them, then the (4) bounds — addXVar is told
	// to skip the assignment row so it can be built as one EQ constraint.
	vars := make([]int, len(cands))
	asgTerms := make([]lp.Term, len(cands))
	for c, cd := range cands {
		v := mdl.prob.AddVar(0, 1)
		if cd.p > 0 {
			rel.addLoadTerm(cd.i, lp.Term{Var: v, Coef: cd.p})
		}
		vars[c] = v
		asgTerms[c] = lp.Term{Var: v, Coef: 1}
	}
	mdl.asgRow = append(mdl.asgRow, mdl.prob.NumRows())
	mdl.prob.AddConstraint(lp.EQ, 1, asgTerms...)
	for c, cd := range cands {
		mdl.prob.AddVUB(vars[c], cd.yv)
		mdl.xv = append(mdl.xv, relaxVar{v: vars[c], j: jn, p: cd.p})
		rel.banned = append(rel.banned, false)
	}
	for i := 0; i < newIn.M; i++ {
		mdl.xIdx[i] = append(mdl.xIdx[i], -1)
	}
	for c, cd := range cands {
		mdl.xIdx[cd.i][jn] = vars[c]
	}
	rel.extend(oldVars, oldRows)
	rel.rebuildAvail(newIn.N)
	rel.frac = makeFractional(newIn.M, newIn.N, newIn.K)
	rel.in = newIn
	return nil
}

// patchMachineAdd grows the model by the new machine's x and y columns,
// its load row, and its (4) bounds, appending assignment-row terms in place.
func (rel *Relaxation) patchMachineAdd(newIn *core.Instance) error {
	mdl, in := rel.mdl, rel.in
	if newIn.M != in.M+1 || newIn.N != in.N {
		return fmt.Errorf("rounding: machine-add delta does not fit the relaxation")
	}
	i0 := newIn.M - 1
	oldVars, oldRows := mdl.prob.NumVars(), mdl.prob.NumRows()
	prob := mdl.prob
	yRow := make([]int, newIn.K)
	var loadTerms []lp.Term
	for k := 0; k < newIn.K; k++ {
		yRow[k] = -1
		if s := newIn.S[i0][k]; core.IsFinite(s) {
			yRow[k] = prob.AddVar(0, 1)
			if s > 0 {
				loadTerms = append(loadTerms, lp.Term{Var: yRow[k], Coef: s})
			}
		}
	}
	xRow := make([]int, newIn.N)
	type pair struct {
		v, yv int
	}
	var fours []pair
	for j := 0; j < newIn.N; j++ {
		xRow[j] = -1
		p := newIn.P[i0][j]
		k := newIn.Class[j]
		if !core.IsFinite(p) || p > rel.envelope+core.Eps || yRow[k] < 0 {
			continue
		}
		v := prob.AddVar(0, 1)
		xRow[j] = v
		if p > 0 {
			loadTerms = append(loadTerms, lp.Term{Var: v, Coef: p})
		}
		prob.AddTerm(mdl.asgRow[j], lp.Term{Var: v, Coef: 1})
		fours = append(fours, pair{v: v, yv: yRow[k]})
		mdl.xv = append(mdl.xv, relaxVar{v: v, j: j, p: p})
		rel.banned = append(rel.banned, false)
	}
	mdl.loadRow = append(mdl.loadRow, -1)
	if len(loadTerms) > 0 {
		mdl.addLoadRow(i0, loadTerms...)
	}
	for _, f := range fours {
		prob.AddVUB(f.v, f.yv)
	}
	mdl.xIdx = append(mdl.xIdx, xRow)
	mdl.yIdx = append(mdl.yIdx, yRow)
	rel.extend(oldVars, oldRows)
	rel.rebuildAvail(newIn.N)
	rel.frac = makeFractional(newIn.M, newIn.N, newIn.K)
	rel.in = newIn
	return nil
}

// patchResize shifts the resized job's load-row coefficients by their
// deltas (the triplet storage accumulates), adds columns the new sizes
// newly admit, and kills columns the new sizes make ineligible. The model
// keeps its meaning for every consumer, but the existing backend predates
// the coefficient change, so the backend is always rebuilt (with the
// current basis transplanted — same or grown shape).
func (rel *Relaxation) patchResize(d core.Delta, newIn *core.Instance) error {
	mdl, in := rel.mdl, rel.in
	if newIn.N != in.N || newIn.M != in.M || d.Job < 0 || d.Job >= in.N {
		return fmt.Errorf("rounding: resize delta does not fit the relaxation")
	}
	j0 := d.Job
	k := in.Class[j0]
	oldVars, oldRows := mdl.prob.NumVars(), mdl.prob.NumRows()
	changed := false
	var killed map[int]bool
	for i := 0; i < in.M; i++ {
		pOld, pNew := in.P[i][j0], newIn.P[i][j0]
		v := mdl.xIdx[i][j0]
		switch {
		case v >= 0 && core.IsFinite(pNew):
			if pNew == pOld {
				continue
			}
			changed = true
			if mdl.loadRow[i] >= 0 {
				mdl.prob.AddTerm(mdl.loadRow[i], lp.Term{Var: v, Coef: pNew - pOld})
			} else if pNew > 0 {
				mdl.addLoadRow(i, lp.Term{Var: v, Coef: pNew})
			}
			for t := range mdl.xv {
				if mdl.xv[t].v == v {
					mdl.xv[t].p = pNew
					break
				}
			}
		case v >= 0: // eligibility lost
			changed = true
			rel.dead = append(rel.dead, v)
			if killed == nil {
				killed = make(map[int]bool)
			}
			killed[v] = true
			mdl.xIdx[i][j0] = -1
		case core.IsFinite(pNew) && pNew <= rel.envelope+core.Eps && mdl.yIdx[i][k] >= 0:
			changed = true
			mdl.xIdx[i][j0] = rel.addXVar(i, j0, pNew, mdl.yIdx[i][k], mdl.asgRow[j0])
		}
	}
	if !changed {
		rel.in = newIn
		return nil
	}
	ok := false
	for i := 0; i < in.M && !ok; i++ {
		ok = mdl.xIdx[i][j0] >= 0
	}
	if !ok {
		return fmt.Errorf("rounding: resized job %d has no machine at the envelope %g", j0, rel.envelope)
	}
	if killed != nil {
		xv, banned := mdl.xv[:0], rel.banned[:0]
		for t := range mdl.xv {
			if killed[mdl.xv[t].v] {
				continue
			}
			xv = append(xv, mdl.xv[t])
			banned = append(banned, rel.banned[t])
		}
		mdl.xv, rel.banned = xv, banned
	}
	rel.extend(oldVars, oldRows)
	rel.rebuildAvail(newIn.N)
	rel.in = newIn
	return nil
}

// Envelope reports the makespan value the relaxation was built at — the
// ceiling ApplyDelta accepts for the next search bracket.
func (rel *Relaxation) Envelope() float64 { return rel.envelope }

// Instance returns the instance the relaxation currently models (the
// post-delta instance after ApplyDelta).
func (rel *Relaxation) Instance() *core.Instance { return rel.in }
