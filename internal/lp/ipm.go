package lp

import (
	"math"
	"sort"

	"repro/internal/lp/chol"
)

// ipmState is the interior-point backend: a hybrid that runs a primal-dual
// Mehrotra predictor-corrector on the normal equations A·D·Aᵀ for the cold
// first Solve, crosses the converged interior point over to a vertex basis,
// and hands that basis to the embedded revised-simplex core — which then
// owns every subsequent warm re-solve exactly as the pure simplex backends
// do. The division of labor is deliberate:
//
//   - the IPM is an accelerator, never an arbiter: its solution is only
//     used when it fully converged, and even then the simplex re-certifies
//     optimality from the crossover basis. Any other IPM exit (iteration
//     cap, stall, numerical trouble, an infeasible or unbounded instance
//     pushing the iterates apart) falls back to a cold simplex solve, so
//     verdicts — including infeasibility certificates — are always exact
//     simplex verdicts;
//   - Warm() transplants outrank the IPM: installing a basis marks the
//     interior-point phase spent, which keeps ExtendBasis/ApplyDelta
//     pipelines on the cheap dual-simplex path.
//
// The whole hybrid Solve (IPM phase, crossover, simplex cleanup) holds one
// SolveGauge slot, so the governor's LP-peak accounting sees exactly one
// concurrent solve regardless of which phases run.
type ipmState struct {
	sim *solverState
	// crossed: the interior-point phase is spent (a converged first solve
	// crossed over, a fallback ran, or a Warm transplant arrived); every
	// Solve from here on is a plain simplex solve on sim.
	crossed bool
}

func newIPMState(p *Problem, ws *Workspace) *ipmState {
	s := newSolverState(p, ws)
	s.kind = Sparse
	s.inv = &etaFile{}
	s.inv.reset(s.sf.m)
	ip := &ipmState{sim: s}
	if s.sf.m == 0 || s.sf.nv == 0 {
		ip.crossed = true // nothing for an IPM to do on a trivial shape
	}
	return ip
}

func (ip *ipmState) Kind() BackendKind { return IPM }

func (ip *ipmState) SetRHS(r int, rhs float64) { ip.sim.SetRHS(r, rhs) }

func (ip *ipmState) SetVarUpper(v int, upper float64) { ip.sim.SetVarUpper(v, upper) }

func (ip *ipmState) Basis() *Basis { return ip.sim.Basis() }

func (ip *ipmState) Warm(b *Basis) error {
	if err := ip.sim.Warm(b); err != nil {
		return err
	}
	ip.crossed = true
	return nil
}

func (ip *ipmState) Clone() Backend {
	return &ipmState{sim: ip.sim.Clone().(*solverState), crossed: ip.crossed}
}

func (ip *ipmState) Solve() (*Solution, error) {
	SolveGauge.enter()
	defer SolveGauge.exit()
	if ip.crossed {
		return ip.sim.solve()
	}
	ip.crossed = true
	sim := ip.sim
	iters, x, ok := mehrotra(&sim.sf)
	if ok {
		if b := crossoverBasis(&sim.sf, x); b != nil {
			if err := sim.Warm(b); err == nil {
				if sol, err := sim.solve(); err == nil {
					sol.Iterations += iters
					return sol, nil
				}
			}
		}
	}
	// Fallback: the exact two-phase simplex from scratch.
	sim.coldReset()
	sol, err := sim.solve()
	if err != nil {
		return nil, err
	}
	sol.Iterations += iters
	return sol, nil
}

// --- Mehrotra predictor-corrector on the normal equations --------------------

const (
	ipmMaxIters = 100
	// ipmTolFeas is the relative primal/dual residual tolerance.
	ipmTolFeas = 1e-8
	// ipmTolGap is the relative complementarity-gap tolerance.
	ipmTolGap = 1e-9
	// ipmStepFrac keeps the iterates strictly interior.
	ipmStepFrac = 0.9995
	// ipmScatterCap bounds the Σ nnz(a_j)² pair-index table; a column
	// structure dense enough to cross it would also make A·D·Aᵀ explode,
	// so the simplex fallback is the right answer there.
	ipmScatterCap = 1 << 26
	// ipmRefineTol triggers one step of iterative refinement on the normal-
	// equations solve when the relative residual ‖rhs − M·Δy‖∞ exceeds it.
	ipmRefineTol = 1e-9
)

// mehrotra solves min c·x̂ s.t. Â x̂ = b, 0 ≤ x̂ ≤ u over the full column
// space of sf (structural columns and slacks uniformly; fixed columns with
// u=0 are excluded). On convergence it returns the interior primal point
// (length sf.n, slacks included) for the crossover; ok=false means the
// caller must fall back to simplex. iters is always the number of IPM
// iterations spent, converged or not.
func mehrotra(sf *standardForm) (iters int, x []float64, ok bool) {
	m, nv, n := sf.m, sf.nv, sf.n

	// Active set for this (first) solve: the bound state is frozen for the
	// whole IPM run, so clamped columns simply drop out of D and of the
	// residuals. The normal-equations pattern is built over every
	// structural column regardless — it is the superset pattern, and a
	// zero d_j contributes zero values on it.
	act := make([]bool, n)
	fin := make([]bool, n)
	comp := 0 // complementarity pair count
	for j := 0; j < n; j++ {
		u := sf.ub[j]
		if u <= 0 {
			continue
		}
		act[j] = true
		comp++
		if !math.IsInf(u, 1) {
			fin[j] = true
			comp++
		}
	}
	if comp == 0 {
		return 0, nil, false
	}

	// --- symbolic setup: pattern of M = Â·D·Âᵀ (diagonal always present),
	// plus the per-column pair→entry scatter table that makes each numeric
	// assembly a single indexed pass.
	snnz := int(sf.colPtr[nv])
	rowPtr := make([]int32, m+1)
	for _, r := range sf.colRow[:snnz] {
		rowPtr[r+1]++
	}
	for r := 0; r < m; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	rowEnt := make([]int32, snnz)  // CSC position of each row-major entry
	rowColJ := make([]int32, snnz) // its column
	next := append([]int32(nil), rowPtr[:m]...)
	for j := 0; j < nv; j++ {
		for p := sf.colPtr[j]; p < sf.colPtr[j+1]; p++ {
			r := sf.colRow[p]
			rowEnt[next[r]] = p
			rowColJ[next[r]] = int32(j)
			next[r]++
		}
	}
	markRow := make([]int32, m)
	for i := range markRow {
		markRow[i] = -1
	}
	mp := make([]int32, m+1)
	mi := make([]int32, 0, 4*m)
	diagPos := make([]int32, m)
	for r := 0; r < m; r++ {
		markRow[r] = int32(r)
		diagPos[r] = int32(len(mi))
		mi = append(mi, int32(r))
		for q := rowPtr[r]; q < rowPtr[r+1]; q++ {
			j := rowColJ[q]
			for p := sf.colPtr[j]; p < sf.colPtr[j+1]; p++ {
				r2 := sf.colRow[p]
				if markRow[r2] != int32(r) {
					markRow[r2] = int32(r)
					mi = append(mi, r2)
				}
			}
		}
		mp[r+1] = int32(len(mi))
	}
	scatterOff := make([]int, nv+1)
	for j := 0; j < nv; j++ {
		w := int(sf.colPtr[j+1] - sf.colPtr[j])
		scatterOff[j+1] = scatterOff[j] + w*w
	}
	if scatterOff[nv] > ipmScatterCap {
		return 0, nil, false
	}
	scatterIdx := make([]int32, scatterOff[nv])
	pos := make([]int32, m)
	for r := 0; r < m; r++ {
		for q := mp[r]; q < mp[r+1]; q++ {
			pos[mi[q]] = q
		}
		for q := rowPtr[r]; q < rowPtr[r+1]; q++ {
			j := int(rowColJ[q])
			c0 := sf.colPtr[j]
			w := int(sf.colPtr[j+1] - c0)
			row := scatterIdx[scatterOff[j]+int(rowEnt[q]-c0)*w:]
			for b := 0; b < w; b++ {
				row[b] = pos[sf.colRow[c0+int32(b)]]
			}
		}
	}
	sym := chol.Analyze(m, mp, mi)
	var fac chol.Factor
	mx := make([]float64, len(mi))

	// --- iterate storage (full column space; inactive entries stay zero).
	x = make([]float64, n)
	wv := make([]float64, n) // w = u − x for finite-u columns
	sv := make([]float64, n) // dual of x ≥ 0
	tv := make([]float64, n) // dual of x ≤ u
	dx := make([]float64, n)
	dw := make([]float64, n)
	ds := make([]float64, n)
	dt := make([]float64, n)
	rd := make([]float64, n)
	ru := make([]float64, n)
	r2 := make([]float64, n)
	dv := make([]float64, n) // D = diag(1/(s/x + t/w))
	rxs := make([]float64, n)
	rwt := make([]float64, n)
	y := make([]float64, m)
	dy := make([]float64, m)
	rp := make([]float64, m)
	rhs := make([]float64, m)
	resv := make([]float64, m) // refinement residual scratch

	bNorm, cNorm := 1.0, 1.0
	for _, v := range sf.rhs {
		if a := math.Abs(v); a > bNorm {
			bNorm = a
		}
	}
	for _, v := range sf.obj {
		if a := math.Abs(v); a > cNorm {
			cNorm = a
		}
	}

	// Starting point: finite-bound columns at the bound midpoint; free-side
	// slacks at the residual the structural start leaves them (clamped into
	// the interior), which zeroes the primal residual of every LE row with
	// room. Duals at unit scale.
	for j := 0; j < nv; j++ {
		if !act[j] {
			continue
		}
		if fin[j] {
			x[j] = sf.ub[j] / 2
		} else {
			x[j] = 1
		}
	}
	copy(rp, sf.rhs)
	for j := 0; j < nv; j++ {
		if x[j] != 0 {
			sf.scatterColumn(j, -x[j], rp)
		}
	}
	for j := nv; j < n; j++ {
		if !act[j] {
			continue
		}
		if fin[j] {
			x[j] = sf.ub[j] / 2
		} else if r := rp[j-nv]; r > 1 {
			x[j] = r
		} else {
			x[j] = 1
		}
	}
	for j := 0; j < n; j++ {
		if !act[j] {
			continue
		}
		sv[j] = 1 + math.Abs(sf.objAt(j))
		if fin[j] {
			wv[j] = sf.ub[j] - x[j]
			tv[j] = 1
		}
	}

	for iters = 0; iters < ipmMaxIters; iters++ {
		// Residuals and the barrier parameter.
		copy(rp, sf.rhs)
		gap, obj := 0.0, 0.0
		for j := 0; j < n; j++ {
			if !act[j] {
				continue
			}
			sf.scatterColumn(j, -x[j], rp)
			obj += sf.objAt(j) * x[j]
			gap += x[j] * sv[j]
			if fin[j] {
				gap += wv[j] * tv[j]
			}
		}
		pinf := 0.0
		for _, v := range rp {
			if a := math.Abs(v); a > pinf {
				pinf = a
			}
		}
		dinf, binf := 0.0, 0.0
		for j := 0; j < n; j++ {
			if !act[j] {
				rd[j], ru[j] = 0, 0
				continue
			}
			v := sf.objAt(j) - sf.dotColumn(j, y) - sv[j]
			if fin[j] {
				v += tv[j]
				ru[j] = sf.ub[j] - x[j] - wv[j]
				if a := math.Abs(ru[j]); a > binf {
					binf = a
				}
			} else {
				ru[j] = 0
			}
			rd[j] = v
			if a := math.Abs(v); a > dinf {
				dinf = a
			}
		}
		mu := gap / float64(comp)
		if math.IsNaN(mu) || math.IsInf(mu, 0) {
			return iters, nil, false
		}
		if pinf/bNorm <= ipmTolFeas && dinf/cNorm <= ipmTolFeas && binf <= ipmTolFeas*(1+bNorm) &&
			mu <= ipmTolGap*(1+math.Abs(obj)) {
			return iters, x, true
		}
		if pinf/bNorm > 1e10 || mu > 1e13 {
			return iters, nil, false // diverging: primal or dual infeasible
		}

		// Scaling matrix and normal-equations assembly.
		maxDiag := 0.0
		for i := range mx {
			mx[i] = 0
		}
		for j := 0; j < n; j++ {
			if !act[j] {
				dv[j] = 0
				continue
			}
			den := sv[j] / x[j]
			if fin[j] {
				den += tv[j] / wv[j]
			}
			dv[j] = 1 / den
		}
		for j := 0; j < nv; j++ {
			dj := dv[j]
			if dj == 0 {
				continue
			}
			c0 := sf.colPtr[j]
			w := int(sf.colPtr[j+1] - c0)
			idx := scatterIdx[scatterOff[j]:]
			for a := 0; a < w; a++ {
				va := sf.colVal[c0+int32(a)] * dj
				row := idx[a*w:]
				for b := 0; b < w; b++ {
					mx[row[b]] += va * sf.colVal[c0+int32(b)]
				}
			}
		}
		for r := 0; r < m; r++ {
			mx[diagPos[r]] += dv[nv+r]
			if d := mx[diagPos[r]]; d > maxDiag {
				maxDiag = d
			}
		}
		delta := 1e-10*(1+maxDiag) + 1e-12
		for r := 0; r < m; r++ {
			mx[diagPos[r]] += delta
		}
		sym.Factorize(mp, mi, mx, 1e-13*(1+maxDiag), &fac)

		// Predictor (affine, σ=0) then corrector on the same factorization.
		for j := range rxs {
			if act[j] {
				rxs[j] = -x[j] * sv[j]
				if fin[j] {
					rwt[j] = -wv[j] * tv[j]
				}
			}
		}
		solveKKT(sf, act, fin, x, wv, sv, tv, dv, rd, ru, rxs, rwt, r2, rp, rhs, dy, dx, dw, ds, dt, &fac, mp, mi, mx, resv)
		apAff := maxStep(x, dx, wv, dw, act, fin, 1)
		adAff := maxStep(sv, ds, tv, dt, act, fin, 1)
		muAff := 0.0
		for j := 0; j < n; j++ {
			if !act[j] {
				continue
			}
			muAff += (x[j] + apAff*dx[j]) * (sv[j] + adAff*ds[j])
			if fin[j] {
				muAff += (wv[j] + apAff*dw[j]) * (tv[j] + adAff*dt[j])
			}
		}
		muAff /= float64(comp)
		sigma := 1e-6
		if muAff > 0 {
			r := muAff / mu
			sigma = r * r * r
			if sigma > 1 {
				sigma = 1
			} else if sigma < 1e-6 {
				sigma = 1e-6
			}
		}
		target := sigma * mu
		for j := 0; j < n; j++ {
			if !act[j] {
				continue
			}
			rxs[j] = target - x[j]*sv[j] - dx[j]*ds[j]
			if fin[j] {
				rwt[j] = target - wv[j]*tv[j] - dw[j]*dt[j]
			}
		}
		solveKKT(sf, act, fin, x, wv, sv, tv, dv, rd, ru, rxs, rwt, r2, rp, rhs, dy, dx, dw, ds, dt, &fac, mp, mi, mx, resv)

		ap := ipmStepFrac * maxStep(x, dx, wv, dw, act, fin, 1/ipmStepFrac)
		ad := ipmStepFrac * maxStep(sv, ds, tv, dt, act, fin, 1/ipmStepFrac)
		if ap < 1e-10 && ad < 1e-10 {
			return iters, nil, false // jammed against the boundary
		}
		for j := 0; j < n; j++ {
			if !act[j] {
				continue
			}
			x[j] += ap * dx[j]
			sv[j] += ad * ds[j]
			if x[j] < 1e-300 {
				x[j] = 1e-300
			}
			if sv[j] < 1e-300 {
				sv[j] = 1e-300
			}
			if fin[j] {
				wv[j] += ap * dw[j]
				tv[j] += ad * dt[j]
				if wv[j] < 1e-300 {
					wv[j] = 1e-300
				}
				if tv[j] < 1e-300 {
					tv[j] = 1e-300
				}
			}
		}
		for r := 0; r < m; r++ {
			y[r] += ad * dy[r]
		}
	}
	return iters, nil, false
}

// solveKKT performs one Newton solve of the KKT system for the given
// complementarity right-hand sides (rxs, rwt), using the factorization of
// M = Â·D·Âᵀ already in fac. Eliminating Δs, Δt, Δw reduces the system to
// M·Δy = rp + Â·D·r2 with
//
//	r2_j = rd_j − rxs_j/x_j + rwt_j/w_j − (t_j/w_j)·ru_j
//
// after which the eliminated directions are recovered column by column.
func solveKKT(sf *standardForm, act, fin []bool, x, wv, sv, tv, dv, rd, ru, rxs, rwt, r2 []float64, rp, rhs, dy []float64, dx, dw, ds, dt []float64, fac *chol.Factor, mp, mi []int32, mx, resv []float64) {
	n := sf.n
	copy(rhs, rp)
	for j := 0; j < n; j++ {
		if !act[j] {
			continue
		}
		v := rd[j] - rxs[j]/x[j]
		if fin[j] {
			v += rwt[j]/wv[j] - tv[j]/wv[j]*ru[j]
		}
		r2[j] = v
		sf.scatterColumn(j, dv[j]*v, rhs)
	}
	copy(dy, rhs)
	fac.Solve(dy)
	// One step of iterative refinement. Late in the path-following run the
	// diagonal of D spans many orders of magnitude and the Cholesky solve
	// (with its clamped pivots) can lose enough digits in Δy to stall the
	// centering step. M is stored full-symmetric in (mp, mi, mx), so the
	// true residual is one sparse matvec; when it is no longer negligible
	// against the right-hand side, a single corrective solve on the same
	// factorization recovers the lost accuracy.
	rhsInf := 0.0
	for _, v := range rhs {
		if a := math.Abs(v); a > rhsInf {
			rhsInf = a
		}
	}
	resInf := 0.0
	for r := range resv {
		t := rhs[r]
		for q := mp[r]; q < mp[r+1]; q++ {
			t -= mx[q] * dy[mi[q]]
		}
		resv[r] = t
		if a := math.Abs(t); a > resInf {
			resInf = a
		}
	}
	if resInf > ipmRefineTol*(1+rhsInf) {
		fac.Solve(resv)
		for r := range dy {
			dy[r] += resv[r]
		}
	}
	for j := 0; j < n; j++ {
		if !act[j] {
			dx[j], dw[j], ds[j], dt[j] = 0, 0, 0, 0
			continue
		}
		dx[j] = dv[j] * (sf.dotColumn(j, dy) - r2[j])
		ds[j] = rxs[j]/x[j] - sv[j]/x[j]*dx[j]
		if fin[j] {
			dw[j] = ru[j] - dx[j]
			dt[j] = rwt[j]/wv[j] - tv[j]/wv[j]*dw[j]
		} else {
			dw[j], dt[j] = 0, 0
		}
	}
}

// maxStep returns the largest α ≤ cap with v + α·dv ≥ 0 and (for finite
// columns) w + α·dw ≥ 0.
func maxStep(v, dvec, w, dwvec []float64, act, fin []bool, cap float64) float64 {
	a := cap
	for j := range v {
		if !act[j] {
			continue
		}
		if d := dvec[j]; d < 0 {
			if r := v[j] / -d; r < a {
				a = r
			}
		}
		if fin[j] {
			if d := dwvec[j]; d < 0 {
				if r := w[j] / -d; r < a {
					a = r
				}
			}
		}
	}
	if a > 1 {
		a = 1
	}
	return a
}

// --- crossover ---------------------------------------------------------------

const (
	// crossTol: columns whose interiorness (distance from the nearer
	// bound) is below this are nonbasic at that bound.
	crossTol = 1e-9
	// crossPivRel/crossPivAbs gate the incremental-LU pivot acceptance.
	crossPivRel = 1e-7
	crossPivAbs = 1e-10
)

// crossoverBasis turns a converged interior point into a vertex basis:
// columns are considered in decreasing interiorness and accepted greedily
// while they remain linearly independent of the columns already placed
// (incremental product-form LU via the eta file — the same machinery the
// simplex refactorization uses), then leftover rows are completed with
// slack columns. Nonbasic columns take the status of their nearer bound.
// The result is exactly feasible at the basis's own vertex up to the IPM
// tolerance, and the subsequent simplex Solve re-certifies (or repairs)
// it with a handful of pivots. Returns nil when no nonsingular completion
// is found; the caller falls back to a cold simplex solve.
func crossoverBasis(sf *standardForm, x []float64) *Basis {
	m, nv, n := sf.m, sf.nv, sf.n
	type cand struct {
		j     int32
		score float64
	}
	cands := make([]cand, 0, n)
	for j := 0; j < n; j++ {
		u := sf.ub[j]
		if u <= 0 {
			continue
		}
		score := x[j]
		if !math.IsInf(u, 1) && u-x[j] < score {
			score = u - x[j]
		}
		if score > crossTol {
			cands = append(cands, cand{int32(j), score})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })

	eta := &etaFile{}
	eta.reset(m)
	isBasic := make([]bool, n)
	cols := make([]int, m)
	unpiv := make([]bool, m)
	for r := range cols {
		cols[r] = -1
		unpiv[r] = true
	}
	placed := 0
	w := make([]float64, m)
	var pat []int32

	place := func(j int) bool {
		for i := range w {
			w[i] = 0
		}
		sf.scatterColumn(j, 1, w)
		eta.ftran(w)
		best, bestAbs, maxAbs := -1, 0.0, 0.0
		pat = pat[:0]
		for r := 0; r < m; r++ {
			if w[r] != 0 {
				pat = append(pat, int32(r))
			}
			a := math.Abs(w[r])
			if a > maxAbs {
				maxAbs = a
			}
			if unpiv[r] && a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 || bestAbs < crossPivAbs || bestAbs < crossPivRel*maxAbs {
			return false
		}
		cols[best] = j
		unpiv[best] = false
		isBasic[j] = true
		eta.update(best, w, pat)
		placed++
		return true
	}

	for _, c := range cands {
		if placed == m {
			break
		}
		place(int(c.j))
	}
	// Complete with slacks: each leftover row tries its own slack first
	// (almost always a clean unit pivot), then any remaining free slack.
	for r := 0; r < m && placed < m; r++ {
		if unpiv[r] && !isBasic[nv+r] {
			place(nv + r)
		}
	}
	for j := nv; j < n && placed < m; j++ {
		if !isBasic[j] {
			place(j)
		}
	}
	if placed < m {
		return nil
	}

	b := &Basis{Cols: cols, Status: make([]VarStatus, n)}
	for j := 0; j < n; j++ {
		if isBasic[j] {
			b.Status[j] = BasicVar
			continue
		}
		if u := sf.ub[j]; !math.IsInf(u, 1) && u > 0 && x[j] > u/2 {
			b.Status[j] = NonbasicUpper
		} else {
			b.Status[j] = NonbasicLower
		}
	}
	return b
}
