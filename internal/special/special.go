// Package special implements the two constant-factor special cases of
// Section 3.3 of the paper:
//
//   - restricted assignment with class-uniform restrictions (all jobs of a
//     class share the same eligible machine set): a 2-approximation
//     (Theorem 3.10), and
//   - unrelated machines with class-uniform processing times (all jobs of a
//     class have the same processing time on any given machine): a
//     3-approximation (Theorem 3.11).
//
// Both run the dual approximation framework over the relaxed linear program
// LP-RelaxedRA, which has one variable x̄_ik per class-machine pair (the
// fraction of class k's workload processed on machine i):
//
//	Σ_k x̄_ik (p̄_ik + α_ik s_ik) ≤ T   ∀i     (11)
//	Σ_i x̄_ik = 1                      ∀k     (12)
//	x̄_ik ≥ 0                                 (13)
//	x̄_ik = 0   for excluded pairs            (14)/(16)
//
// where p̄_ik is the total workload of class k on machine i and
// α_ik = max{1, p̄_ik/(T−s_ik)}. An extreme solution (which the simplex
// substrate produces) induces a bipartite support graph that is a
// pseudoforest; the rounding of Correa et al. [5], restated in the paper,
// turns it into an integral solution losing only a constant factor.
package special

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dual"
	"repro/internal/exact"
	"repro/internal/lp"
)

// fracTol is the tolerance below which an LP value counts as 0 and above
// 1−fracTol counts as 1 when building the support graph.
const fracTol = 1e-7

// Options configures the special-case algorithms.
type Options struct {
	// Precision is the relative precision of the binary search on T
	// (default 0.02).
	Precision float64
	// Bounds, when non-nil, connects the run to a live bound exchange (the
	// engine portfolio's incumbent bus): the greedy bootstrap and every
	// accepted guess are published as incumbents the moment they appear,
	// LP-RelaxedRA-infeasible guesses as certified lower bounds, and the
	// binary search skips guesses at or above the live incumbent.
	Bounds core.BoundBus
}

func (o Options) normalize() Options {
	if o.Precision <= 0 {
		o.Precision = 0.02
	}
	return o
}

// relaxed is the LP-RelaxedRA solution for one guess T.
type relaxed struct {
	T    float64
	xbar [][]float64 // m×K
	work [][]float64 // p̄_ik (Inf when ineligible)
}

// relaxedLP is LP-RelaxedRA built for one guess T.
type relaxedLP struct {
	p    *lp.Problem
	idx  [][]int     // variable of pair (i,k); -1 when excluded
	work [][]float64 // p̄_ik (Inf when ineligible)
}

// buildRelaxed builds LP-RelaxedRA for guess T. The pair (i,k) is admitted
// only when admit(i,k) holds (the per-variant exclusion rule (14)/(16)).
// α_ik depends on T, so the LP is rebuilt per guess. Returns nil when a
// class with jobs has no admitted machine: the LP is infeasible.
func buildRelaxed(in *core.Instance, T float64, admit func(i, k int) bool) *relaxedLP {
	work := in.ClassWork()
	p := &lp.Problem{}
	idx := make([][]int, in.M)
	for i := 0; i < in.M; i++ {
		idx[i] = make([]int, in.K)
		for k := 0; k < in.K; k++ {
			idx[i][k] = -1
			if !core.IsFinite(work[i][k]) || !core.IsFinite(in.S[i][k]) {
				continue
			}
			if in.S[i][k] > T+core.Eps {
				continue // (14)
			}
			if !admit(i, k) {
				continue
			}
			// α_ik needs T − s_ik > 0 unless the class has no workload.
			if work[i][k] > core.Eps && T-in.S[i][k] <= core.Eps {
				continue
			}
			idx[i][k] = p.AddVar(0, 1)
		}
	}
	// (11): machine capacity with setup inflation α_ik.
	for i := 0; i < in.M; i++ {
		terms := []lp.Term{}
		for k := 0; k < in.K; k++ {
			if idx[i][k] < 0 {
				continue
			}
			alpha := 1.0
			if work[i][k] > core.Eps {
				if a := work[i][k] / (T - in.S[i][k]); a > 1 {
					alpha = a
				}
			}
			coef := work[i][k] + alpha*in.S[i][k]
			if coef > 0 {
				terms = append(terms, lp.Term{Var: idx[i][k], Coef: coef})
			}
		}
		if len(terms) > 0 {
			p.AddConstraint(lp.LE, T, terms...)
		}
	}
	// (12): every class fully distributed.
	present := make([]bool, in.K)
	for _, k := range in.Class {
		present[k] = true
	}
	for k := 0; k < in.K; k++ {
		if !present[k] {
			continue // class without jobs: nothing to schedule
		}
		terms := []lp.Term{}
		for i := 0; i < in.M; i++ {
			if idx[i][k] >= 0 {
				terms = append(terms, lp.Term{Var: idx[i][k], Coef: 1})
			}
		}
		if len(terms) == 0 {
			return nil
		}
		p.AddConstraint(lp.EQ, 1, terms...)
	}
	return &relaxedLP{p: p, idx: idx, work: work}
}

// solveRelaxed builds and solves LP-RelaxedRA for guess T (see
// buildRelaxed) on a fresh sparse backend, and reports the simplex pivots
// the solve took. Returns nil when the LP is infeasible.
func solveRelaxed(in *core.Instance, T float64, admit func(i, k int) bool) (*relaxed, int, error) {
	mdl := buildRelaxed(in, T, admit)
	if mdl == nil {
		return nil, 0, nil
	}
	be, err := lp.NewBackend(lp.Sparse, mdl.p, nil)
	if err != nil {
		return nil, 0, err
	}
	sol, err := be.Solve()
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, sol.Iterations, nil
	}
	r := &relaxed{T: T, xbar: make([][]float64, in.M), work: mdl.work}
	for i := 0; i < in.M; i++ {
		r.xbar[i] = make([]float64, in.K)
		for k := 0; k < in.K; k++ {
			if mdl.idx[i][k] >= 0 {
				v := sol.Value(mdl.idx[i][k])
				switch {
				case v < fracTol:
					v = 0
				case v > 1-fracTol:
					v = 1
				}
				r.xbar[i][k] = v
			}
		}
	}
	return r, sol.Iterations, nil
}

// variant is one of the two Section 3.3 algorithms, as the shared search
// loop runs it.
type variant struct {
	name string
	// admit returns the LP-RelaxedRA admission rule of guess T (constraint
	// (14) or (16)), or nil when T is rejected before any LP is built.
	admit func(T float64) func(i, k int) bool
	// round turns an extreme solution of LP-RelaxedRA into a schedule.
	round func(in *core.Instance, r *relaxed) *core.Schedule
}

// schedule runs the shared dual approximation loop for variant v and
// packages the outcome. The context is checked between guesses. LPIters
// sums the simplex pivots of every guess's LP; an LP error ends the search
// and is returned in place of the result.
func schedule(ctx context.Context, in *core.Instance, v variant, opt Options) (core.Result, error) {
	opt = opt.normalize()
	greedy, err := baseline.Greedy(in)
	if err != nil {
		return core.Result{}, err
	}
	ub := greedy.Makespan(in)
	lb := exact.VolumeLowerBound(in)
	if opt.Bounds != nil {
		opt.Bounds.PublishUpper(ub) // the greedy schedule is feasible
		opt.Bounds.PublishLower(lb)
	}
	var iters int64
	var solveErr error
	out := dual.Search(ctx, dual.Config{
		Instance:  in,
		Lower:     lb,
		Upper:     ub,
		Precision: opt.Precision,
		Fallback:  greedy,
		Bus:       opt.Bounds,
	}, func(T float64) (*core.Schedule, bool) {
		admit := v.admit(T)
		if admit == nil {
			return nil, false
		}
		r, n, err := solveRelaxed(in, T, admit)
		iters += int64(n)
		if err != nil {
			if solveErr == nil {
				solveErr = err
			}
			return nil, true
		}
		if r == nil {
			return nil, false
		}
		return v.round(in, r), true
	})
	if solveErr != nil {
		return core.Result{}, solveErr
	}
	low := out.LowerBound
	if lb > low {
		low = lb
	}
	note := ""
	if out.Err != nil {
		note = fmt.Sprintf("binary search stopped early (%v after %d guesses); schedule is best-so-far, constant-factor guarantee not certified", out.Err, out.Guesses)
	}
	return core.Result{
		Algorithm:  v.name,
		Schedule:   out.Schedule,
		Makespan:   out.Makespan,
		LowerBound: low,
		Note:       note,
		LPIters:    iters,
	}, nil
}

// maxJobOfClass returns, per class, the largest job size (restricted
// assignment base sizes).
func maxJobOfClass(in *core.Instance) []float64 {
	maxP := make([]float64, in.K)
	for j := 0; j < in.N; j++ {
		if in.JobSize[j] > maxP[in.Class[j]] {
			maxP[in.Class[j]] = in.JobSize[j]
		}
	}
	return maxP
}
