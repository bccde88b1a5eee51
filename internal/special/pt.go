package special

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// ScheduleClassUniformPT implements Theorem 3.11: a 3-approximation for
// unrelated machines with class-uniform processing times (for every machine
// i and class k, all jobs of k take the same time p_{ik} on i). The
// instance must satisfy this structure; CheckClassUniformPT reports
// violations.
func ScheduleClassUniformPT(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
	if err := CheckClassUniformPT(in); err != nil {
		return core.Result{}, err
	}
	classTime := classTimes(in)
	return schedule(ctx, in, variant{
		name:  "class-uniform-pt-3approx",
		admit: func(T float64) func(i, k int) bool { return admitPT(in, classTime, T) },
		round: roundPT,
	}, opt)
}

// admitPT is constraint (16) at guess T: a pair (i,k) is admitted only if
// one job plus the setup fits under T. Valid because all jobs of k cost
// the same on i: a machine processing any of them within T satisfies
// s_ik + p_ik ≤ T.
func admitPT(in *core.Instance, classTime [][]float64, T float64) func(i, k int) bool {
	return func(i, k int) bool {
		pt := classTime[i][k]
		if pt < 0 {
			return true // class without jobs: unconstrained
		}
		if !core.IsFinite(pt) {
			return false
		}
		return in.S[i][k]+pt <= T+core.Eps
	}
}

// CheckClassUniformPT verifies the structural precondition of Theorem 3.11.
func CheckClassUniformPT(in *core.Instance) error {
	if in.Kind != core.Unrelated && in.Kind != core.Identical && in.Kind != core.Uniform {
		return fmt.Errorf("special: need an unrelated-machines instance, got %v", in.Kind)
	}
	byClass := in.JobsOfClass()
	for k, jobs := range byClass {
		if len(jobs) == 0 {
			continue
		}
		for _, j := range jobs[1:] {
			for i := 0; i < in.M; i++ {
				if in.P[i][j] != in.P[i][jobs[0]] {
					return fmt.Errorf("special: class %d does not have class-uniform processing times (jobs %d and %d differ on machine %d)", k, jobs[0], j, i)
				}
			}
		}
	}
	return nil
}

// classTimes returns the per-(machine, class) job processing time, or -1
// for classes without jobs.
func classTimes(in *core.Instance) [][]float64 {
	byClass := in.JobsOfClass()
	out := make([][]float64, in.M)
	for i := range out {
		out[i] = make([]float64, in.K)
		for k := range out[i] {
			if len(byClass[k]) == 0 {
				out[i][k] = -1
			} else {
				out[i][k] = in.P[i][byClass[k][0]]
			}
		}
	}
	return out
}

// roundPT performs the rounding of Section 3.3.2: pseudoforest extraction
// as in 3.3.1, then, per class, either the whole class moves to the dropped
// machine i− (when x̄_{i−k} > 1/2) or i−'s share is redistributed
// proportionally over the kept machines. Greedy slot filling finishes the
// schedule; the result has makespan at most 3T.
func roundPT(in *core.Instance, r *relaxed) *core.Schedule {
	xb := cloneMatrix(r.xbar)
	g := newSupportGraph(in.M, in.K, xb)
	roots := g.breakCycles()
	kept := g.orientAndPrune(roots)

	for k := 0; k < in.K; k++ {
		minus := -1
		var keptMachines []int
		for i := 0; i < in.M; i++ {
			v := xb[i][k]
			if v <= fracTol || v >= 1-fracTol {
				continue
			}
			if kept[[2]int{i, k}] {
				keptMachines = append(keptMachines, i)
			} else {
				minus = i
			}
		}
		if minus < 0 {
			continue
		}
		if xb[minus][k] > 0.5 {
			// Process the entire class on i−.
			for i := 0; i < in.M; i++ {
				xb[i][k] = 0
			}
			xb[minus][k] = 1
			continue
		}
		// Redistribute i−'s share proportionally over the kept machines
		// (the paper bounds this by doubling; exact proportional scaling
		// preserves Σ_i x̄_ik = 1 and never exceeds the doubling bound).
		tot := 0.0
		for _, i := range keptMachines {
			tot += xb[i][k]
		}
		if tot <= fracTol {
			// Defensive fallback mirroring roundRA: give the share to the
			// largest remaining carrier.
			best, bi := -1.0, -1
			for i := 0; i < in.M; i++ {
				if i != minus && xb[i][k] > best {
					best, bi = xb[i][k], i
				}
			}
			if bi >= 0 {
				xb[bi][k] += xb[minus][k]
				xb[minus][k] = 0
			}
			continue
		}
		factor := (tot + xb[minus][k]) / tot
		for _, i := range keptMachines {
			xb[i][k] *= factor
		}
		xb[minus][k] = 0
	}
	return fillSlots(in, r, xb, nil)
}
