package special

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
)

// ScheduleClassUniformRA implements Theorem 3.10: a 2-approximation for the
// restricted assignment problem with class-uniform restrictions (all jobs of
// a class share one eligible machine set M_k). The instance must be a
// restricted-assignment instance whose eligibility is class-uniform;
// CheckClassUniformRA reports violations.
func ScheduleClassUniformRA(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
	if err := CheckClassUniformRA(in); err != nil {
		return core.Result{}, err
	}
	return schedule(ctx, in, variant{
		name: "class-uniform-ra-2approx",
		admit: func(T float64) func(i, k int) bool {
			// Any schedule with makespan ≤ T pays p_j + s_{k_j} ≤ T for
			// every job (in restricted assignment the setup size is
			// machine-independent on eligible machines), so T below that
			// is rejected.
			for j := 0; j < in.N; j++ {
				if in.JobSize[j]+in.SetupSize[in.Class[j]] > T+core.Eps {
					return nil
				}
			}
			return func(i, k int) bool { return true }
		},
		round: roundRA,
	}, opt)
}

// CheckClassUniformRA verifies the structural precondition of Theorem 3.10.
func CheckClassUniformRA(in *core.Instance) error {
	if in.Kind != core.RestrictedAssignment {
		return fmt.Errorf("special: need a restricted-assignment instance, got %v", in.Kind)
	}
	byClass := in.JobsOfClass()
	for k, jobs := range byClass {
		if len(jobs) == 0 {
			continue
		}
		for _, j := range jobs[1:] {
			for i := 0; i < in.M; i++ {
				if in.Eligible[j][i] != in.Eligible[jobs[0]][i] {
					return fmt.Errorf("special: class %d is not class-uniform (jobs %d and %d differ on machine %d)", k, jobs[0], j, i)
				}
			}
		}
	}
	return nil
}

// roundRA performs the rounding of Section 3.3.1 on an extreme LP solution:
// pseudoforest extraction, the i−→i+ workload move, and the greedy slot
// fill with i+ last. The result is a complete feasible schedule with
// makespan at most 2T.
func roundRA(in *core.Instance, r *relaxed) *core.Schedule {
	xb := cloneMatrix(r.xbar)
	g := newSupportGraph(in.M, in.K, xb)
	roots := g.breakCycles()
	kept := g.orientAndPrune(roots)

	iPlus := make([]int, in.K) // chosen i+ per class (-1 if none)
	for k := range iPlus {
		iPlus[k] = -1
	}
	for k := 0; k < in.K; k++ {
		// Machines in Ẽ for this class, plus the (≤1) fractional machine
		// outside Ẽ.
		minus := -1
		for i := 0; i < in.M; i++ {
			v := xb[i][k]
			if v <= fracTol || v >= 1-fracTol {
				continue
			}
			if kept[[2]int{i, k}] {
				if iPlus[k] < 0 {
					iPlus[k] = i
				}
			} else {
				minus = i
			}
		}
		if minus >= 0 {
			if iPlus[k] < 0 {
				// Defensive: Lemma 3.8 guarantees a kept edge whenever a
				// fractional edge was dropped; fall back to the largest
				// fractional carrier if numerics ever violate it.
				best := -1.0
				for i := 0; i < in.M; i++ {
					if i != minus && xb[i][k] > best {
						best, iPlus[k] = xb[i][k], i
					}
				}
			}
			if iPlus[k] >= 0 {
				xb[iPlus[k]][k] += xb[minus][k]
				xb[minus][k] = 0
			}
		}
	}
	return fillSlots(in, r, xb, iPlus)
}

// fillSlots turns the modified fractional solution into a schedule: for
// every class, machine i reserves a slot of x̄_ik·p̄_ik time and the class's
// jobs are filled greedily, with the designated last machine (i+, or the
// largest slot when none) absorbing the remainder.
func fillSlots(in *core.Instance, r *relaxed, xb [][]float64, last []int) *core.Schedule {
	sched := core.NewSchedule(in.N)
	byClass := in.JobsOfClass()
	for k := 0; k < in.K; k++ {
		jobs := byClass[k]
		if len(jobs) == 0 {
			continue
		}
		type slot struct {
			machine  int
			capacity float64
		}
		var slots []slot
		for i := 0; i < in.M; i++ {
			if xb[i][k] > fracTol {
				slots = append(slots, slot{i, xb[i][k] * r.work[i][k]})
			}
		}
		if len(slots) == 0 {
			// Cannot happen for feasible LPs; guard against zero-job-size
			// classes whose x̄ row was all-zero by using any eligible
			// machine.
			for i := 0; i < in.M; i++ {
				if core.IsFinite(r.work[i][k]) {
					slots = append(slots, slot{i, 0})
					break
				}
			}
		}
		// Order: the designated last machine goes last; ties broken by
		// machine index for determinism. When no designated machine,
		// the largest slot absorbs the remainder.
		lastM := -1
		if last != nil {
			lastM = last[k]
		}
		if lastM < 0 {
			best := -1.0
			for _, s := range slots {
				if s.capacity > best {
					best, lastM = s.capacity, s.machine
				}
			}
		}
		sort.Slice(slots, func(a, b int) bool {
			la, lb := slots[a].machine == lastM, slots[b].machine == lastM
			if la != lb {
				return lb // non-last machines first
			}
			return slots[a].machine < slots[b].machine
		})
		ji := 0
		for si := 0; si < len(slots)-1 && ji < len(jobs); si++ {
			filled := 0.0
			for ji < len(jobs) && filled < slots[si].capacity-core.Eps {
				j := jobs[ji]
				sched.Assign[j] = slots[si].machine
				filled += in.P[slots[si].machine][j]
				ji++
			}
		}
		for ; ji < len(jobs); ji++ {
			sched.Assign[jobs[ji]] = slots[len(slots)-1].machine
		}
	}
	return sched
}

func cloneMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}
