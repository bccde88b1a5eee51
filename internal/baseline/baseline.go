// Package baseline implements the constant-factor baseline algorithms the
// paper builds on: the setup-aware LPT rule of Lemma 2.1 (a
// 3(1+1/√3) ≈ 4.74-approximation for uniform machines, used to bootstrap
// the dual approximation framework) and a setup-aware greedy list scheduler
// that serves as the practical comparator for the unrelated-machines
// experiments.
package baseline

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// Lemma21Factor is the proven approximation factor of Lemma21LPT on
// uniformly related machines: 3(1 + 1/√3).
var Lemma21Factor = 3 * (1 + 1/math.Sqrt(3))

// lptItem is a job or a placeholder in the LPT ordering.
type lptItem struct {
	size  float64
	class int
	job   int // -1 for placeholders
}

// Lemma21LPT implements the algorithm of Lemma 2.1 for identical or uniform
// instances:
//
//  1. for each class k, jobs smaller than the setup size s_k are replaced by
//     ⌈Σ p_j / s_k⌉ placeholder jobs of size s_k,
//  2. the standard LPT rule (ignoring classes and setups) schedules the
//     resulting jobs on the uniform machines, assigning each job to the
//     machine on which it would finish first,
//  3. placeholders are replaced by the actual small jobs and the required
//     setups are added.
//
// The returned schedule is feasible for the original instance; its makespan
// is at most 3(1+1/√3)·Opt.
func Lemma21LPT(in *core.Instance) (*core.Schedule, error) {
	return lemma21(in, true)
}

// LPTIgnoringClasses is the ablation variant of Lemma21LPT that skips the
// placeholder step: plain LPT on the raw jobs followed by adding setups. It
// has no constant-factor guarantee (a machine can collect many tiny jobs of
// distinct classes), and experiment E9 demonstrates the degradation.
func LPTIgnoringClasses(in *core.Instance) (*core.Schedule, error) {
	return lemma21(in, false)
}

func lemma21(in *core.Instance, placeholders bool) (*core.Schedule, error) {
	if in.Kind != core.Identical && in.Kind != core.Uniform {
		return nil, fmt.Errorf("baseline: Lemma 2.1 LPT requires identical or uniform machines, got %v", in.Kind)
	}
	speed := func(i int) float64 {
		if in.Kind == core.Uniform {
			return in.Speed[i]
		}
		return 1
	}

	// Step 1: split jobs into kept jobs and per-class small-job pools.
	items := []lptItem{}
	smallJobs := make([][]int, in.K) // per class, jobs replaced by placeholders
	for j := 0; j < in.N; j++ {
		k := in.Class[j]
		if placeholders && in.JobSize[j] < in.SetupSize[k] {
			smallJobs[k] = append(smallJobs[k], j)
		} else {
			items = append(items, lptItem{size: in.JobSize[j], class: k, job: j})
		}
	}
	for k, jobs := range smallJobs {
		if len(jobs) == 0 {
			continue
		}
		total := 0.0
		for _, j := range jobs {
			total += in.JobSize[j]
		}
		count := int(math.Ceil(total/in.SetupSize[k] - core.Eps))
		if count < 1 {
			count = 1
		}
		for c := 0; c < count; c++ {
			items = append(items, lptItem{size: in.SetupSize[k], class: k, job: -1})
		}
	}

	// Step 2: LPT ignoring classes and setups. Sort by non-increasing size
	// (stable tie-break on job index for reproducibility) and put each item
	// on the machine where it finishes first.
	slices.SortStableFunc(items, func(a, b lptItem) int { return cmp.Compare(b.size, a.size) })
	loads := make([]float64, in.M) // load in *size* units per machine
	where := make([]int, len(items))
	for idx, it := range items {
		best, bestDone := -1, math.Inf(1)
		for i := 0; i < in.M; i++ {
			done := (loads[i] + it.size) / speed(i)
			if done < bestDone-core.Eps {
				best, bestDone = i, done
			}
		}
		loads[best] += it.size
		where[idx] = best
	}

	// Step 3: translate items back to a schedule; distribute the small jobs
	// of class k over that class's placeholders greedily, over-packing each
	// machine by at most one job.
	sched := core.NewSchedule(in.N)
	placeholderCount := make(map[[2]int]int) // (machine, class) -> count
	for idx, it := range items {
		if it.job >= 0 {
			sched.Assign[it.job] = where[idx]
		} else {
			placeholderCount[[2]int{where[idx], it.class}]++
		}
	}
	for k, jobs := range smallJobs {
		if len(jobs) == 0 {
			continue
		}
		// Deterministic machine order.
		type slot struct {
			machine  int
			capacity float64
		}
		var slots []slot
		for i := 0; i < in.M; i++ {
			if c := placeholderCount[[2]int{i, k}]; c > 0 {
				slots = append(slots, slot{i, float64(c) * in.SetupSize[k]})
			}
		}
		ji := 0
		for si := 0; si < len(slots) && ji < len(jobs); si++ {
			filled := 0.0
			for ji < len(jobs) && filled < slots[si].capacity-core.Eps {
				sched.Assign[jobs[ji]] = slots[si].machine
				filled += in.JobSize[jobs[ji]]
				ji++
			}
		}
		// Safety net: the ceiling guarantees total capacity, so this loop
		// only runs if rounding left a straggler; put it on the last slot.
		for ; ji < len(jobs); ji++ {
			sched.Assign[jobs[ji]] = slots[len(slots)-1].machine
		}
	}
	return sched, nil
}

// Greedy assigns jobs in non-increasing order of their best processing time
// to the machine minimizing the resulting load, accounting for the setup if
// the job's class is not yet present there. It works for every machine
// environment (infeasible machine/job pairs are skipped) and is the
// practical baseline for the unrelated-machines experiments.
func Greedy(in *core.Instance) (*core.Schedule, error) {
	order := make([]int, in.N)
	key := make([]float64, in.N)
	for j := range order {
		order[j] = j
		best := math.Inf(1)
		for i := 0; i < in.M; i++ {
			if in.Eligibility(i, j, math.Inf(1)) && in.P[i][j] < best {
				best = in.P[i][j]
			}
		}
		key[j] = best
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(key[b], key[a]) })

	sched := core.NewSchedule(in.N)
	loads := make([]float64, in.M)
	classOn := make([][]bool, in.M)
	for i := range classOn {
		classOn[i] = make([]bool, in.K)
	}
	for _, j := range order {
		k := in.Class[j]
		best, bestLoad := -1, math.Inf(1)
		for i := 0; i < in.M; i++ {
			if !in.Eligibility(i, j, math.Inf(1)) {
				continue
			}
			l := loads[i] + in.P[i][j]
			if !classOn[i][k] {
				l += in.S[i][k]
			}
			if l < bestLoad-core.Eps {
				best, bestLoad = i, l
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("baseline: job %d has no feasible machine", j)
		}
		loads[best] = bestLoad
		classOn[best][k] = true
		sched.Assign[j] = best
	}
	return sched, nil
}

// MinProcessing assigns every job to argmin_i p_{ij} ignoring load — the
// fallback rule from step 3 of the randomized rounding algorithm
// (Section 3.1). Exported for testing and ablations.
func MinProcessing(in *core.Instance) *core.Schedule {
	sched := core.NewSchedule(in.N)
	for j := 0; j < in.N; j++ {
		best, bestP := -1, math.Inf(1)
		for i := 0; i < in.M; i++ {
			if !in.Eligibility(i, j, math.Inf(1)) {
				continue
			}
			if in.P[i][j] < bestP {
				best, bestP = i, in.P[i][j]
			}
		}
		sched.Assign[j] = best
	}
	return sched
}
