package ptas

import (
	"cmp"
	"slices"
)

// convert turns a relaxed schedule (integral assignment + fractional items)
// into a complete assignment of simplified jobs to simplified machines,
// following the constructive proof of Lemma 2.8:
//
//   - fractional core jobs of a class WITH a fringe job (set F1) are
//     attached, at the very end, to a machine hosting one of the class's
//     fringe jobs (the fringe job is ≥ s_k/ε² so the addition is an ε
//     fraction of it);
//   - fractional core jobs of a class without fringe jobs and with total
//     size ≤ s_k/ε (set F2) are packed into a single container together
//     with one setup;
//   - everything else (fringe jobs and large class chunks, set F3) is kept
//     as individual jobs, ordered class-contiguously;
//   - containers and F3 items of group g are filled greedily, in group
//     order, onto machines of groups ≥ g+2 (slowest first), each machine
//     accepting items until its load exceeds v_i·T1.
func convert(s *simp, assign []int, fracs []fracItem) []int {
	out := append([]int(nil), assign...)
	m := len(s.speed)

	// Current loads including setups of classes already present.
	loads := make([]float64, m)
	classOn := make([]map[int]bool, m)
	for i := range classOn {
		classOn[i] = map[int]bool{}
	}
	place := func(j, i int) {
		out[j] = i
		loads[i] += s.size[j]
		k := s.class[j]
		if !classOn[i][k] {
			classOn[i][k] = true
			loads[i] += s.setup[k]
		}
	}
	for j, i := range assign {
		if i >= 0 {
			loads[i] += s.size[j]
			k := s.class[j]
			if !classOn[i][k] {
				classOn[i][k] = true
				loads[i] += s.setup[k]
			}
		}
	}

	// Partition the fractional items.
	type item struct {
		group int
		jobs  []int
	}
	var queue []item
	deferred := map[int][]int{} // class -> F1 core jobs
	coreByClass := map[int][]fracItem{}
	for _, f := range fracs {
		if f.isCore {
			coreByClass[f.class] = append(coreByClass[f.class], f)
			continue
		}
		queue = append(queue, item{group: f.group, jobs: []int{f.job}})
	}
	for k, items := range coreByClass {
		total := 0.0
		for _, f := range items {
			total += s.size[f.job]
		}
		switch {
		case total > s.setup[k]/s.eps:
			// F3: large chunk, jobs go individually (class-contiguous
			// since they take adjacent queue positions and the sort below
			// is stable).
			for _, f := range items {
				queue = append(queue, item{group: f.group, jobs: []int{f.job}})
			}
		case s.hasFringeJob(k):
			// F1: attach to a fringe job's machine at the end.
			for _, f := range items {
				deferred[k] = append(deferred[k], f.job)
			}
		default:
			// F2: one container holding the whole chunk (its setup is
			// charged when the first job lands via place()).
			jobs := make([]int, len(items))
			for n, f := range items {
				jobs[n] = f.job
			}
			queue = append(queue, item{group: items[0].group, jobs: jobs})
		}
	}
	slices.SortStableFunc(queue, func(a, b item) int { return cmp.Compare(a.group, b.group) })

	// Greedy fill: machines ascending by speed; machine i absorbs pending
	// items of groups ≤ leave(i)−2 while its load is below capacity.
	leave := make([]int, m)
	for i := range leave {
		leave[i] = s.groupHi(i)
	}
	qi := 0
	for i := 0; i < m && qi < len(queue); i++ {
		for qi < len(queue) && queue[qi].group <= leave[i]-2 && loads[i] < s.capacity(i) {
			for _, j := range queue[qi].jobs {
				place(j, i)
			}
			qi++
		}
	}
	// Leftovers (possible only through overpacking effects): fastest
	// machine takes them; the measured makespan stays honest.
	for ; qi < len(queue); qi++ {
		for _, j := range queue[qi].jobs {
			place(j, m-1)
		}
	}

	// F1 attachment: all deferred core jobs of class k go to a machine
	// hosting one of k's fringe jobs.
	for k, jobs := range deferred {
		host := -1
		for j, i := range out {
			if i >= 0 && s.class[j] == k && !s.isCore(j) {
				host = i
				break
			}
		}
		if host < 0 {
			// Defensive: hasFringeJob(k) held, so some fringe job exists
			// and everything is placed by now; fall back to least loaded.
			host = 0
			for i := 1; i < m; i++ {
				if loads[i]/s.speed[i] < loads[host]/s.speed[host] {
					host = i
				}
			}
		}
		for _, j := range jobs {
			place(j, host)
		}
	}
	return out
}

// hasFringeJob reports whether class k has at least one fringe job among
// the simplified jobs.
func (s *simp) hasFringeJob(k int) bool {
	for j := range s.size {
		if s.class[j] == k && !s.isCore(j) {
			return true
		}
	}
	return false
}
