package core

import (
	"fmt"
	"math"
)

// Schedule is a non-preemptive assignment of jobs to machines.
// Assign[j] = i means job j runs on machine i. Because setup times depend
// only on the machine and the class (not on the previously processed class),
// a machine can always batch its jobs class-by-class, so the assignment
// fully determines the makespan; no intra-machine order is stored.
type Schedule struct {
	Assign []int
}

// NewSchedule returns a schedule with all jobs unassigned (-1).
func NewSchedule(n int) *Schedule {
	a := make([]int, n)
	for j := range a {
		a[j] = -1
	}
	return &Schedule{Assign: a}
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{Assign: append([]int(nil), s.Assign...)}
}

// Complete reports whether every job is assigned to some machine.
func (s *Schedule) Complete() bool {
	for _, i := range s.Assign {
		if i < 0 {
			return false
		}
	}
	return true
}

// Loads returns the per-machine loads (processing plus one setup per class
// present on the machine) of the schedule under the given instance.
// Unassigned jobs contribute nothing.
func (s *Schedule) Loads(in *Instance) []float64 {
	loads := make([]float64, in.M)
	seen := make([]int, in.M*in.K) // 0 = unseen, 1 = setup counted
	for j, i := range s.Assign {
		if i < 0 {
			continue
		}
		loads[i] += in.P[i][j]
		k := in.Class[j]
		if seen[i*in.K+k] == 0 {
			seen[i*in.K+k] = 1
			loads[i] += in.S[i][k]
		}
	}
	return loads
}

// Makespan returns the maximum machine load. It is +Inf if any assigned job
// is infeasible on its machine and 0 for an empty schedule.
func (s *Schedule) Makespan(in *Instance) float64 {
	max := 0.0
	for _, l := range s.Loads(in) {
		if l > max {
			max = l
		}
	}
	return max
}

// SetupCount returns the total number of setups paid across all machines.
func (s *Schedule) SetupCount(in *Instance) int {
	seen := make(map[[2]int]bool)
	for j, i := range s.Assign {
		if i < 0 {
			continue
		}
		seen[[2]int{i, in.Class[j]}] = true
	}
	return len(seen)
}

// Validate checks that the schedule is a feasible complete solution for the
// instance: every job assigned to a machine in range with finite processing
// and setup time. It does not bound the makespan.
func (s *Schedule) Validate(in *Instance) error {
	if len(s.Assign) != in.N {
		return fmt.Errorf("core: schedule covers %d jobs, want %d", len(s.Assign), in.N)
	}
	for j, i := range s.Assign {
		if i < 0 || i >= in.M {
			return fmt.Errorf("core: job %d assigned to machine %d, want [0,%d)", j, i, in.M)
		}
		if !IsFinite(in.P[i][j]) {
			return fmt.Errorf("core: job %d assigned to machine %d where p=∞", j, i)
		}
		if !IsFinite(in.S[i][in.Class[j]]) {
			return fmt.Errorf("core: job %d of class %d assigned to machine %d where setup=∞", j, in.Class[j], i)
		}
	}
	return nil
}

// ValidateWithin additionally checks that the makespan is at most bound
// (with Eps slack).
func (s *Schedule) ValidateWithin(in *Instance, bound float64) error {
	if err := s.Validate(in); err != nil {
		return err
	}
	if ms := s.Makespan(in); ms > bound+Eps {
		return fmt.Errorf("core: makespan %.6g exceeds bound %.6g", ms, bound)
	}
	return nil
}

// MachineJobs returns, for each machine, the jobs assigned to it.
func (s *Schedule) MachineJobs(in *Instance) [][]int {
	out := make([][]int, in.M)
	for j, i := range s.Assign {
		if i >= 0 {
			out[i] = append(out[i], j)
		}
	}
	return out
}

// Result bundles a schedule with the makespan it achieves and the name of
// the algorithm that produced it; the experiment harness and CLI tools
// report Results.
type Result struct {
	Algorithm string
	Schedule  *Schedule
	Makespan  float64
	// LowerBound, when non-zero, is a certified lower bound on the optimal
	// makespan established by the producing algorithm (e.g. an LP value).
	LowerBound float64
	// Note, when non-empty, explains a degraded run: why a search gave up
	// early (node cap, deadline, size guard) and what that does to the
	// algorithm's guarantee. An empty Note means the algorithm ran to
	// completion with its full guarantee intact.
	Note string
	// Nodes counts the search nodes this run expanded (branch-and-bound
	// tree nodes, PTAS dynamic-program nodes); 0 for algorithms that do not
	// run a node-based search. Warm-started solves report the effort of the
	// current run, not of the run that produced any cached bounds.
	Nodes int64
	// LPIters counts the simplex pivots performed across every LP solved by
	// this run (the randomized rounding's relaxation LPs); 0
	// for algorithms that solve no LPs. It is the per-backend effort metric
	// the LP-backend comparison rows of schedbench report.
	LPIters int64
}

// Ratio returns Makespan/LowerBound, or NaN when no lower bound is known.
func (r Result) Ratio() float64 {
	if r.LowerBound <= 0 {
		return math.NaN()
	}
	return r.Makespan / r.LowerBound
}
