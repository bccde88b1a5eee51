// Package sched is the public API of this library, a faithful
// implementation of "Scheduling on (Un-)Related Machines with Setup Times"
// (Jansen, Maack, Mäcker; IPPS 2019).
//
// The problem: n jobs partitioned into K classes are scheduled on m
// parallel machines; a machine pays the setup time s_{ik} once for every
// class k it processes, and the makespan (maximum machine load, processing
// plus setups) is minimized.
//
// Every solve goes through an Engine built with New. Engine.Solve picks
// the strongest algorithm applicable to the instance, or the one named by
// WithAlgorithm; Engine.Portfolio races every applicable one;
// Engine.SolveBatch and Engine.Open (incremental re-solves) build on the
// same path, so every solve is governed, warm-started from the bound
// cache and visible on the event stream. The registered algorithms (paper
// reference in parentheses):
//
//   - AlgoLPT: the setup-aware LPT rule, a 3(1+1/√3) ≈ 4.74-approximation
//     for identical and uniformly related machines (Lemma 2.1).
//   - AlgoPTAS: a (1+O(ε))-approximation for identical and uniformly
//     related machines (Section 2); tune it with WithEps.
//   - AlgoRounding: an O(log n + log m)-approximation for unrelated
//     machines via LP rounding (Theorem 3.3), asymptotically optimal
//     unless NP ⊆ RP (Theorem 3.5); seed it with WithSeed.
//   - AlgoRA2: a 2-approximation for restricted assignment when all jobs
//     of a class share one eligible machine set (Theorem 3.10).
//   - AlgoPT3: a 3-approximation for unrelated machines when all jobs of a
//     class have identical processing times per machine (Theorem 3.11).
//   - AlgoGreedy: a setup-aware list scheduler (no guarantee; the
//     practical baseline), and AlgoExact: branch-and-bound for small
//     instances (WithMaxJobs widens its size guard).
//
// Instances are built with NewIdentical, NewUniform, NewRestricted and
// NewUnrelated, or loaded from JSON via ReadInstance.
package sched

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/improve"
	"repro/internal/ptas"
	"repro/internal/special"
	"repro/internal/timeline"
)

// Instance is a scheduling instance (see core.Instance for field docs).
type Instance = core.Instance

// Schedule is a job → machine assignment.
type Schedule = core.Schedule

// Result bundles a schedule, its makespan and a certified lower bound.
type Result = core.Result

// Kind identifies the machine environment.
type Kind = core.Kind

// Machine environment kinds.
const (
	Identical            = core.Identical
	Uniform              = core.Uniform
	RestrictedAssignment = core.RestrictedAssignment
	Unrelated            = core.Unrelated
)

// Inf marks ineligible processing/setup times in unrelated instances.
var Inf = core.Inf

// NewIdentical builds an identical-machines instance: job sizes p, job
// classes, setup sizes s and m machines.
func NewIdentical(p []float64, class []int, s []float64, m int) (*Instance, error) {
	return core.NewIdentical(p, class, s, m)
}

// NewUniform builds a uniformly-related-machines instance with speeds v.
func NewUniform(p []float64, class []int, s []float64, v []float64) (*Instance, error) {
	return core.NewUniform(p, class, s, v)
}

// NewRestricted builds a restricted-assignment instance; eligible[j] lists
// the machines job j may run on.
func NewRestricted(p []float64, class []int, s []float64, m int, eligible [][]int) (*Instance, error) {
	return core.NewRestricted(p, class, s, m, eligible)
}

// NewUnrelated builds an unrelated-machines instance from an m×n processing
// matrix and an m×K setup matrix (use Inf for ineligible pairs).
func NewUnrelated(p [][]float64, class []int, s [][]float64) (*Instance, error) {
	return core.NewUnrelated(p, class, s)
}

// ReadInstance deserializes an instance from its JSON representation.
func ReadInstance(r io.Reader) (*Instance, error) { return core.ReadJSON(r) }

// SolveOptions is what a plug-in solver's solve function receives (see
// NewSolver): the call's settings (Eps, Precision, Seed, MaxJobs, Gap, …),
// the live bound bus in Bounds and the engine's warm-start state. Callers
// set these through SolveOption values on the Engine, never directly.
type SolveOptions = engine.Options

// PortfolioResult reports a portfolio race: the best result plus the
// per-solver outcomes.
type PortfolioResult = engine.PortfolioResult

// SolverOutcome is one solver's contribution to a portfolio race.
type SolverOutcome = engine.SolverOutcome

// Figure1 renders the speed-group diagnostic of the paper's Figure 1 for a
// uniform instance at makespan guess T and accuracy eps.
func Figure1(in *Instance, T, eps float64) (string, error) {
	return ptas.Figure1(in, T, eps)
}

// LocalSearch post-optimizes a feasible schedule by best-improvement
// descent over job moves, swaps and class consolidation. It never worsens
// the schedule.
func LocalSearch(in *Instance, s *Schedule) *Schedule {
	improved, _ := improve.Improve(context.Background(), in, s, improve.DefaultOptions())
	return improved
}

// SplitSchedule is a fractional (splittable-model) schedule; see
// Splittable.
type SplitSchedule = special.SplitSchedule

// Splittable solves the splittable relaxation of Correa et al. [5] — class
// workloads may be divided across machines, every carrier paying the full
// setup — via LP-RelaxedRA and the Section 3.3 pseudoforest rounding. Put
// each job in its own class for job-level splitting.
func Splittable(in *Instance) (*SplitSchedule, float64, error) {
	res, err := special.ScheduleSplittable(context.Background(), in, special.Options{})
	if err != nil {
		return nil, 0, err
	}
	return res.Split, res.Makespan, nil
}

// Timeline materializes a complete feasible schedule into explicit batched
// start/end times per machine (setups before each class batch) and can
// render an ASCII Gantt chart.
type Timeline = timeline.Timeline

// BuildTimeline materializes sched into a Timeline.
func BuildTimeline(in *Instance, s *Schedule) (*Timeline, error) {
	return timeline.Build(in, s)
}
