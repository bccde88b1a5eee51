package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/improve"
	"repro/internal/ptas"
	"repro/internal/rounding"
	"repro/internal/special"
)

// Canonical solver names, used by the -algo flag and Registry.Get.
const (
	NameLPT      = "lpt"
	NameGreedy   = "greedy"
	NamePTAS     = "ptas"
	NameRounding = "rounding"
	NameRA2      = "class-uniform-ra"
	NamePT3      = "class-uniform-pt"
	NameExact    = "branch-and-bound"
)

// HasClassUniformRA reports the Theorem 3.10 structure (restricted
// assignment, all jobs of a class share one eligible machine set).
func HasClassUniformRA(in *core.Instance) bool {
	return special.CheckClassUniformRA(in) == nil
}

// HasClassUniformPT reports the Theorem 3.11 structure (all jobs of a
// class have identical processing times per machine).
func HasClassUniformPT(in *core.Instance) bool {
	return special.CheckClassUniformPT(in) == nil
}

// funcSolver adapts a plain function plus static capabilities.
type funcSolver struct {
	name  string
	caps  Caps
	solve func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error)
}

func (f *funcSolver) Name() string       { return f.name }
func (f *funcSolver) Capabilities() Caps { return f.caps }
func (f *funcSolver) Solve(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
	return f.solve(ctx, in, opt)
}

// NewSolver builds a Solver from a name, capabilities and a solve function
// (the hook third-party algorithms use to plug into a Registry).
func NewSolver(name string, caps Caps, solve func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error)) Solver {
	return &funcSolver{name: name, caps: caps, solve: solve}
}

// defaultSeedStream is the source used when Options.Seed is 0 (the "fixed
// default" contract). It must not collide with small user-chosen seeds:
// mapping 0 to 1, as this function once did, made -seed 0 and -seed 1
// produce byte-identical randomized runs.
const defaultSeedStream int64 = 0x5DEECE66DA9C6B2F

func rngFor(opt Options) *rand.Rand {
	seed := opt.Seed
	if seed == 0 {
		seed = defaultSeedStream
	}
	return rand.New(rand.NewSource(seed))
}

// allKinds lists every machine environment.
var allKinds = []core.Kind{core.Identical, core.Uniform, core.RestrictedAssignment, core.Unrelated}

// uniformKinds are the environments of the Section 2 PTAS and Lemma 2.1.
var uniformKinds = []core.Kind{core.Identical, core.Uniform}

func newLPTSolver() Solver {
	return NewSolver(NameLPT, Caps{
		Kinds:     uniformKinds,
		Guarantee: "3(1+1/√3) ≈ 4.74-approximation (Lemma 2.1)",
		Priority:  10,
	}, func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
		sched, err := baseline.Lemma21LPT(in)
		if err != nil {
			return core.Result{}, err
		}
		return publishResult(core.Result{
			Algorithm:  NameLPT,
			Schedule:   sched,
			Makespan:   sched.Makespan(in),
			LowerBound: exact.VolumeLowerBound(in),
		}, opt), nil
	})
}

func newGreedySolver() Solver {
	return NewSolver(NameGreedy, Caps{
		Kinds:     allKinds,
		Guarantee: "none (practical baseline)",
		Priority:  1,
	}, func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
		sched, err := baseline.Greedy(in)
		if err != nil {
			return core.Result{}, err
		}
		return publishResult(core.Result{
			Algorithm:  NameGreedy,
			Schedule:   sched,
			Makespan:   sched.Makespan(in),
			LowerBound: exact.VolumeLowerBound(in),
		}, opt), nil
	})
}

// publishResult pushes a finished solver result onto the live bound bus, so
// fast heuristics seed the incumbent for the still-running racers.
func publishResult(res core.Result, opt Options) core.Result {
	if opt.Bounds != nil {
		opt.Bounds.PublishUpper(res.Makespan)
		opt.Bounds.PublishLower(res.LowerBound)
	}
	return res
}

func newPTASSolver() Solver {
	return NewSolver(NamePTAS, Caps{
		Kinds:     uniformKinds,
		Guarantee: "1+O(ε) (Section 2 PTAS)",
		Priority:  50,
	}, func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
		res, _, err := ptas.Schedule(ctx, in, ptas.Options{
			Eps:       opt.Eps,
			NodeCap:   opt.NodeCap,
			Precision: opt.Precision,
			Bounds:    opt.Bounds,
		})
		return res, err
	})
}

func newRoundingSolver() Solver {
	return NewSolver(NameRounding, Caps{
		Kinds:     []core.Kind{core.RestrictedAssignment, core.Unrelated},
		Guarantee: "O(log n + log m) (Theorem 3.3)",
		Priority:  20,
	}, func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
		res, det, err := rounding.ScheduleDetailed(ctx, in, rounding.Options{
			Rng:       rngFor(opt),
			Precision: opt.Precision,
			Bounds:    opt.Bounds,
			Warm:      opt.Warm,
		})
		if err == nil && opt.Retain != nil {
			opt.Retain(RetainedState{Accepted: det.Accepted, Rel: det.Relaxation})
		}
		return res, err
	})
}

func newRA2Solver() Solver {
	return NewSolver(NameRA2, Caps{
		Kinds:               []core.Kind{core.RestrictedAssignment},
		NeedsClassUniformRA: true,
		Guarantee:           "2-approximation (Theorem 3.10)",
		Priority:            40,
	}, func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
		return special.ScheduleClassUniformRA(ctx, in, special.Options{Precision: opt.Precision, Bounds: opt.Bounds})
	})
}

func newPT3Solver() Solver {
	return NewSolver(NamePT3, Caps{
		Kinds:               []core.Kind{core.Identical, core.Uniform, core.Unrelated},
		NeedsClassUniformPT: true,
		Guarantee:           "3-approximation (Theorem 3.11)",
		Priority:            30,
	}, func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
		return special.ScheduleClassUniformPT(ctx, in, special.Options{Precision: opt.Precision, Bounds: opt.Bounds})
	})
}

func newExactSolver() Solver {
	return NewSolver(NameExact, Caps{
		Kinds:     allKinds,
		MaxJobs:   exact.MaxJobs,
		Guarantee: "exact optimum (branch-and-bound)",
		Priority:  5,
	}, func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
		// Prime the search with a heuristic pass so the branch-and-bound
		// never starts from +Inf: the greedy makespan seeds the pruning
		// threshold, its schedule covers the case where the primed search
		// prunes its whole tree (nothing strictly better exists), and in
		// a portfolio the bus tightens the threshold further mid-search.
		var fallback *core.Schedule
		prime := 0.0
		if g, err := baseline.Greedy(in); err == nil {
			fallback = g
			prime = g.Makespan(in)
			if opt.Bounds != nil {
				opt.Bounds.PublishUpper(prime)
			}
		}
		sched, ms, st := exact.BranchAndBound(ctx, in, exact.Options{
			MaxJobs:    opt.MaxJobs,
			NodeLimit:  opt.NodeLimit,
			UpperBound: prime,
			Bounds:     opt.Bounds,
		})
		if sched == nil {
			if st.Reason == exact.StopTooLarge || fallback == nil {
				return core.Result{}, fmt.Errorf("branch-and-bound found no schedule (%s, n=%d, %d nodes)", st.Reason, in.N, st.Nodes)
			}
			sched, ms = fallback, prime
		}
		res := core.Result{
			Algorithm: NameExact,
			Schedule:  sched,
			Makespan:  ms,
			Nodes:     st.Nodes,
		}
		if st.Proven {
			res.LowerBound = ms
			if core.IsFinite(st.Bound) && st.Bound < ms {
				// A concurrent racer's incumbent tightened the threshold
				// below our schedule; only the threshold is certified.
				res.LowerBound = st.Bound
			}
		} else {
			res.LowerBound = exact.VolumeLowerBound(in)
			res.Note = fmt.Sprintf("search incomplete (%s after %d nodes); schedule is best-so-far, optimality not proven", st.Reason, st.Nodes)
		}
		return res, nil
	})
}

// postProcess applies the optional local-search descent to a solver result.
func postProcess(ctx context.Context, in *core.Instance, res core.Result, opt Options) core.Result {
	if !opt.LocalSearch || res.Schedule == nil {
		return res
	}
	improved, ir := improve.Improve(ctx, in, res.Schedule, improve.DefaultOptions())
	if ir.After < res.Makespan {
		res.Schedule = improved
		res.Makespan = ir.After
		res.Algorithm += "+ls"
	}
	return res
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// NewDefaultRegistry returns a fresh registry with every algorithm of the
// paper registered: the Lemma 2.1 LPT rule, the setup-aware greedy
// baseline, the Section 2 PTAS, the Section 3.1 randomized LP rounding, the
// two class-uniform special cases of Section 3.3, and the exact
// branch-and-bound for small instances. Each call builds an independent
// registry, so callers (e.g. engine handles) can register additional
// solvers — alternative LP backends, heuristics — without affecting anyone
// else.
func NewDefaultRegistry() *Registry {
	reg := NewRegistry()
	reg.MustRegister(newPTASSolver())
	reg.MustRegister(newRA2Solver())
	reg.MustRegister(newPT3Solver())
	reg.MustRegister(newRoundingSolver())
	reg.MustRegister(newLPTSolver())
	reg.MustRegister(newExactSolver())
	reg.MustRegister(newGreedySolver())
	return reg
}

// Default returns the shared process-wide registry with the full paper
// solver set (see NewDefaultRegistry).
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewDefaultRegistry()
	})
	return defaultReg
}

// Solve dispatches through the default registry.
func Solve(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
	return Default().Solve(ctx, in, opt)
}
