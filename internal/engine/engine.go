// Package engine is the solver orchestration layer: a registry of pluggable
// Solver implementations with capability matching, automatic selection of
// the strongest applicable algorithm, and a portfolio mode that races all
// applicable solvers concurrently under a shared context and keeps the best
// schedule.
//
// Every algorithm of the paper (and every future one — new LP backends,
// heuristics, sharded searches) plugs in behind the Solver interface; the
// public sched API and the cmd tools dispatch exclusively through a
// Registry. Capability matching covers the machine environment (core.Kind),
// the class-uniform structural preconditions of Theorems 3.10/3.11, and
// instance-size guards for the exponential exact search.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Options is the unified tuning surface passed to every solver. Each solver
// reads only the fields it understands; zero values mean per-solver
// defaults.
type Options struct {
	// Eps is the accuracy parameter for the PTAS (default 1/2).
	Eps float64
	// Precision is the relative precision of dual-approximation binary
	// searches (default per solver).
	Precision float64
	// Seed drives randomized solvers (the LP rounding); 0 means the fixed
	// default seed, so runs are deterministic unless a seed is chosen.
	Seed int64
	// MaxJobs overrides the job-count guard of the exact branch-and-bound
	// (0 means exact.MaxJobs). It also widens the capability match: an
	// instance with at most MaxJobs jobs is considered in-scope for the
	// exact solver.
	MaxJobs int
	// NodeLimit caps the branch-and-bound search nodes (0 = unlimited).
	NodeLimit int64
	// NodeCap bounds the PTAS dynamic-program nodes per guess (0 = solver
	// default).
	NodeCap int64
	// LocalSearch post-optimizes the chosen schedule with the
	// best-improvement descent of internal/improve before returning it.
	LocalSearch bool
	// Gap, in portfolio mode, is the relative optimality gap at which the
	// race terminates early: once the shared incumbent makespan is within a
	// factor 1+Gap of the best certified lower bound, the remaining racers
	// are cancelled and the incumbent is returned as certified-good-enough.
	// 0 disables early termination (racers run to completion or deadline).
	Gap float64
	// Bounds, when non-nil, connects the solve to a live incumbent bus
	// (core.BoundBus): solvers prime their searches from its bounds and
	// publish improved makespans and certified lower bounds back as they
	// appear. Portfolio supplies its own shared bus to its members; a
	// caller-provided bus seeds that race and receives its final bounds,
	// enabling warm restarts across repeated solves.
	Bounds core.BoundBus
	// Budget, when non-nil, is the engine's global concurrency budget (the
	// governor): a portfolio race draws its extra member lanes from it,
	// acquire-or-degrade. The solve itself is assumed to already hold one
	// guaranteed token (the engine admits solves through the blocking side
	// of the governor), so the race only ever uses the non-blocking
	// TryAcquire/Release. Nil launches every member on its own goroutine.
	Budget core.TokenBudget
	// Warm, when non-nil, carries re-solve knowledge from a previous solve
	// of a related instance (see core.WarmStart): a certified lower bound,
	// an accept-backed upper bracket edge, a feasible fallback witness, and
	// optionally solver-specific retained state. Solvers that run dual
	// searches open their bracket on it instead of bootstrapping cold;
	// solvers that cannot use it ignore it. Correctness must never depend
	// on Warm — it is a latency hint with certified components.
	Warm *core.WarmStart
	// Retain, when non-nil, asks the solver to hand back its retainable
	// warm-start state after the solve (called at most once, before Solve
	// returns). Only solvers with such state call it (the randomized
	// rounding retains its LP relaxation and the search's accepted bracket
	// edge); the engine's resolve path combines it with the Result into a
	// SolveState.
	Retain func(RetainedState)
}

// Caps declares what instances a solver can handle and how strong it is.
type Caps struct {
	// Kinds lists the machine environments the solver accepts.
	Kinds []core.Kind
	// NeedsClassUniformRA requires the Theorem 3.10 structure: all jobs of
	// a class share one eligible machine set.
	NeedsClassUniformRA bool
	// NeedsClassUniformPT requires the Theorem 3.11 structure: all jobs of
	// a class have identical processing times per machine.
	NeedsClassUniformPT bool
	// MaxJobs, when positive, guards the solver against instances with
	// more jobs (used by the exponential exact search).
	MaxJobs int
	// Guarantee is the human-readable approximation guarantee ("1+O(ε)",
	// "2-approximation", "exact", "none").
	Guarantee string
	// Priority orders automatic selection: among applicable solvers the
	// highest priority wins (the strongest guarantee for the environment).
	Priority int
}

// SupportsKind reports whether the solver accepts the machine environment.
func (c Caps) SupportsKind(k core.Kind) bool {
	for _, ck := range c.Kinds {
		if ck == k {
			return true
		}
	}
	return false
}

// Solver is one schedulable algorithm. Solve must observe ctx: on
// cancellation it returns promptly, either with its best feasible schedule
// so far (Result.Note explaining the early stop) or with an error when it
// has nothing feasible yet.
type Solver interface {
	Name() string
	Capabilities() Caps
	Solve(ctx context.Context, in *core.Instance, opt Options) (core.Result, error)
}

// Registry holds named solvers and answers capability queries. The zero
// value is not usable; create with NewRegistry (empty) or Default (all
// paper solvers registered).
type Registry struct {
	mu      sync.RWMutex
	solvers map[string]Solver
	order   []string // registration order, for deterministic iteration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{solvers: map[string]Solver{}}
}

// Register adds a solver; a duplicate name is an error.
func (r *Registry) Register(s Solver) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := s.Name()
	if name == "" {
		return fmt.Errorf("engine: solver with empty name")
	}
	if _, dup := r.solvers[name]; dup {
		return fmt.Errorf("engine: solver %q already registered", name)
	}
	r.solvers[name] = s
	r.order = append(r.order, name)
	return nil
}

// MustRegister is Register panicking on error (for static solver sets).
func (r *Registry) MustRegister(s Solver) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Get looks a solver up by name.
func (r *Registry) Get(name string) (Solver, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.solvers[name]
	return s, ok
}

// Names returns the registered solver names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Solvers returns the registered solvers in registration order.
func (r *Registry) Solvers() []Solver {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Solver, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.solvers[name])
	}
	return out
}

// mismatch reports which of the solver's capabilities the instance fails
// under the given options (environment, structure, size guard), or "" when
// the solver applies.
func mismatch(s Solver, in *core.Instance, opt Options) string {
	caps := s.Capabilities()
	if !caps.SupportsKind(in.Kind) {
		return "machine environment not supported"
	}
	if guard := caps.MaxJobs; guard > 0 {
		// opt.MaxJobs replaces the guard outright (in either direction),
		// matching how the exact solver itself interprets it.
		if opt.MaxJobs > 0 {
			guard = opt.MaxJobs
		}
		if in.N > guard {
			return "more jobs than the solver's job-count guard"
		}
	}
	if caps.NeedsClassUniformRA && !HasClassUniformRA(in) {
		return "eligible machine sets are not class-uniform (Theorem 3.10)"
	}
	if caps.NeedsClassUniformPT && !HasClassUniformPT(in) {
		return "processing times are not class-uniform (Theorem 3.11)"
	}
	return ""
}

// Applicable returns the solvers whose capabilities match the instance,
// strongest (highest Priority) first; ties keep registration order.
func (r *Registry) Applicable(in *core.Instance, opt Options) []Solver {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Solver
	for _, name := range r.order {
		if s := r.solvers[name]; mismatch(s, in, opt) == "" {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return out[a].Capabilities().Priority > out[b].Capabilities().Priority
	})
	return out
}

// Select returns the strongest applicable solver for the instance: the
// PTAS for identical/uniform machines, the 2-approximation for
// class-uniform restricted assignment, the 3-approximation for
// class-uniform processing times, randomized rounding for general
// unrelated machines, with the baselines as last resorts.
func (r *Registry) Select(in *core.Instance, opt Options) (Solver, error) {
	app := r.Applicable(in, opt)
	if len(app) == 0 {
		return nil, fmt.Errorf("engine: no registered solver is applicable to %v", in)
	}
	return app[0], nil
}

// Solve picks the strongest applicable solver and runs it under ctx,
// applying the optional local-search post-pass.
func (r *Registry) Solve(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
	s, err := r.Select(in, opt)
	if err != nil {
		return core.Result{}, err
	}
	return r.run(ctx, s, in, opt)
}

// ErrNotApplicable is wrapped by SolveNamed's error when the named solver's
// capabilities do not match the instance (machine environment,
// class-uniform structure or job-count guard): the request, not the
// solver, is at fault.
var ErrNotApplicable = errors.New("solver not applicable to the instance")

// SolveNamed runs the registered solver with the given name under ctx,
// applying the optional local-search post-pass (the path named-algorithm
// dispatch must use so Options.LocalSearch is honored). A solver whose
// capabilities do not match the instance is not run; the error wraps
// ErrNotApplicable.
func (r *Registry) SolveNamed(ctx context.Context, name string, in *core.Instance, opt Options) (core.Result, error) {
	s, ok := r.Get(name)
	if !ok {
		return core.Result{}, fmt.Errorf("engine: solver %q not registered", name)
	}
	if why := mismatch(s, in, opt); why != "" {
		return core.Result{}, fmt.Errorf("engine: %s on %v (n=%d): %s: %w", name, in.Kind, in.N, why, ErrNotApplicable)
	}
	return r.run(ctx, s, in, opt)
}

// run solves with s and applies the post-pass. A panic in the solver (or
// in the post-pass on its result) is returned as an error, as a portfolio
// race does for its members, so one faulty solver cannot take the process
// down with it.
func (r *Registry) run(ctx context.Context, s Solver, in *core.Instance, opt Options) (res core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = core.Result{}, fmt.Errorf("engine: solver %s panicked: %v", s.Name(), p)
		}
	}()
	res, err = s.Solve(ctx, in, opt)
	if err != nil {
		return core.Result{}, fmt.Errorf("engine: %s: %w", s.Name(), err)
	}
	return postProcess(ctx, in, res, opt), nil
}
