package sched

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// --- engine construction options -------------------------------------------

// engineConfig accumulates EngineOptions inside New.
type engineConfig struct {
	registry  *engine.Registry
	solvers   []string
	workers   int
	cacheSize int
}

// EngineOption configures an Engine at construction (sched.New).
type EngineOption func(*engineConfig) error

// WithSolvers restricts the engine to the named subset of the registered
// solver set (the Algo… constants name the paper set), in the given order.
// Automatic selection and portfolio races then consider only these solvers
// — e.g. WithSolvers("lpt", "greedy") builds a heuristics-only engine for
// latency-critical traffic. Unknown or duplicate names are a construction
// error.
func WithSolvers(names ...string) EngineOption {
	return func(c *engineConfig) error {
		if len(names) == 0 {
			return fmt.Errorf("sched: WithSolvers needs at least one solver name")
		}
		c.solvers = append([]string(nil), names...)
		return nil
	}
}

// WithRegistry replaces the engine's solver registry wholesale. This is the
// hook for plugging in solvers beyond the paper set (alternative LP
// backends, custom heuristics): build a registry with NewRegistry or
// NewDefaultRegistry, Register additional Solver implementations (see
// NewSolver), and hand it to the engine. WithSolvers, when also given,
// subsets this registry.
func WithRegistry(reg *Registry) EngineOption {
	return func(c *engineConfig) error {
		if reg == nil {
			return fmt.Errorf("sched: WithRegistry needs a non-nil registry")
		}
		c.registry = reg
		return nil
	}
}

// WithWorkers sets the engine's global concurrency budget — the token
// count of its governor. The default is runtime.GOMAXPROCS(0).
//
// Every unit of parallelism the engine spends draws from this one budget:
// SolveBatch admits at most n instances at a time, and a portfolio race's
// extra members each cost a token. The layers compose cooperatively —
// each admitted solve owns one guaranteed token, and everything beyond it
// is acquire-or-degrade — so batch × portfolio traffic never runs more
// than n solver lanes at once and never deadlocks, even at n = 1. See
// Engine.GovernorStats for observed utilization.
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) error {
		if n < 1 {
			return fmt.Errorf("sched: WithWorkers(%d): need at least one worker", n)
		}
		c.workers = n
		return nil
	}
}

// WithBoundCache sets the capacity (in distinct instance fingerprints) of
// the engine's warm-start bound cache; entries <= 0 disables caching
// entirely. The default capacity is 256 fingerprints with FIFO eviction.
func WithBoundCache(entries int) EngineOption {
	return func(c *engineConfig) error {
		c.cacheSize = entries
		return nil
	}
}

// --- per-call solve options ------------------------------------------------

// solveConfig accumulates SolveOptions for one Solve/Portfolio/SolveBatch
// call.
type solveConfig struct {
	opt       engine.Options
	algorithm string
	timeout   time.Duration
	events    chan<- Event
	cold      bool
	portfolio bool
	// admitted marks a solve whose governor token was already acquired by
	// the caller (SolveBatch workers acquire per job), so begin must not
	// acquire a second one.
	admitted bool
	// retain marks a solve whose state should be kept for incremental
	// re-solving (Open/Resolve): the fingerprint is computed even on a
	// cache-less engine, the solver is asked to hand back its warm-start
	// state, and the outcome is stored in the engine's StateStore.
	retain bool
	// warm carries the re-solve warm start derived from a previous handle
	// (bracket, witness, patched relaxation) into the solver.
	warm *core.WarmStart
	// seed, when non-nil, is delta-derived certified knowledge about this
	// exact instance (the patched witness schedule and lifted bounds). It
	// merges into the session's warm-start seed ahead of the fingerprint
	// cache — including under WithoutWarmStart, which opts out of the
	// cache, not of explicitly provided knowledge.
	seed *engine.CachedBounds
}

// SolveOption tunes one engine call (Engine.Solve, Engine.Portfolio,
// Engine.SolveBatch, Engine.Open). Options are applied in order; a later
// option overrides an earlier one.
type SolveOption func(*solveConfig)

// WithEps sets the accuracy parameter of the PTAS (default 1/2; smaller is
// more accurate and slower).
func WithEps(eps float64) SolveOption {
	return func(c *solveConfig) { c.opt.Eps = eps }
}

// WithPrecision sets the relative precision of dual-approximation binary
// searches (default per solver).
func WithPrecision(p float64) SolveOption {
	return func(c *solveConfig) { c.opt.Precision = p }
}

// WithSeed seeds randomized solvers (the LP rounding); 0 keeps the fixed
// default stream, so runs are deterministic unless a seed is chosen.
// Determinism is per seed format: the rounding's draw consumption changed
// in v2 (batched fixed-point Bernoulli draws), so a seed reproduces runs
// within this release line but not schedules recorded under v1.
func WithSeed(seed int64) SolveOption {
	return func(c *solveConfig) { c.opt.Seed = seed }
}

// WithMaxJobs overrides the job-count guard of the exact branch-and-bound
// and widens its capability match accordingly.
func WithMaxJobs(n int) SolveOption {
	return func(c *solveConfig) { c.opt.MaxJobs = n }
}

// WithLocalSearch toggles the best-improvement descent post-pass on the
// chosen schedule.
func WithLocalSearch(on bool) SolveOption {
	return func(c *solveConfig) { c.opt.LocalSearch = on }
}

// WithGap sets the relative optimality gap at which a portfolio race
// terminates early: once the shared incumbent is within a factor 1+gap of
// the best certified lower bound, remaining racers are cancelled.
func WithGap(gap float64) SolveOption {
	return func(c *solveConfig) { c.opt.Gap = gap }
}

// WithAlgorithm dispatches to the named registered solver (see
// Engine.Solvers) instead of automatic strongest-applicable selection. A
// solver whose capabilities do not match the instance is not run: the
// call fails with an error naming the capability the instance lacks.
// Portfolio races (Engine.Portfolio or WithPortfolio) ignore this option —
// they always race every applicable solver.
func WithAlgorithm(name string) SolveOption {
	return func(c *solveConfig) { c.algorithm = name }
}

// WithPortfolio makes the solve race every applicable solver instead of
// dispatching to the strongest one, keeping the best result — the
// Solve/SolveBatch-shaped counterpart of Engine.Portfolio for callers who
// want racing without the per-member outcome report. Under the governor
// the race's extra members are acquire-or-degrade: on a saturated engine
// the members run priority-sequentially on the solve's own token, still
// sharing incumbents and certified bounds. WithAlgorithm is ignored when
// this option is set.
func WithPortfolio() SolveOption {
	return func(c *solveConfig) { c.portfolio = true }
}

// WithTimeout bounds the call with a deadline. In SolveBatch the timeout is
// per request: each instance gets its own deadline from the moment a worker
// picks it up, which is the service-mode contract (a slow instance cannot
// starve the rest of the batch's time budget).
func WithTimeout(d time.Duration) SolveOption {
	return func(c *solveConfig) { c.timeout = d }
}

// WithEvents streams the call's bound improvements — incumbent makespans
// going down, certified lower bounds going up — to ch as they happen.
// Sends never block: give the channel enough buffer for the expected event
// volume or drain it concurrently, or improvements are dropped. The channel
// is not closed when the solve returns; it can be reused across calls.
// Engine.Events subscribes to all calls instead.
func WithEvents(ch chan<- Event) SolveOption {
	return func(c *solveConfig) { c.events = ch }
}

// WithoutWarmStart solves cold: the engine's fingerprint-keyed bound cache
// is neither consulted nor allowed to substitute a better cached schedule,
// though the call's final bounds are still recorded for future solves.
// Benchmarks and algorithm comparisons use this to measure the algorithm
// itself rather than the cache.
func WithoutWarmStart() SolveOption {
	return func(c *solveConfig) { c.cold = true }
}

// defaultWorkers is the governor budget used when WithWorkers is not
// given.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
