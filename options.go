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
	registry   *engine.Registry
	solvers    []string
	workers    int
	cacheSize  int
	defaults   []SolveOption
	ungoverned bool
}

// EngineOption configures an Engine at construction (sched.New).
type EngineOption func(*engineConfig) error

// WithSolvers restricts the engine to the named subset of the registered
// solver set (see Solvers for the names), in the given order. Automatic
// selection and portfolio races then consider only these solvers — e.g.
// WithSolvers("lpt", "greedy") builds a heuristics-only engine for
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
// SolveBatch admits at most n instances at a time, a portfolio race's
// extra members each cost a token, and a speculative dual search
// (WithSearchWorkers) widens only as far as the remaining tokens allow.
// The layers compose cooperatively — each admitted solve owns one
// guaranteed token, and everything beyond it is acquire-or-degrade — so
// batch × portfolio × speculation traffic never runs more than n LP
// solves at once and never deadlocks, even at n = 1. See
// Engine.GovernorStats for observed utilization, and WithUngoverned for
// the pre-governor clamping behavior.
func WithWorkers(n int) EngineOption {
	return func(c *engineConfig) error {
		if n < 1 {
			return fmt.Errorf("sched: WithWorkers(%d): need at least one worker", n)
		}
		c.workers = n
		return nil
	}
}

// WithUngoverned disables the engine's concurrency governor, restoring
// the independent local clamps: SolveBatch runs a WithWorkers-sized
// worker pool, each solve clamps its own SearchWorkers to the worker
// budget, and portfolio races launch every member on its own goroutine
// regardless of load. Layered traffic can then oversubscribe the box
// multiplicatively (batch × portfolio × speculation); the option exists
// as the baseline row for oversubscription comparisons (see `schedbench
// -oversub`) and as an escape hatch should governed admission interact
// badly with an embedding application's own scheduler.
func WithUngoverned() EngineOption {
	return func(c *engineConfig) error {
		c.ungoverned = true
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

// WithDefaults installs per-call options applied to every Solve, Portfolio
// and SolveBatch on the engine, before the call's own options (which
// therefore override them) — e.g. New(WithDefaults(WithEps(0.25),
// WithTimeout(2*time.Second))) builds an engine with a house accuracy and
// deadline policy.
func WithDefaults(opts ...SolveOption) EngineOption {
	return func(c *engineConfig) error {
		c.defaults = append(c.defaults, opts...)
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
// Engine.SolveBatch). Options are applied in order after the engine's
// WithDefaults.
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

// WithNodeLimit caps branch-and-bound search nodes (0 = unlimited).
func WithNodeLimit(n int64) SolveOption {
	return func(c *solveConfig) { c.opt.NodeLimit = n }
}

// WithNodeCap bounds the PTAS dynamic-program nodes per guess (0 = solver
// default).
func WithNodeCap(n int64) SolveOption {
	return func(c *solveConfig) { c.opt.NodeCap = n }
}

// WithRoundingC sets the iteration multiplier of the randomized rounding
// (0 = solver default).
func WithRoundingC(c0 int) SolveOption {
	return func(c *solveConfig) { c.opt.RoundingC = c0 }
}

// WithLPBackend selects the LP solver backend for solvers that run LPs
// (the randomized rounding's relaxation LPs): "sparse" — the
// warm-started sparse revised simplex, the default — "dense", the
// reference dense solver, "ipm" — interior-point (Mehrotra
// predictor-corrector over a sparse Cholesky of the normal equations) for
// the cold solve, crossing over to a simplex basis so warm re-solves stay
// on the dual-simplex path — or "auto", which picks IPM on instances
// large enough to amortize the factorization and sparse otherwise.
// Unknown names are reported as a solve error. Result.LPIters exposes the
// per-run LP effort (pivots plus interior-point iterations) for
// comparisons, and `schedbench -engine -lp=dense|sparse|ipm|auto` prints
// comparison rows.
func WithLPBackend(kind string) SolveOption {
	return func(c *solveConfig) { c.opt.LPBackend = kind }
}

// WithLPPresolve toggles the LP presolve + equilibration-scaling pipeline
// that runs ahead of every cold LP backend build (on by default): fixed
// and implied-fixed variables are eliminated, redundant and singleton rows
// removed, and the reduced matrix Ruiz-scaled before it reaches the
// simplex or interior-point solver. Solutions, bases and infeasibility
// certificates are mapped back to the original problem, so verdicts are
// identical either way; pass false to measure the unpresolved baseline
// (`schedbench -no-presolve` does the same).
func WithLPPresolve(on bool) SolveOption {
	return func(c *solveConfig) { c.opt.LPNoPresolve = !on }
}

// WithSearchWorkers sets the speculative parallelism of dual-approximation
// binary searches: solvers that search over a makespan guess (the PTAS,
// the randomized rounding, the class-uniform special cases) evaluate up to
// n guesses concurrently per round (dual.Speculate), each worker on its
// own warm-start state — the rounding clones its LP relaxation (backend,
// basis, workspace) per worker, so warm bases never race. Verdicts are
// equivalent to the sequential bisection within the search precision;
// wall-clock improves when spare cores exist, at the cost of redundant
// guess work. Values < 2 keep the sequential bisection.
//
// On a governed engine (the default), n is a request, not a reservation:
// each search round runs as wide as the governor's remaining tokens allow
// at that moment, shrinking toward plain bisection when batch or
// portfolio traffic holds the budget. There is no multiplicative
// oversubscription to size around — ask for the width a solo solve should
// use and let the governor arbitrate contention. Only with WithUngoverned
// does n act as a hard per-solve clamp (capped at the engine's worker
// budget and GOMAXPROCS), multiplying across concurrent batch workers and
// portfolio members.
func WithSearchWorkers(n int) SolveOption {
	return func(c *solveConfig) { c.opt.SearchWorkers = n }
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

// WithBounds connects the call to a caller-owned bound bus (see
// NewBoundBus): the solve primes its searches from the bus's bounds and
// publishes improvements back as they appear. The bus is trusted as
// certified knowledge about the instance being solved — it must only ever
// carry bounds for that one instance (fingerprint), or the solve can
// return unsound lower bounds. For the same reason SolveBatch, whose
// options apply to every instance in the batch, ignores this option; batch
// warm starts ride the fingerprint cache instead. Cache bounds are still
// folded in unless WithoutWarmStart is given.
func WithBounds(bus BoundBus) SolveOption {
	return func(c *solveConfig) { c.opt.Bounds = bus }
}

// WithAlgorithm dispatches to the named registered solver (see Solvers)
// instead of automatic strongest-applicable selection. Portfolio races
// (Engine.Portfolio or WithPortfolio) ignore this option — they always
// race every applicable solver.
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

// WithOptions imports a flat SolveOptions struct wholesale, replacing every
// field-mapped option applied so far (it is the bridge the compatibility
// wrappers and CLI tools use; new code should prefer the individual
// functional options).
func WithOptions(opt SolveOptions) SolveOption {
	return func(c *solveConfig) { c.opt = opt }
}

// defaultWorkers is the governor budget used when WithWorkers is not
// given.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }
