package sched

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// Engine is a long-lived handle over a configured solver set: the unit of
// API the service mode is built from. An Engine owns
//
//   - its own solver registry (configurable via WithSolvers/WithRegistry —
//     the seam future LP backends and custom heuristics plug into),
//   - a bound cache keyed by canonical instance fingerprint
//     (Instance.Fingerprint): repeated solves of a fingerprint-identical
//     instance warm-start from the bounds and best schedule established by
//     earlier solves, so branch-and-bound searches are primed and
//     dual-approximation searches floored, and
//   - an event fan-out streaming anytime progress (incumbent improvements,
//     certified-bound updates) to subscribers.
//
// All methods are safe for concurrent use. Concurrency is bounded
// engine-wide by the governor, a weighted semaphore holding WithWorkers
// tokens (default GOMAXPROCS): every solve is admitted with one guaranteed
// token, and batch dispatch and portfolio member launches draw any extra
// parallelism from the same pool, acquire-or-degrade (see GovernorStats
// for the live occupancy). Every solve in this package is an Engine call;
// a program builds one with New and keeps it for as long as its cache and
// subscribers should live.
type Engine struct {
	reg    *engine.Registry
	cache  *engine.BoundCache
	states *engine.StateStore // retained solve states for Resolve
	gov    *engine.Governor

	mu   sync.RWMutex
	subs map[chan Event]struct{}
}

// New builds an Engine. With no options it carries the full paper solver
// set, a 256-fingerprint bound cache and a GOMAXPROCS-token governor.
func New(opts ...EngineOption) (*Engine, error) {
	cfg := engineConfig{workers: defaultWorkers(), cacheSize: engine.DefaultBoundCacheSize}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	reg := cfg.registry
	if reg == nil {
		reg = engine.NewDefaultRegistry()
	}
	if len(cfg.solvers) > 0 {
		subset := engine.NewRegistry()
		for _, name := range cfg.solvers {
			s, ok := reg.Get(name)
			if !ok {
				return nil, fmt.Errorf("sched: unknown solver %q (registered: %v)", name, reg.Names())
			}
			if err := subset.Register(s); err != nil {
				return nil, fmt.Errorf("sched: WithSolvers: %w", err)
			}
		}
		reg = subset
	}
	e := &Engine{
		reg:  reg,
		gov:  engine.NewGovernor(cfg.workers),
		subs: make(map[chan Event]struct{}),
	}
	if cfg.cacheSize > 0 {
		e.cache = engine.NewBoundCache(cfg.cacheSize)
	}
	// The retention store for Open/Resolve, sized from the same worker
	// budget that bounds concurrent solves: each retained state pins a
	// built LP relaxation, so it scales with how many delta streams the
	// engine can plausibly serve at once, not with the bound cache.
	stateCap := 2 * cfg.workers
	if stateCap < engine.DefaultStateStoreSize {
		stateCap = engine.DefaultStateStoreSize
	}
	e.states = engine.NewStateStore(stateCap)
	return e, nil
}

// Solvers returns the names of the engine's registered solvers, usable with
// WithAlgorithm.
func (e *Engine) Solvers() []string { return e.reg.Names() }

// SolverInfo describes one registered solver for listings and diagnostics.
type SolverInfo struct {
	// Name is the registry name (usable with WithAlgorithm).
	Name string
	// Guarantee is the human-readable approximation guarantee.
	Guarantee string
	// Priority orders automatic selection (highest applicable wins).
	Priority int
}

// SolverInfo lists the engine's solvers with their guarantees and selection
// priorities, in registration order.
func (e *Engine) SolverInfo() []SolverInfo {
	var out []SolverInfo
	for _, s := range e.reg.Solvers() {
		caps := s.Capabilities()
		out = append(out, SolverInfo{Name: s.Name(), Guarantee: caps.Guarantee, Priority: caps.Priority})
	}
	return out
}

// Applicable returns the names of the solvers whose capabilities match the
// instance, strongest first — the set a Portfolio call would race.
func (e *Engine) Applicable(in *Instance) []string {
	var out []string
	for _, s := range e.reg.Applicable(in, engine.Options{}) {
		out = append(out, s.Name())
	}
	return out
}

// CacheStats is a snapshot of the warm-start bound cache's effectiveness
// counters; see Engine.CacheStats.
type CacheStats struct {
	// Hits and Misses count exact-fingerprint lookups since the engine was
	// built (similarity probes are not counted — they only run on a miss).
	Hits, Misses int64
	// Entries is the number of distinct fingerprints currently cached.
	Entries int
}

// CacheStats reports the bound cache's lookup counters and current size.
// On a cache-less engine (WithBoundCache(0)) all fields are zero.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	hits, misses := e.cache.Stats()
	return CacheStats{Hits: hits, Misses: misses, Entries: e.cache.Len()}
}

// SaveBounds serializes the engine's bound cache to w (versioned JSON) so a
// later process can warm-start from this one's certified bounds; see
// LoadBounds and the `schedserve -cache-save` flag. On a cache-less engine
// it writes an empty snapshot.
func (e *Engine) SaveBounds(w io.Writer) error {
	if e.cache == nil {
		return engine.NewBoundCache(1).Snapshot(w)
	}
	return e.cache.Snapshot(w)
}

// LoadBounds merges a SaveBounds snapshot into the engine's bound cache.
// The merge is monotone — loaded bounds only ever improve what the cache
// already holds — so loading stale snapshots is always safe. It returns the
// number of snapshot entries merged; on a cache-less engine it reads and
// discards the snapshot.
func (e *Engine) LoadBounds(r io.Reader) (int, error) {
	if e.cache == nil {
		return engine.NewBoundCache(1).LoadSnapshot(r)
	}
	return e.cache.LoadSnapshot(r)
}

// Events subscribes to the engine's anytime progress stream: every bound
// improvement of every subsequent Solve, Portfolio and SolveBatch call is
// sent to the returned channel, stamped with the instance fingerprint so
// concurrent solves can be demultiplexed. buffer sizes the channel (values
// < 1 select a default of 64). Sends never block solvers: if the
// subscriber falls behind the buffer, improvements are dropped, not
// queued. The returned cancel function unsubscribes and closes the
// channel; it is idempotent.
//
// The event tap is installed at solve start: a solve that began while no
// subscriber (and no WithEvents channel) existed runs untapped and stays
// silent for its whole duration. A solve that began tapped broadcasts to
// whatever subscribers exist at each improvement, including ones added
// mid-solve.
func (e *Engine) Events(buffer int) (<-chan Event, func()) {
	if buffer < 1 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	e.mu.Lock()
	e.subs[ch] = struct{}{}
	e.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			e.mu.Lock()
			delete(e.subs, ch)
			close(ch)
			e.mu.Unlock()
		})
	}
	return ch, cancel
}

// broadcast fans an event out to the call-local channel (if any) and every
// engine-level subscriber, never blocking: a full channel drops the event.
// Holding the read lock while sending is what makes closing a subscriber
// channel (done under the write lock) safe.
func (e *Engine) broadcast(ev Event, callCh chan<- Event) {
	if callCh != nil {
		select {
		case callCh <- ev:
		default:
		}
	}
	e.mu.RLock()
	for ch := range e.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	e.mu.RUnlock()
}

// config folds the call's options into one solveConfig.
func (e *Engine) config(opts []SolveOption) solveConfig {
	var cfg solveConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// hasSubscribers reports whether any engine-level Events subscriber is
// registered; with none (and no per-call channel) a solve runs untapped, so
// the steady-state overhead of the event layer is one RLock per solve.
func (e *Engine) hasSubscribers() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.subs) > 0
}

// Solve solves one instance through the engine: automatic
// strongest-applicable dispatch (or the WithAlgorithm solver), warm-started
// from the fingerprint cache, under the WithTimeout deadline, streaming
// progress to WithEvents/Events subscribers.
func (e *Engine) Solve(ctx context.Context, in *Instance, opts ...SolveOption) (Result, error) {
	res, _, err := e.solveOne(ctx, in, e.config(opts))
	return res, err
}

// solveSession is the per-call warm-start state shared by Solve and
// Portfolio: the instance fingerprint, the seeded base bus, the cached
// knowledge it was seeded from, the instrumented engine options and the
// (possibly deadline-bounded) context.
type solveSession struct {
	fp     string
	in     *Instance
	base   BoundBus
	cached engine.CachedBounds
	hit    bool
	opt    engine.Options
	ctx    context.Context
	cancel context.CancelFunc
}

// begin opens a solve session: admit the solve through the governor (one
// guaranteed token, blocking until a lane frees or the deadline hits),
// look the fingerprint up in the cache, seed the bound bus, install the
// event tap and apply the per-request timeout. The fingerprint is only
// computed when something consumes it (the cache or an event listener), so
// a cache-less heuristics engine pays no hashing on its hot path. Callers
// must defer s.cancel() on success; it releases the admission token.
func (e *Engine) begin(ctx context.Context, in *Instance, cfg solveConfig) (solveSession, error) {
	s := solveSession{ctx: ctx}
	var cancelTimeout context.CancelFunc
	if cfg.timeout > 0 {
		// The deadline covers the whole call, admission wait included: a
		// solve stuck behind a saturated governor times out like any other.
		s.ctx, cancelTimeout = context.WithTimeout(ctx, cfg.timeout)
	}
	release := func() {}
	if !cfg.admitted {
		// Admission: the solve's one guaranteed compute lane. Everything
		// wider (portfolio members) is acquire-or-degrade inside the
		// solve, so holding this token can never deadlock.
		if err := e.gov.Acquire(s.ctx); err != nil {
			if cancelTimeout != nil {
				cancelTimeout()
			}
			return solveSession{}, err
		}
		release = func() { e.gov.Release(1) }
	}
	var once sync.Once
	s.cancel = func() {
		once.Do(func() {
			if cancelTimeout != nil {
				cancelTimeout()
			}
			release()
		})
	}
	s.in = in
	tapped := cfg.events != nil || e.hasSubscribers()
	if e.cache != nil || tapped || cfg.retain {
		s.fp = in.Fingerprint()
	}
	if e.cache != nil && !cfg.cold {
		s.cached, s.hit = e.cache.Lookup(s.fp)
		if !s.hit {
			// Exact-fingerprint miss: probe the similarity index. A hit is a
			// schedule from a near-identical instance re-priced on this one
			// (never the stale bound), so its Upper is certified here too.
			s.cached, s.hit = e.cache.LookupSimilar(in, s.fp)
		}
	}
	if cfg.seed != nil {
		// Delta-derived knowledge about this exact instance (the patched
		// witness and lifted bounds) outranks whatever the cache held. It
		// applies even under WithoutWarmStart: the caller supplied it
		// explicitly, the option opts out of the cache.
		if !s.hit {
			s.cached = engine.CachedBounds{Upper: math.Inf(1)}
			s.hit = true
		}
		if cfg.seed.Schedule != nil && cfg.seed.Upper < s.cached.Upper {
			s.cached.Upper = cfg.seed.Upper
			s.cached.Schedule = cfg.seed.Schedule
			s.cached.Algorithm = cfg.seed.Algorithm
		}
		if cfg.seed.Lower > s.cached.Lower {
			s.cached.Lower = cfg.seed.Lower
		}
	}
	s.base = engine.NewIncumbent()
	if s.hit {
		// Warm start: prime the incumbent with the best makespan any
		// earlier solve of this fingerprint achieved (branch-and-bound
		// pruning thresholds start there; dual searches skip guesses at or
		// above it) and floor the lower bound (dual searches start
		// narrowed; gap watchers see the true remaining gap).
		s.base.PublishUpper(s.cached.Upper)
		s.base.PublishLower(s.cached.Lower)
	}
	s.opt = cfg.opt
	s.opt.Warm = cfg.warm
	// The governor is the width authority: a portfolio race draws its
	// extra member lanes from it live, so concurrent solves share one pool
	// instead of multiplying.
	s.opt.Budget = e.gov
	s.opt.Bounds = s.base
	if tapped {
		s.opt.Bounds = engine.NewEventBus(s.base, s.fp, func(ev Event) { e.broadcast(ev, cfg.events) })
	}
	return s, nil
}

// fail records what a failed session still learned: lower bounds certified
// on the bus before the failure are knowledge worth keeping.
func (e *Engine) fail(s solveSession) {
	if e.cache != nil {
		e.cache.Update(s.fp, engine.CachedBounds{Lower: s.base.Lower()})
	}
}

// solveOne runs one configured solve: seed the bound bus from the cache,
// dispatch (strongest-applicable, the named solver, or — with
// WithPortfolio — the full applicable race), then fold the outcome back
// into the cache. It also returns the session's fingerprint of in, which
// is "" when nothing consumed it (no cache, no event listener, no retain).
func (e *Engine) solveOne(ctx context.Context, in *Instance, cfg solveConfig) (Result, string, error) {
	s, err := e.begin(ctx, in, cfg)
	if err != nil {
		return Result{}, "", err
	}
	defer s.cancel()
	var ret engine.RetainedState
	if cfg.retain {
		// Ask the solver for its retainable warm-start state (the rounding
		// solver hands back its LP relaxation and accepted bracket edge);
		// combined with the result below it becomes the SolveState a later
		// Resolve consumes.
		s.opt.Retain = func(r engine.RetainedState) { ret = r }
	}
	var res Result
	switch {
	case cfg.portfolio:
		pr, perr := e.reg.Portfolio(s.ctx, in, s.opt)
		res, err = pr.Best, perr
	case cfg.algorithm != "":
		res, err = e.reg.SolveNamed(s.ctx, cfg.algorithm, in, s.opt)
	default:
		res, err = e.reg.Solve(s.ctx, in, s.opt)
	}
	if err != nil {
		e.fail(s)
		return Result{}, "", err
	}
	res, _ = e.finish(s, res)
	if cfg.retain && res.Schedule != nil {
		e.states.Put(&engine.SolveState{
			Fingerprint: s.fp,
			Instance:    in,
			Schedule:    res.Schedule.Clone(),
			Upper:       res.Makespan,
			Lower:       res.LowerBound,
			Accepted:    ret.Accepted,
			Rel:         ret.Rel,
			Algorithm:   res.Algorithm,
		})
	}
	return res, s.fp, nil
}

// finish closes a session by reconciling a solver result with the cached
// knowledge for the fingerprint: the returned result is never worse than
// what the cache already held (warm starts are monotone), its lower bound
// absorbs every certified bound seen, and the cache is updated for future
// solves. The bool reports whether the cached schedule was substituted for
// the run's own.
func (e *Engine) finish(s solveSession, res Result) (Result, bool) {
	substituted := false
	if s.hit && s.cached.Schedule != nil && s.cached.Upper < res.Makespan-core.Eps {
		substituted = true
		// The warm-start seed beat this run (typical when the cached bound
		// is already optimal: a primed branch-and-bound proves nothing
		// better exists without re-finding the witness, and a primed dual
		// search skips every guess at or above it). Hand back the cached
		// schedule; Nodes still reports this run's effort.
		res.Note = fmt.Sprintf(
			"warm start: returning the cached %s schedule (makespan %g) from an earlier solve of this fingerprint; this run's %s reached %g",
			s.cached.Algorithm, s.cached.Upper, res.Algorithm, res.Makespan)
		res.Schedule = s.cached.Schedule
		res.Makespan = s.cached.Upper
		res.Algorithm = s.cached.Algorithm
	}
	if l := s.base.Lower(); l > res.LowerBound {
		res.LowerBound = l
	}
	if s.hit && s.cached.Lower > res.LowerBound {
		res.LowerBound = s.cached.Lower
	}
	if res.LowerBound > res.Makespan {
		res.LowerBound = res.Makespan
	}
	if e.cache != nil {
		e.cache.Update(s.fp, engine.CachedBounds{
			Upper:     res.Makespan,
			Lower:     res.LowerBound,
			Schedule:  res.Schedule,
			Algorithm: res.Algorithm,
			SimKey:    s.in.SimilarityKey(),
		})
	}
	return res, substituted
}

// Portfolio races every solver applicable to the instance concurrently
// under the shared ctx — typically bounded by a deadline (WithTimeout) —
// and returns the minimum-makespan schedule along with every member's
// outcome. At least two solvers race for every machine environment (the
// specialists plus the baselines and, for small instances, the exact
// search). The race is warm-started from the fingerprint cache, streams
// every incumbent and bound improvement to event subscribers live, and
// feeds its final bounds back into the cache. WithAlgorithm is ignored —
// a portfolio always races the whole applicable set.
func (e *Engine) Portfolio(ctx context.Context, in *Instance, opts ...SolveOption) (PortfolioResult, error) {
	s, err := e.begin(ctx, in, e.config(opts))
	if err != nil {
		return PortfolioResult{}, err
	}
	defer s.cancel()
	pr, err := e.reg.Portfolio(s.ctx, in, s.opt)
	if err != nil {
		e.fail(s)
		return PortfolioResult{}, err
	}
	var substituted bool
	pr.Best, substituted = e.finish(s, pr.Best)
	if substituted {
		// Best no longer comes from any raced member; keep Winner naming
		// the algorithm that actually produced the returned schedule (the
		// cached one — Best.Note carries the full provenance).
		pr.Winner = pr.Best.Algorithm
	}
	return pr, nil
}

// BatchResult is one instance's outcome within a SolveBatch call.
type BatchResult struct {
	// Instance is the solved instance (as passed in).
	Instance *Instance
	// Result is the solve outcome; meaningful only when Err is nil.
	Result Result
	// Err is the per-instance failure: a solver error, the batch context's
	// cancellation, or a nil instance. Other instances are unaffected.
	Err error
	// Elapsed is the instance's wall-clock solve time inside the batch.
	Elapsed time.Duration
}

// SolveBatch solves many instances through a bounded worker pool — the
// engine's service mode. The pool is sized by the governor's token budget
// (WithWorkers), and each worker acquires one governor token per instance
// before solving it, so concurrent batches (and concurrent Solve calls)
// share the engine-wide budget fairly instead of each claiming a full
// pool. Every instance gets its own deadline when WithTimeout is set (per
// request, from the moment a worker picks it up), shares the engine's
// fingerprint cache (repeated instances in one batch warm-start each
// other) and streams progress to event subscribers tagged with its
// fingerprint.
//
// The returned slice is index-aligned with ins and always has one entry per
// instance: cancelling ctx stops the batch early, marking the unsolved
// remainder with the context's error. Per-instance failures land in
// BatchResult.Err; SolveBatch itself does not fail.
func (e *Engine) SolveBatch(ctx context.Context, ins []*Instance, opts ...SolveOption) []BatchResult {
	cfg := e.config(opts)
	out := make([]BatchResult, len(ins))
	if len(ins) == 0 {
		return out
	}
	workers := min(e.gov.Cap(), len(ins))
	// Each batch worker holds the governor token for its current job
	// (acquired below, per instance); solveOne must not acquire a second
	// one for the same solve.
	cfg.admitted = true
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Now()
				br := BatchResult{Instance: ins[i]}
				switch {
				case ctx.Err() != nil:
					br.Err = ctx.Err()
				case ins[i] == nil:
					br.Err = fmt.Errorf("sched: batch instance %d is nil", i)
				default:
					// Admission per instance, not per worker lifetime:
					// tokens return to the pool between jobs, so other
					// engine traffic interleaves with a long batch.
					if err := e.gov.Acquire(ctx); err != nil {
						br.Err = err
						break
					}
					br.Result, _, br.Err = e.solveOne(ctx, ins[i], cfg)
					e.gov.Release(1)
				}
				br.Elapsed = time.Since(start)
				out[i] = br
			}
		}()
	}
	for i := range ins {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// GovernorStats is a snapshot of the engine governor's occupancy counters;
// see Engine.GovernorStats.
type GovernorStats = engine.GovernorStats

// GovernorStats reports the governor's live occupancy: the token budget,
// tokens currently in use, the high-water mark, how many admissions had to
// wait for a token, and how many acquire-or-degrade requests were granted
// fewer tokens than asked (each such grant shrank a portfolio launch).
func (e *Engine) GovernorStats() GovernorStats {
	return e.gov.Stats()
}

// --- solver plug-in surface -------------------------------------------------

// Solver is one schedulable algorithm behind the engine registry; see
// NewSolver for building one from a plain function.
type Solver = engine.Solver

// SolverCaps declares what instances a Solver handles and how strong it is.
type SolverCaps = engine.Caps

// Registry holds named solvers; build one with NewRegistry (empty) or
// NewDefaultRegistry (the paper set) and hand it to New via WithRegistry.
type Registry = engine.Registry

// NewRegistry returns an empty solver registry.
func NewRegistry() *Registry { return engine.NewRegistry() }

// NewDefaultRegistry returns a fresh registry holding the full paper solver
// set — the starting point for engines that add custom solvers on top.
func NewDefaultRegistry() *Registry { return engine.NewDefaultRegistry() }

// NewSolver builds a Solver from a name, capabilities and a solve function:
// the hook alternative LP backends and custom heuristics use to plug into
// an Engine. The solve function must observe ctx and, when opt.Bounds is
// non-nil, should publish improved makespans and certified lower bounds to
// participate in portfolio races and event streams.
func NewSolver(name string, caps SolverCaps, solve func(ctx context.Context, in *Instance, opt SolveOptions) (Result, error)) Solver {
	return engine.NewSolver(name, caps, solve)
}

// Registered solver names of the paper set, usable with WithAlgorithm,
// WithSolvers and the schedsolve -algo flag.
const (
	AlgoLPT      = engine.NameLPT
	AlgoGreedy   = engine.NameGreedy
	AlgoPTAS     = engine.NamePTAS
	AlgoRounding = engine.NameRounding
	AlgoRA2      = engine.NameRA2
	AlgoPT3      = engine.NamePT3
	AlgoExact    = engine.NameExact
)

// BoundBus is a live, concurrency-safe exchange of makespan bounds: the
// engine hands each solve its own bus in SolveOptions.Bounds, and a
// plug-in solver (NewSolver) publishes its improved makespans and
// certified lower bounds there.
type BoundBus = core.BoundBus

// Event is one anytime-progress signal: an improved incumbent makespan or
// certified lower bound, stamped with the instance fingerprint and the time
// since its solve started.
type Event = engine.Event

// EventKind distinguishes incumbent improvements from lower-bound updates.
type EventKind = engine.EventKind

// Event kinds.
const (
	EventIncumbent  = engine.EventIncumbent
	EventLowerBound = engine.EventLowerBound
)
