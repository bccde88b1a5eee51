// Package rounding implements the randomized LP rounding algorithm of
// Section 3.1 of the paper: an O(log n + log m)-approximation for scheduling
// with setup times on unrelated machines.
//
// The LP relaxation of ILP-UM carries the makespan as a variable τ. For a
// makespan guess T it is
//
//	minimize τ subject to
//	Σ_j x_ij p_ij + Σ_k y_ik s_ik ≤ τ   ∀i            (1)
//	Σ_i x_ij = 1                        ∀j            (2)
//	0 ≤ x_ij, y_ik ≤ 1                                (3 relaxed)
//	y_i,k_j ≥ x_ij                      ∀i,j          (4)
//	x_ij = 0                            ∀i,j: p_ij > T (5)
//
// and the paper's feasibility LP at T is feasible exactly when τ*(T) ≤ T.
// The optimal fractional solution is rounded: in each of c·log n
// iterations every (machine, class) pair opens with probability y*_ik, and
// an open pair claims each of its class's jobs independently with
// probability x*_ij/y*_ik. Jobs assigned multiple times keep their first
// assignment; jobs never assigned fall back to argmin_i p_ij. Theorem 3.3:
// rounding a solution of the relaxation at T yields O(T(log n + log m)) with
// high probability. One solve at the top of the search bracket returns
// τ0 = τ*(ub); clamps only shrink the feasible region, so every guess below
// τ0 is infeasible and τ0 ≤ Opt. When the optimum puts no weight on an x_ij
// with p_ij > τ0 it is itself feasible at T = τ0, Theorem 3.3 applies there,
// and no binary search runs; otherwise the binary search over T (package
// dual) decides the remaining bracket [τ0, ub].
package rounding

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dual"
	"repro/internal/exact"
	"repro/internal/lp"
)

// Options configures the rounding algorithm.
type Options struct {
	// C is the iteration multiplier: the rounding performs C·⌈log₂ n⌉
	// iterations (the paper's c). Default 3.
	C int
	// Rng supplies randomness; a fixed-seed source is created when nil.
	// Runs are deterministic per seed under the current seed format (v2,
	// batched fixed-point draws — see Round); schedules differ from what
	// the same seed produced under v1.
	Rng *rand.Rand
	// Precision is the relative precision of the binary search on T.
	// Default 0.05.
	Precision float64
	// Bounds, when non-nil, connects the run to a live bound exchange (the
	// engine portfolio's incumbent bus): the greedy bootstrap and every
	// rounded schedule are published as incumbents the moment they appear,
	// the LP threshold and LP-infeasible guesses as certified lower bounds,
	// and the binary search skips guesses at or above the live incumbent.
	Bounds core.BoundBus
	// LPBackend names the lp.Backend the relaxation LPs run on:
	// "sparse" (revised simplex, the default), "dense", "ipm"
	// (interior-point cold solve with crossover to warm simplex), "auto"
	// (size-triggered: IPM on large cold builds, sparse otherwise), or ""
	// for the default. Unknown names are a configuration error.
	LPBackend string
	// LPNoPresolve disables the LP presolve/scaling pipeline that
	// otherwise runs ahead of every cold backend build (lp.WithPresolve).
	// Off by default: presolve on.
	LPNoPresolve bool
	// SearchWorkers is the speculative parallelism of the binary search on
	// T (dual.Speculate): that many makespan guesses are evaluated
	// concurrently, each on its own Relaxation clone, shrinking the search
	// to fewer serial rounds. 0 or 1 keeps the sequential bisection.
	// Memory scales with workers (one LP backend per worker); verdicts are
	// equivalent to the sequential search within precision.
	SearchWorkers int
	// Budget, when non-nil, governs the search width live (the engine's
	// global concurrency budget): per-worker state is provisioned up to
	// min(SearchWorkers, Budget.Cap()) and each search round runs only as
	// wide as the budget grants at that moment, degrading toward the
	// sequential bisection on a saturated box. Nil keeps the local
	// GOMAXPROCS clamp.
	Budget core.TokenBudget
	// Warm, when usable (non-nil with a feasible Fallback witness and a
	// positive finite Upper), switches the run onto the incremental
	// re-solve path: the greedy bootstrap is skipped, the bracket opens on
	// [Warm.Lower, Warm.Upper] instead of [0, greedy], Warm.Fallback stands
	// in for the greedy witness, and when Warm.State holds a *Relaxation
	// already patched onto this exact instance (pointer identity) the LP is
	// re-entered with its retained warm basis instead of being rebuilt. The
	// seed solve at the top of the bracket runs on both paths. An unusable
	// Warm value silently degrades to the cold path — correctness never
	// depends on it.
	Warm *core.WarmStart
}

func (o Options) normalize() Options {
	if o.C <= 0 {
		o.C = 3
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	if o.Precision <= 0 {
		o.Precision = 0.05
	}
	return o
}

// Fractional is the LP relaxation solution for one makespan guess.
type Fractional struct {
	// T is the makespan guess the relaxation was solved for.
	T float64
	// X[i][j] is the fractional assignment of job j to machine i.
	X [][]float64
	// Y[i][k] is the fractional setup of class k on machine i.
	Y [][]float64

	xFlat, yFlat []float64 // backing storage for the row slices
	pooled       bool      // eligible for fracPool recycling via Release
}

// fracPool recycles the O(M·(N+K)) matrix storage of Fractional values
// between SolveLP calls, so the cold path stops allocating it per guess.
var fracPool sync.Pool

// makeFractional builds a Fractional with flat backing storage.
func makeFractional(m, n, k int, pooled bool) *Fractional {
	f := &Fractional{
		X: make([][]float64, m), Y: make([][]float64, m),
		xFlat: make([]float64, m*n), yFlat: make([]float64, m*k),
		pooled: pooled,
	}
	for i := 0; i < m; i++ {
		f.X[i] = f.xFlat[i*n : (i+1)*n]
		f.Y[i] = f.yFlat[i*k : (i+1)*k]
	}
	return f
}

// newFractional returns a zeroed Fractional for the given shape, reusing
// pooled storage when a released value of the same shape is available.
func newFractional(m, n, k int) *Fractional {
	if v := fracPool.Get(); v != nil {
		f := v.(*Fractional)
		if len(f.X) == m && len(f.xFlat) == m*n && len(f.yFlat) == m*k {
			for i := range f.xFlat {
				f.xFlat[i] = 0
			}
			for i := range f.yFlat {
				f.yFlat[i] = 0
			}
			f.T = 0
			f.pooled = true // re-arm Release (cleared when it was released)
			return f
		}
		// Wrong shape (a different instance): let it be collected.
	}
	return makeFractional(m, n, k, true)
}

// Release returns the Fractional's matrix storage to an internal pool for
// reuse by a later SolveLP call. Callers that are done with a fractional
// solution (after rounding it) should release it; using f after Release is
// a use-after-free-style bug. Release is a no-op for values that do not
// own poolable storage (e.g. the reused buffer a Relaxation returns).
func (f *Fractional) Release() {
	if f == nil || !f.pooled {
		return
	}
	// Disarm before pooling so a double Release cannot put the same value
	// twice (two Gets would then share one backing array).
	f.pooled = false
	fracPool.Put(f)
}

// tauTol is the relative tolerance of the makespan verdict: a guess T is
// LP-feasible when τ*(T) ≤ T·(1+tauTol), and τ0·(1−tauTol) is the certified
// lower bound the seed solve reports.
const tauTol = 1e-6

// witnessTol is the assignment weight below which an x_ij counts as zero
// when checking that the optimum is feasible at its own τ*.
const witnessTol = 1e-9

// SolveLP solves the LP relaxation of ILP-UM for guess T. It returns
// (nil, nil) when the relaxation is infeasible — a certificate that no
// schedule with makespan ≤ T exists.
func SolveLP(in *core.Instance, T float64) (*Fractional, error) {
	mdl := buildILPModel(in, T)
	if mdl.infeasible {
		return nil, nil // some job cannot run anywhere under T
	}
	sol, err := mdl.prob.Solve()
	if err != nil {
		return nil, fmt.Errorf("rounding: LP solve for T=%g: %w", T, err)
	}
	if sol.Status != lp.Optimal || sol.X[mdl.tau] > T*(1+tauTol) {
		return nil, nil
	}
	f := newFractional(in.M, in.N, in.K)
	f.T = T
	fillFractional(f, in, mdl.xIdx, mdl.yIdx, sol.X)
	return f, nil
}

// ilpModel is the LP relaxation of ILP-UM — rows (1), (2), (4) —
// materialized at an envelope T: a variable exists for every (machine,
// job) pair assignable at T, and the makespan column τ (cost 1) bounds every
// load row, so the load rows have RHS 0. It is the one model builder shared
// by the cold path (SolveLP solves it as-is) and the warm path (Relaxation
// clamps variable bounds in place for smaller guesses), so the two can
// never drift apart.
type ilpModel struct {
	prob    *lp.Problem
	tau     int     // the makespan variable τ
	xIdx    [][]int // variable per (machine, job); -1 excluded
	yIdx    [][]int // variable per (machine, class); -1 excluded
	loadRow []int   // constraint row of machine i's load; -1 none
	asgRow  []int   // constraint row of job j's assignment EQ
	xv      []relaxVar
	// infeasible marks a job with no eligible machine at the envelope:
	// the relaxation (and the ILP) is infeasible at T and every T' ≤ T.
	infeasible bool
}

// relaxVar identifies one x_ij variable for constraint-(5) bound clamping.
type relaxVar struct {
	v int     // LP variable index
	j int     // job
	p float64 // p_ij, the clamp threshold
}

func buildILPModel(in *core.Instance, T float64) *ilpModel {
	mdl := &ilpModel{
		prob:    &lp.Problem{},
		xIdx:    make([][]int, in.M),
		yIdx:    make([][]int, in.M),
		loadRow: make([]int, in.M),
	}
	p := mdl.prob
	mdl.tau = p.AddVar(1, math.Inf(1))
	// Variable gating: x_ij exists iff the pair is assignable at T
	// (finite p ≤ T, finite class setup); y_ik iff the setup is finite.
	for i := 0; i < in.M; i++ {
		mdl.xIdx[i] = make([]int, in.N)
		mdl.yIdx[i] = make([]int, in.K)
		for j := 0; j < in.N; j++ {
			if core.IsFinite(in.P[i][j]) && in.P[i][j] <= T+core.Eps && core.IsFinite(in.S[i][in.Class[j]]) {
				v := p.AddVar(0, 1)
				mdl.xIdx[i][j] = v
				mdl.xv = append(mdl.xv, relaxVar{v: v, j: j, p: in.P[i][j]})
			} else {
				mdl.xIdx[i][j] = -1
			}
		}
		for k := 0; k < in.K; k++ {
			if core.IsFinite(in.S[i][k]) {
				mdl.yIdx[i][k] = p.AddVar(0, 1)
			} else {
				mdl.yIdx[i][k] = -1
			}
		}
	}
	// One scratch terms slice, preallocated for the widest row shape (a
	// load row has up to N assignment plus K setup terms) and reused
	// across rows: lp.Problem copies the coefficients out on AddConstraint.
	terms := make([]lp.Term, 0, in.N+in.K)
	// (1) machine load.
	for i := 0; i < in.M; i++ {
		terms = terms[:0]
		for j := 0; j < in.N; j++ {
			if mdl.xIdx[i][j] >= 0 && in.P[i][j] > 0 {
				terms = append(terms, lp.Term{Var: mdl.xIdx[i][j], Coef: in.P[i][j]})
			}
		}
		for k := 0; k < in.K; k++ {
			if mdl.yIdx[i][k] >= 0 && in.S[i][k] > 0 {
				terms = append(terms, lp.Term{Var: mdl.yIdx[i][k], Coef: in.S[i][k]})
			}
		}
		if len(terms) > 0 {
			mdl.addLoadRow(i, terms...)
		} else {
			mdl.loadRow[i] = -1
		}
	}
	// (2) full assignment.
	mdl.asgRow = make([]int, in.N)
	for j := 0; j < in.N; j++ {
		terms = terms[:0]
		for i := 0; i < in.M; i++ {
			if mdl.xIdx[i][j] >= 0 {
				terms = append(terms, lp.Term{Var: mdl.xIdx[i][j], Coef: 1})
			}
		}
		if len(terms) == 0 {
			mdl.infeasible = true // job j can run nowhere at T
			return mdl
		}
		mdl.asgRow[j] = p.NumRows()
		p.AddConstraint(lp.EQ, 1, terms...)
	}
	// (4) setup dominates assignment (y exists whenever x does: the x
	// variable required a finite setup time).
	for i := 0; i < in.M; i++ {
		for j := 0; j < in.N; j++ {
			if mdl.xIdx[i][j] < 0 {
				continue
			}
			terms = append(terms[:0],
				lp.Term{Var: mdl.xIdx[i][j], Coef: 1},
				lp.Term{Var: mdl.yIdx[i][in.Class[j]], Coef: -1})
			p.AddConstraint(lp.LE, 0, terms...)
		}
	}
	return mdl
}

// addLoadRow appends machine i's load row (1), Σ terms − τ ≤ 0, and records
// it in loadRow[i]. terms must be non-empty.
func (mdl *ilpModel) addLoadRow(i int, terms ...lp.Term) {
	mdl.loadRow[i] = mdl.prob.NumRows()
	mdl.prob.AddConstraint(lp.LE, 0, append(terms, lp.Term{Var: mdl.tau, Coef: -1})...)
}

// fillFractional copies the structural LP values into the X/Y matrices;
// entries whose variable was fixed or excluded stay zero.
func fillFractional(f *Fractional, in *core.Instance, xIdx, yIdx [][]int, x []float64) {
	for i := 0; i < in.M; i++ {
		for j := 0; j < in.N; j++ {
			if v := xIdx[i][j]; v >= 0 {
				f.X[i][j] = x[v]
			}
		}
		for k := 0; k < in.K; k++ {
			if v := yIdx[i][k]; v >= 0 {
				f.Y[i][k] = x[v]
			}
		}
	}
}

// RelaxationConfig configures NewRelaxation.
type RelaxationConfig struct {
	// Envelope is the makespan value the relaxation is built at: every
	// x_ij with p_ij ≤ Envelope gets a variable, and ReSolve is exact for
	// any guess T ≤ Envelope. It should be an achievable makespan (the
	// greedy bound — then ReSolve is also exact above it); 0 computes the
	// greedy bound internally.
	Envelope float64
	// Backend selects the lp.Backend implementation ("" =
	// lp.DefaultBackend). lp.Auto resolves by problem size at build time;
	// rebuilds after ApplyDelta re-resolve it against the grown problem.
	Backend lp.BackendKind
	// NoPresolve opts the relaxation's backends out of the LP presolve and
	// equilibration-scaling pipeline (lp.WithPresolve(false)).
	NoPresolve bool
}

// Relaxation is the ILP-UM LP relaxation built once at the envelope T=ub
// and re-solved per guess. Where SolveLP rebuilds O(M·N) variables,
// O(M·N) constraints and a fresh solver for every guess, ReSolve applies a
// guess by clamping variable upper bounds in place (constraint (5); the
// load rows bound the makespan column τ and never change) and warm-starts
// the backend from the previous optimal basis (dual simplex). Each solve
// also reports τ* and whether the optimum is feasible at its own τ*
// (Threshold), which is what lets one solve at the envelope close a dual
// search.
//
// A Relaxation is not safe for concurrent use, and the Fractional returned
// by ReSolve is a buffer owned by the Relaxation, valid until the next
// ReSolve call.
type Relaxation struct {
	in         *core.Instance
	kind       lp.BackendKind
	noPresolve bool
	ws         *lp.Workspace
	mdl        *ilpModel
	be         lp.Backend

	envelope float64
	banned   []bool // current clamp state, parallel to mdl.xv
	avail    []int  // per job: count of unbanned x variables

	// Incremental re-solve state (ApplyDelta). dead lists variables
	// permanently fixed to 0 (a departed job's or removed machine's
	// columns) and deadRows lists rows whose RHS is permanently pinned to 0
	// (a departed job's assignment row); both must be replayed on any
	// backend rebuild. stale marks the backend as out of date with the
	// (extended) model; the rebuild is deferred to the next ReSolve so a
	// re-solve whose bracket closes without LP work never pays it. pending,
	// when non-nil, is a basis already remapped to the grown standard form,
	// transplanted into the fresh backend during that rebuild.
	dead     []int
	deadRows []int
	stale    bool
	pending  *lp.Basis

	// tau and witness report the latest ReSolve (see Threshold).
	tau     float64
	witness bool

	frac      *Fractional
	iters     int
	refactors int
	presolve  *lp.PresolveInfo // latest reduction stats (nil when bypassed off)
	fromStart bool             // the latest ReSolve began at the greedy start
}

// NewRelaxation builds the relaxation once at cfg.Envelope (via the same
// buildILPModel that SolveLP solves cold). The zero config uses the
// greedy bound as envelope and the default LP backend.
//
// The first solve starts at the greedy schedule's vertex of the LP (see
// startBasis) whenever the greedy makespan is within the envelope, so it
// skips the phase-1 search for a feasible point the bootstrap already
// holds. Relaxation.FromStart reports whether a solve used it.
func NewRelaxation(in *core.Instance, cfg RelaxationConfig) (*Relaxation, error) {
	kind, err := lp.ParseBackend(string(cfg.Backend))
	if err != nil {
		return nil, fmt.Errorf("rounding: %w", err)
	}
	g, gerr := baseline.Greedy(in)
	ub := cfg.Envelope
	if ub <= 0 {
		if gerr != nil {
			return nil, fmt.Errorf("rounding: greedy envelope: %w", gerr)
		}
		ub = g.Makespan(in)
	}
	rel := &Relaxation{
		in: in, kind: kind, noPresolve: cfg.NoPresolve, ws: lp.NewWorkspace(),
		mdl:      buildILPModel(in, ub),
		envelope: ub,
		avail:    make([]int, in.N),
		frac:     makeFractional(in.M, in.N, in.K, false),
	}
	rel.banned = make([]bool, len(rel.mdl.xv))
	for _, xv := range rel.mdl.xv {
		rel.avail[xv.j]++
	}
	if rel.mdl.infeasible {
		return rel, nil // every ReSolve reports infeasible without solving
	}
	opts := []lp.BackendOption{lp.WithPresolve(!cfg.NoPresolve)}
	if gerr == nil && g.Makespan(in) <= ub {
		if b := rel.mdl.startBasis(in, g); b != nil {
			opts = append(opts, lp.WithStart(b))
		}
	}
	rel.be, err = lp.NewBackend(kind, rel.mdl.prob, rel.ws, opts...)
	if err != nil {
		return nil, fmt.Errorf("rounding: %w", err)
	}
	return rel, nil
}

// startBasis returns the LP vertex of the complete schedule g, in the
// problem's standard form (slack of row r is column NumVars()+r):
//
//   - x_ij of each assigned pair is basic in job j's assignment row;
//   - each opened y_ik (machine i runs a job of class k) is nonbasic at its
//     upper bound 1, every other structural column at 0;
//   - τ is basic in the load row of a most loaded machine;
//   - every other row is basic in its own slack.
//
// The basis is triangular once the slack rows are set aside — assignment
// rows hold one basic x each, and the max-load row adds τ — so it is
// nonsingular. Its point is x = g, τ = makespan(g), every slack at its
// true value: primal feasible. It returns nil when g uses a pair the model
// has no variable for, or no machine has a load row to carry τ.
func (mdl *ilpModel) startBasis(in *core.Instance, g *core.Schedule) *lp.Basis {
	nv, m := mdl.prob.NumVars(), mdl.prob.NumRows()
	b := &lp.Basis{Cols: make([]int, m), Status: make([]lp.VarStatus, nv+m)}
	for r := 0; r < m; r++ {
		b.Cols[r] = nv + r
		b.Status[nv+r] = lp.BasicVar
	}
	loads := g.Loads(in)
	top := -1
	for i, r := range mdl.loadRow {
		if r >= 0 && (top < 0 || loads[i] > loads[top]) {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	for j, i := range g.Assign {
		if i < 0 || mdl.xIdx[i][j] < 0 || mdl.yIdx[i][in.Class[j]] < 0 {
			return nil
		}
		r := mdl.asgRow[j]
		b.Cols[r] = mdl.xIdx[i][j]
		b.Status[nv+r] = lp.NonbasicLower
		b.Status[mdl.xIdx[i][j]] = lp.BasicVar
		b.Status[mdl.yIdx[i][in.Class[j]]] = lp.NonbasicUpper
	}
	r := mdl.loadRow[top]
	b.Cols[r] = mdl.tau
	b.Status[nv+r] = lp.NonbasicLower
	b.Status[mdl.tau] = lp.BasicVar
	return b
}

// Clone returns an independent Relaxation for speculative parallel dual
// searches: it shares the immutable built model (variables, rows, index
// maps) with the parent but owns its own LP backend (basis, factorization,
// workspace), clamp state and result buffer, so clones and parent can
// ReSolve concurrently on separate goroutines without perturbing each
// other's warm bases. The clone inherits the parent's current basis, which
// stays useful because consecutive guesses in a worker's sub-bracket differ
// only in RHS and bound clamps. Clone must not be called concurrently with
// ReSolve on the receiver. Iterations are counted per clone.
func (rel *Relaxation) Clone() *Relaxation {
	if rel.stale {
		// A deferred post-delta rebuild must land in the parent before the
		// backend can be cloned; a transplant failure falls back to a cold
		// backend inside materialize, so be is valid either way.
		rel.materialize()
	}
	c := &Relaxation{
		in: rel.in, kind: rel.kind, noPresolve: rel.noPresolve, ws: lp.NewWorkspace(), mdl: rel.mdl,
		envelope: rel.envelope,
		banned:   append([]bool(nil), rel.banned...),
		avail:    append([]int(nil), rel.avail...),
		dead:     append([]int(nil), rel.dead...),
		deadRows: append([]int(nil), rel.deadRows...),
		frac:     makeFractional(rel.in.M, rel.in.N, rel.in.K, false),
	}
	if rel.be != nil {
		c.be = rel.be.Clone()
	}
	return c
}

// Backend reports the lp backend kind the relaxation was requested with
// (possibly lp.Auto); ResolvedBackend reports what actually runs.
func (rel *Relaxation) Backend() lp.BackendKind { return rel.kind }

// ResolvedBackend reports the backend implementation the relaxation
// actually solves on, as "kind" when the request resolved to itself or
// "requested(resolved)" when it differed — "auto(ipm)" says the size
// trigger picked the interior-point path for this instance.
func (rel *Relaxation) ResolvedBackend() string {
	if rel.be == nil {
		return string(rel.kind)
	}
	if k := rel.be.Kind(); k != rel.kind {
		return fmt.Sprintf("%s(%s)", rel.kind, k)
	}
	return string(rel.kind)
}

// Iterations returns the cumulative simplex pivots across all ReSolve
// calls so far — the per-backend effort metric behind Detail.LPIterations.
func (rel *Relaxation) Iterations() int { return rel.iters }

// Refactors returns the cumulative basis refactorizations across all
// ReSolve calls so far — the count behind Detail.LPRefactors.
func (rel *Relaxation) Refactors() int { return rel.refactors }

// Threshold reports the latest ReSolve's optimal makespan τ* and whether
// the optimum is a witness for it: no x_ij above a tiny tolerance has
// p_ij > τ*·(1+tol), so the relaxation at T = τ* (with its clamps) is itself
// feasible. τ* is +Inf, with the witness vacuously true, when some job had
// no unclamped variable at the guess. Every guess below min(τ*, T) is
// infeasible, because clamps only shrink the feasible region.
func (rel *Relaxation) Threshold() (tau float64, witness bool) { return rel.tau, rel.witness }

// Presolve reports what the LP presolve pipeline did for this relaxation's
// backend — the stats from the most recent solve that ran through it, or
// nil when presolve is disabled or no solve has completed yet.
func (rel *Relaxation) Presolve() *lp.PresolveInfo { return rel.presolve }

// FromStart reports whether the latest ReSolve began at the greedy
// schedule's vertex (lp.Solution.FromStart of its solve). Only the first
// solve of a relaxation built by NewRelaxation can.
func (rel *Relaxation) FromStart() bool { return rel.fromStart }

// ReSolve solves the relaxation for guess T, reusing the built problem and
// warm-starting from the previous guess's basis. Like SolveLP it returns
// (nil, nil) when the relaxation is infeasible at T, i.e. when its minimum
// makespan τ*(T) exceeds T·(1+tol). The returned Fractional is owned by
// the Relaxation and valid until the next ReSolve.
//
// Verdicts are exact for T ≤ the build envelope. Above the envelope,
// variables for p_ij ∈ (envelope, T] were never created; when the envelope
// is an achievable makespan (the greedy bound, the default) the relaxation
// is feasible there and hence for every larger T, so verdicts remain
// correct for all T.
func (rel *Relaxation) ReSolve(T float64) (*Fractional, error) {
	rel.tau, rel.witness, rel.fromStart = math.Inf(1), true, false
	if rel.mdl.infeasible {
		return nil, nil // a job ran nowhere even at the envelope
	}
	if rel.stale {
		rel.materialize()
	}
	if rel.be == nil {
		return nil, fmt.Errorf("rounding: relaxation has no backend (materialize failed)")
	}
	// Constraint (5): clamp x_ij with p_ij > T to 0 in place; lift clamps
	// the binary search's upward moves need again.
	for t, xv := range rel.mdl.xv {
		now := xv.p > T+core.Eps
		if now == rel.banned[t] {
			continue
		}
		u := 1.0
		if now {
			u = 0
			rel.avail[xv.j]--
		} else {
			rel.avail[xv.j]++
		}
		rel.be.SetVarUpper(xv.v, u)
		rel.banned[t] = now
	}
	for _, a := range rel.avail {
		if a == 0 {
			return nil, nil // some job cannot run anywhere under T
		}
	}
	sol, err := rel.be.Solve()
	if err != nil {
		// The warm basis went numerically bad: rebuild the backend cold
		// (same problem, same workspace memory) and retry once.
		if rerr := rel.rebuild(); rerr != nil {
			return nil, fmt.Errorf("rounding: LP rebuild for T=%g after %v: %w", T, err, rerr)
		}
		if sol, err = rel.be.Solve(); err != nil {
			return nil, fmt.Errorf("rounding: LP re-solve for T=%g: %w", T, err)
		}
	}
	rel.iters += sol.Iterations
	rel.refactors += sol.Refactors
	rel.fromStart = sol.FromStart
	if sol.Presolve != nil {
		rel.presolve = sol.Presolve
	}
	if sol.Status != lp.Optimal {
		// τ is unbounded above and every job has a variable, so the
		// relaxation always has an optimum.
		return nil, fmt.Errorf("rounding: LP re-solve for T=%g: unexpected status %v", T, sol.Status)
	}
	rel.tau = sol.X[rel.mdl.tau]
	for t, xv := range rel.mdl.xv {
		if !rel.banned[t] && sol.X[xv.v] > witnessTol && xv.p > rel.tau*(1+tauTol) {
			rel.witness = false
			break
		}
	}
	if rel.tau > T*(1+tauTol) {
		return nil, nil
	}
	for i := range rel.frac.xFlat {
		rel.frac.xFlat[i] = 0
	}
	for i := range rel.frac.yFlat {
		rel.frac.yFlat[i] = 0
	}
	rel.frac.T = T
	fillFractional(rel.frac, rel.in, rel.mdl.xIdx, rel.mdl.yIdx, sol.X)
	return rel.frac, nil
}

// rebuild replaces the backend with a cold one and replays the current
// mutation state (clamped variables, permanently dead columns and rows).
func (rel *Relaxation) rebuild() error {
	be, err := lp.NewBackend(rel.kind, rel.mdl.prob, rel.ws, lp.WithPresolve(!rel.noPresolve))
	if err != nil {
		return err
	}
	rel.replay(be)
	rel.be = be
	return nil
}

// replay pushes the relaxation's current mutation state into a freshly
// built backend: permanent deletions first, then the per-guess clamps.
func (rel *Relaxation) replay(be lp.Backend) {
	for _, v := range rel.dead {
		be.SetVarUpper(v, 0)
	}
	for _, r := range rel.deadRows {
		be.SetRHS(r, 0)
	}
	for t, b := range rel.banned {
		if b {
			be.SetVarUpper(rel.mdl.xv[t].v, 0)
		}
	}
}

// materialize completes a deferred ApplyDelta backend rebuild: it builds a
// backend over the grown problem, replays the retained mutation state, and
// transplants the remapped basis so the
// next Solve repairs primal feasibility with dual-simplex pivots instead of
// a cold phase-1 run. A failed transplant (singular or rejected basis)
// degrades to the cold backend — correctness never depends on the warm
// start.
func (rel *Relaxation) materialize() {
	ext := rel.pending
	rel.pending, rel.stale = nil, false
	be, err := lp.NewBackend(rel.kind, rel.mdl.prob, rel.ws, lp.WithPresolve(!rel.noPresolve))
	if err != nil {
		rel.be = nil // surfaced by ReSolve as an error
		return
	}
	rel.replay(be)
	if ext != nil {
		_ = be.Warm(ext) // cold continue on failure
	}
	rel.be = be
}

// bernScale is the fixed-point one: a batched Bernoulli draw with
// threshold t succeeds with probability t/bernScale.
const bernScale = 1 << 32

// bernThresh converts a probability to its 32-bit fixed-point draw
// threshold. p ≤ 0 maps to 0 (never succeeds, and callers skip the draw
// entirely), p ≥ 1 to bernScale (always succeeds: every 32-bit lane value
// is below it).
func bernThresh(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return bernScale
	default:
		return uint64(p * bernScale)
	}
}

// bern batches Bernoulli draws over the rng: one rng.Uint64() refill feeds
// two independent 32-bit lanes, each compared against a fixed-point
// threshold, so the rounding's innermost loops cost one rng call per two
// draws instead of one float conversion per draw. 32-bit resolution
// (granularity 2⁻³²) is far below the LP solver's own tolerance.
type bern struct {
	rng   *rand.Rand
	bits  uint64
	lanes int
}

// draw reports success with probability t/bernScale, consuming one lane.
func (b *bern) draw(t uint64) bool {
	if b.lanes == 0 {
		b.bits = b.rng.Uint64()
		b.lanes = 2
	}
	v := uint64(uint32(b.bits))
	b.bits >>= 32
	b.lanes--
	return v < t
}

// threshPool recycles the O(M·(N+K)) fixed-point threshold buffer between
// Round calls (one buffer per call, M·K open thresholds followed by M·N
// claim thresholds).
var threshPool sync.Pool

func getThresh(n int) []uint64 {
	if v := threshPool.Get(); v != nil {
		if s := *v.(*[]uint64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]uint64, n)
}

func putThresh(s []uint64) { threshPool.Put(&s) }

// RoundStats reports diagnostic counters from one rounding run.
type RoundStats struct {
	// Iterations is the number of rounding iterations performed.
	Iterations int
	// Fallback is the number of jobs assigned by the argmin-p fallback
	// (step 3 of the algorithm); Theorem 3.3's analysis makes this rare.
	Fallback int
}

// Round performs the randomized rounding of a fractional solution (steps
// 1–4 of the algorithm of Section 3.1) and returns a complete feasible
// schedule: c·⌈log₂ n⌉ open-and-claim iterations, duplicate removal by
// keeping first assignments, and the argmin-p fallback for never-claimed
// jobs. The context is polled between iterations; cancellation skips the
// remaining iterations and completes the schedule via the fallback, so the
// result is always feasible.
//
// Draws are batched (seed format v2): the open and claim probabilities are
// converted to fixed-point thresholds once per call, each rng.Uint64()
// feeds two Bernoulli draws, and fully-assigned classes stop consuming
// draws. A given rng seed therefore yields a different schedule than
// earlier (v1, per-draw Float64) releases produced — still deterministic
// per seed, and distributionally equivalent up to the 2⁻³² threshold
// granularity.
func Round(ctx context.Context, in *core.Instance, f *Fractional, c int, rng *rand.Rand) (*core.Schedule, RoundStats) {
	iters := c * int(math.Ceil(math.Log2(float64(in.N)+1)))
	if iters < 1 {
		iters = 1
	}
	sched := core.NewSchedule(in.N)
	byClass := in.JobsOfClass()
	assigned := 0
	stats := RoundStats{Iterations: iters}
	// Hoist the probability arithmetic out of the iteration loop: the open
	// threshold per (machine, class), the claim threshold x_ij/y_ik per
	// (machine, job). A zero threshold means "never" and is skipped without
	// consuming a draw.
	buf := getThresh(in.M*in.K + in.M*in.N)
	open := buf[:in.M*in.K]
	claim := buf[in.M*in.K:]
	for i := 0; i < in.M; i++ {
		ob, cb := open[i*in.K:], claim[i*in.N:]
		for k := 0; k < in.K; k++ {
			ob[k] = bernThresh(f.Y[i][k])
		}
		for j := 0; j < in.N; j++ {
			if x := f.X[i][j]; x > 0 {
				cb[j] = bernThresh(x / f.Y[i][in.Class[j]])
			} else {
				cb[j] = 0
			}
		}
	}
	// classLeft tracks unassigned jobs per class so exhausted classes stop
	// paying the open draw and the claim scan.
	classLeft := make([]int, in.K)
	for k, jobs := range byClass {
		classLeft[k] = len(jobs)
	}
	d := bern{rng: rng}
	for h := 0; h < iters && assigned < in.N && ctx.Err() == nil; h++ {
		for i := 0; i < in.M; i++ {
			ob, cb := open[i*in.K:], claim[i*in.N:]
			for k := 0; k < in.K; k++ {
				if classLeft[k] == 0 {
					continue // every job of the class is placed already
				}
				if t := ob[k]; t == 0 || !d.draw(t) {
					continue
				}
				// Machine i opens class k this iteration.
				for _, j := range byClass[k] {
					if sched.Assign[j] >= 0 {
						continue // duplicate-removal: keep first assignment
					}
					if t := cb[j]; t != 0 && d.draw(t) {
						sched.Assign[j] = i
						assigned++
						classLeft[k]--
					}
				}
			}
		}
	}
	putThresh(buf)
	for j := 0; j < in.N; j++ {
		if sched.Assign[j] >= 0 {
			continue
		}
		stats.Fallback++
		best, bestP := -1, math.Inf(1)
		for i := 0; i < in.M; i++ {
			if in.Eligibility(i, j, math.Inf(1)) && in.P[i][j] < bestP {
				best, bestP = i, in.P[i][j]
			}
		}
		sched.Assign[j] = best
	}
	return sched, stats
}

// Detail carries diagnostics beyond the core Result.
type Detail struct {
	// PureMakespan is the best makespan achieved by a *rounded* schedule
	// alone, i.e. excluding the greedy bootstrap that Schedule's result
	// may fall back to. This is the quantity Theorem 3.3 speaks about.
	PureMakespan float64
	// PureSchedule is the schedule achieving PureMakespan (nil only when
	// every guess was LP-infeasible, which cannot happen for guesses at or
	// above the greedy makespan).
	PureSchedule *core.Schedule
	// Guesses is the number of LP feasibility tests the binary search
	// performed; the seed solve at the top of the bracket is not counted.
	Guesses int
	// LPThreshold is τ0, the relaxation's minimum makespan at the top of
	// the bracket, capped at the bracket's top: every guess below it is
	// LP-infeasible, so τ0·(1−tol) is a certified lower bound on Opt. Zero
	// when the seed solve did not run (zero makespan, cancelled, LP error).
	LPThreshold float64
	// LPStarted reports that the seed solve began at the greedy bootstrap's
	// vertex of the LP (Relaxation.FromStart) rather than at the all-slack
	// basis. False on the warm Resolve path, which starts from its
	// retained basis instead.
	LPStarted bool
	// SearchClosed reports that the seed solve's optimum was a witness for
	// τ0 (it put no weight on an x_ij with p_ij > τ0), so the relaxation is
	// feasible at τ0, the bracket closed there and the binary search
	// evaluated no guesses. False means the search bisected [τ0, ub].
	SearchClosed bool
	// LPIterations is the total number of LP iterations across every LP
	// solved (the build at T=ub plus each warm re-solve): simplex pivots,
	// plus interior-point iterations on the ipm/auto cold path — the
	// effort metric that makes LP-backend wins visible per run, not only
	// in microbenchmarks.
	LPIterations int
	// LPRefactors is the total number of basis refactorizations across the
	// same LP solves (lp.Solution.Refactors summed per relaxation): the
	// count that shows how often the sparse backend rebuilt its eta file.
	LPRefactors int
	// LPBackend is the lp backend the run solved on ("dense", "sparse",
	// "ipm"), with an auto request reporting its size-triggered
	// resolution as e.g. "auto(ipm)".
	LPBackend string
	// LPPresolve is the presolve pipeline's reduction report for the
	// primary relaxation (rows/columns/nonzeros before and after, scaling
	// passes), nil when presolve was disabled or never engaged.
	LPPresolve *lp.PresolveInfo
	// Accepted is the search's final accept-backed upper bracket edge
	// (dual.Outcome.Accepted). The re-solve pipeline retains it and lifts
	// it through Delta.AcceptedCap into the next search's bracket.
	Accepted float64
	// Relaxation is the primary (worker-0) relaxation the run solved on,
	// exposed so the engine can retain it — with its warm basis — for
	// ApplyDelta on the next delta. Callers that keep it own it: it must
	// not be used after the instance is re-solved elsewhere.
	Relaxation *Relaxation
}

// Schedule runs the full algorithm: one LP solve at the top of the bracket
// for the threshold τ0, then, unless that solve already closed the bracket,
// binary search on the makespan guess T with LP feasibility as the
// rejection certificate, and randomized rounding as the construction. The
// returned Result carries the best schedule seen (rounded or the greedy
// bootstrap) and the strongest certified lower bound on Opt (τ0 or the
// largest LP-infeasible guess). The context is checked between guesses
// and between rounding iterations; a cancelled run returns the best
// schedule seen so far with Result.Note explaining the early stop.
func Schedule(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
	res, _, err := ScheduleDetailed(ctx, in, opt)
	return res, err
}

// ScheduleDetailed is Schedule with rounding-specific diagnostics.
func ScheduleDetailed(ctx context.Context, in *core.Instance, opt Options) (core.Result, Detail, error) {
	opt = opt.normalize()
	var det Detail
	det.PureMakespan = math.Inf(1)
	vol := exact.VolumeLowerBound(in)
	var fallback *core.Schedule
	var rel *Relaxation
	var ub, lb float64
	warm := opt.Warm
	if warm != nil && (warm.Fallback == nil || !(warm.Upper > 0) || !core.IsFinite(warm.Upper)) {
		warm = nil // unusable warm start: degrade to the cold path
	}
	if warm != nil {
		// Incremental re-solve path: the caller supplies the witness and
		// bracket, so the greedy bootstrap is skipped entirely.
		fallback = warm.Fallback
		ub = warm.Upper
		if ms := fallback.Makespan(in); ms < ub {
			ub = ms
		}
		lb = warm.Lower
		if r, ok := warm.State.(*Relaxation); ok && r != nil && r.Instance() == in && r.Envelope()+core.Eps >= ub {
			rel = r // retained relaxation, already patched onto in
		}
	} else {
		greedy, err := baseline.Greedy(in)
		if err != nil {
			return core.Result{}, det, fmt.Errorf("rounding: greedy bootstrap: %w", err)
		}
		fallback = greedy
		ub = greedy.Makespan(in)
	}
	if vol > lb {
		lb = vol
	}
	if opt.Bounds != nil {
		opt.Bounds.PublishUpper(fallback.Makespan(in)) // the fallback schedule is feasible
		opt.Bounds.PublishLower(lb)
	}
	// Build the LP relaxation once at the envelope T = ub — unless the warm
	// start already carries one patched onto this instance, whose retained
	// basis then warm-starts the seed solve directly. Every guess of the
	// binary search below re-solves it in place (clamped bounds, warm-started
	// basis) instead of rebuilding problem and tableau.
	if rel == nil {
		var err error
		rel, err = NewRelaxation(in, RelaxationConfig{Envelope: ub, Backend: lp.BackendKind(opt.LPBackend), NoPresolve: opt.LPNoPresolve})
		if err != nil {
			return core.Result{}, det, err
		}
	}
	det.LPBackend = rel.ResolvedBackend()
	// Seed solve at T = ub. Its optimum τ0 is the LP threshold: every guess
	// below it is infeasible, so it raises the lower edge. When the optimum
	// is also feasible at τ0 (the witness), it closes the bracket there —
	// Theorem 3.3 applies to its rounding at T = τ0 ≤ Opt — and the search
	// below evaluates nothing. The seed rounding becomes the fallback when it
	// beats the bootstrap witness, so the result is never worse than it.
	hi := ub
	if ub > 0 && ctx.Err() == nil {
		if f, err := rel.ReSolve(ub); err == nil {
			det.LPStarted = rel.FromStart()
			tau, witness := rel.Threshold()
			det.LPThreshold = math.Min(tau, ub)
			if l := det.LPThreshold * (1 - tauTol); l > lb {
				lb = l
			}
			if witness {
				hi, det.SearchClosed = det.LPThreshold, true
			}
			if f != nil {
				sched, _ := Round(ctx, in, f, opt.C, opt.Rng)
				det.PureMakespan, det.PureSchedule = sched.Makespan(in), sched
				if det.PureMakespan < fallback.Makespan(in) {
					fallback = sched
				}
				if opt.Bounds != nil {
					opt.Bounds.PublishUpper(det.PureMakespan)
				}
			}
			if opt.Bounds != nil {
				opt.Bounds.PublishLower(lb)
			}
		}
	}
	// One decider per search worker: worker 0 re-solves the primary
	// relaxation, every further worker an independent clone (own backend,
	// own warm basis), and each worker draws from its own rng stream, so
	// the speculative search runs race-free without locking the LP layer.
	// The shared diagnostics (guess count, pure-rounding record) and the
	// abort-on-error channel are the only cross-worker state, guarded by mu.
	workers := dual.PlanParallelism(opt.SearchWorkers, opt.Budget)
	if ub <= 0 || det.SearchClosed {
		// The search below returns without evaluating a guess, so
		// per-worker relaxation clones would be pure waste.
		workers = 1
	}
	var mu sync.Mutex
	var solveErr error
	rels := make([]*Relaxation, workers)
	deciders := make([]dual.GuessDecider, workers)
	rels[0] = rel
	for w := 1; w < workers; w++ {
		rels[w] = rel.Clone()
	}
	for w := 0; w < workers; w++ {
		r, rng := rels[w], opt.Rng
		if w > 0 {
			rng = rand.New(rand.NewSource(opt.Rng.Int63()))
		}
		deciders[w] = func(g dual.Guess) (*core.Schedule, bool) {
			mu.Lock()
			det.Guesses++
			mu.Unlock()
			f, err := r.ReSolve(g.T)
			if err != nil {
				mu.Lock()
				if solveErr == nil {
					solveErr = err
				}
				mu.Unlock()
				return nil, true // abort ascent; error reported below
			}
			if f == nil {
				return nil, false
			}
			sched, _ := Round(g.Ctx, in, f, opt.C, rng)
			mu.Lock()
			if ms := sched.Makespan(in); ms < det.PureMakespan {
				det.PureMakespan, det.PureSchedule = ms, sched
			}
			mu.Unlock()
			return sched, true
		}
	}
	out := dual.Run(ctx, dual.Config{
		Instance:  in,
		Lower:     lb,
		Upper:     hi,
		Precision: opt.Precision,
		Fallback:  fallback,
		Bus:       opt.Bounds,
		Strategy:  dual.Speculate(workers),
		Deciders:  deciders,
		Budget:    opt.Budget,
	})
	for _, r := range rels {
		det.LPIterations += r.Iterations()
		det.LPRefactors += r.Refactors()
	}
	det.Accepted = out.Accepted
	det.Relaxation = rels[0]
	det.LPPresolve = rels[0].Presolve()
	if solveErr != nil {
		return core.Result{}, det, solveErr
	}
	if out.LowerBound > lb {
		lb = out.LowerBound
	}
	note := ""
	if out.Err != nil {
		note = fmt.Sprintf("binary search stopped early (%v after %d guesses); schedule is best-so-far, O(log n + log m) guarantee not certified", out.Err, det.Guesses)
	}
	return core.Result{
		Algorithm:  "randomized-rounding",
		Schedule:   out.Schedule,
		Makespan:   out.Makespan,
		LowerBound: lb,
		Note:       note,
		LPIters:    int64(det.LPIterations),
	}, det, nil
}
