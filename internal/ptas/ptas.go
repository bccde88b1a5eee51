// Package ptas implements the polynomial-time approximation scheme of
// Section 2 of the paper: scheduling with setup times on uniformly related
// machines within a factor 1+O(ε) of the optimum.
//
// The algorithm follows the paper's four phases inside a dual approximation
// (package dual):
//
//  1. Simplify the instance for the current makespan guess T (Lemmas
//     2.2–2.4): drop very slow machines, lift negligible sizes, replace
//     tiny jobs of each class by placeholders of size ε·s_k, and round job
//     sizes, setup sizes and machine speeds.
//  2. Search for a *relaxed schedule* (Section 2, "Relaxed Schedule") with
//     the dynamic program over speed groups: integral jobs go to machines
//     of their native group (fringe jobs) or their class's core group (core
//     jobs); the remaining jobs are fractional and their volume λ is pushed
//     to faster groups subject to the space condition.
//  3. Convert the relaxed schedule into a regular schedule for the
//     simplified instance (the constructive proof of Lemma 2.8).
//  4. Map the schedule back to the original instance (undo placeholders,
//     rounding and machine removal).
//
// The DP is realized as a depth-first search with memoization of failed
// states over the paper's state graph (g, k, ι, ξ, µ, λ). Loads are kept
// exact instead of grid-quantized — the paper's quantization only serves
// the polynomial bound, not correctness — so the procedure accepts a guess
// T exactly when a relaxed schedule with makespan (1+ε)⁵T exists for the
// simplified instance. A configurable node cap keeps worst-case runs
// bounded; hitting it is reported in Stats and treated as a (conservative)
// rejection.
package ptas

import (
	"context"
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dual"
	"repro/internal/exact"
)

// Options configures the PTAS.
type Options struct {
	// Eps is the accuracy parameter ε ∈ (0, 1/2]; 1/ε should be an integer
	// (the paper requires 1/ε ∈ Z≥2). Default 1/2.
	Eps float64
	// NodeCap bounds the number of DP search nodes per guess
	// (default 2e6). Exceeding it counts as a rejection and sets
	// Stats.Capped.
	NodeCap int64
	// Precision is the relative precision of the binary search on T;
	// default ε/4 (so the search loss is dominated by ε).
	Precision float64
	// Bounds, when non-nil, connects the run to a live bound exchange (the
	// engine portfolio's incumbent bus): the LPT bootstrap and every
	// accepted guess are published as incumbents the moment they appear,
	// certified rejections as lower bounds, and the binary search skips
	// guesses at or above the live incumbent. Capped or cancelled
	// rejections are never published — they are suspicions, not
	// certificates.
	Bounds core.BoundBus
}

func (o Options) normalize() Options {
	if o.Eps <= 0 || o.Eps > 0.5 {
		o.Eps = 0.5
	}
	if o.NodeCap <= 0 {
		o.NodeCap = 2_000_000
	}
	if o.Precision <= 0 {
		o.Precision = o.Eps / 4
	}
	return o
}

// Stats reports diagnostic counters accumulated over all guesses.
type Stats struct {
	// Guesses is the number of makespan guesses tested.
	Guesses int
	// Nodes is the total number of DP search nodes explored.
	Nodes int64
	// Capped reports whether any guess hit the node cap (in which case the
	// 1+O(ε) guarantee may be lost for that guess; the returned schedule
	// and the measured makespan remain valid).
	Capped bool
	// Cancelled reports whether the context was cancelled (or its deadline
	// expired) during the search; the returned schedule is the best seen
	// up to that point.
	Cancelled bool
}

// Schedule runs the PTAS on an identical or uniform instance. The context
// is observed both between makespan guesses and inside the DP node
// expansion, so a deadline stops in-flight work; a cancelled run returns
// the best schedule found so far with Result.Note explaining the early
// stop.
func Schedule(ctx context.Context, in *core.Instance, opt Options) (core.Result, Stats, error) {
	opt = opt.normalize()
	var stats Stats
	if in.Kind != core.Identical && in.Kind != core.Uniform {
		return core.Result{}, stats, fmt.Errorf("ptas: need identical or uniform machines, got %v", in.Kind)
	}
	// Bootstrap with the Lemma 2.1 LPT schedule: a 4.74-approximation, so
	// Opt ∈ [lpt/4.74, lpt].
	lptSched, err := baseline.Lemma21LPT(in)
	if err != nil {
		return core.Result{}, stats, err
	}
	ub := lptSched.Makespan(in)
	lb := ub / baseline.Lemma21Factor
	if v := exact.VolumeLowerBound(in); v > lb {
		lb = v
	}
	// The guard marks guesses whose rejection is not a certificate: a
	// capped or cancelled DP run only suspects infeasibility and must not
	// be published as a lower bound.
	var guard *guardedBus
	var bus core.BoundBus
	if opt.Bounds != nil {
		opt.Bounds.PublishUpper(ub) // the LPT schedule is feasible
		opt.Bounds.PublishLower(lb) // Lemma 2.1 ratio and volume bound are certified
		guard = &guardedBus{BoundBus: opt.Bounds}
		bus = guard
	}
	// The guess-independent simplification and the DP scratch are built
	// once; dual.Search tests its guesses one at a time, so every guess
	// reuses them.
	d := newSolveDP(prepare(in, opt.Eps), opt.NodeCap)
	out := dual.Search(ctx, dual.Config{
		Instance:  in,
		Lower:     lb,
		Upper:     ub,
		Precision: opt.Precision,
		Fallback:  lptSched,
		Bus:       bus,
	}, func(T float64) (*core.Schedule, bool) {
		sched, st := decide(ctx, d, T)
		stats.Nodes += st.Nodes
		if st.Capped {
			stats.Capped = true
		}
		stats.Guesses++
		// A rejection cancelled mid-DP is discarded by the search; the
		// cancellation itself surfaces as Outcome.Err below. The guard
		// still suppresses the rejection's publication either way.
		if guard != nil && (st.Capped || st.Cancelled) {
			guard.unsound = T
		}
		return sched, sched != nil
	})
	if out.Err != nil {
		stats.Cancelled = true
	}
	low := out.LowerBound
	if stats.Capped || stats.Cancelled {
		// A capped or cancelled rejection is not a certificate; fall back
		// to the sound bounds only.
		low = math.Min(low, lb)
		if v := exact.VolumeLowerBound(in); v > low {
			low = v
		}
	}
	note := ""
	switch {
	case stats.Cancelled:
		note = fmt.Sprintf("search stopped early (context cancelled after %d guesses); schedule is best-so-far, 1+O(ε) guarantee not certified", stats.Guesses)
	case stats.Capped:
		note = fmt.Sprintf("DP node cap hit (%d nodes total); capped guesses treated as rejections, 1+O(ε) guarantee may be lost", stats.Nodes)
	}
	return core.Result{
		Algorithm:  fmt.Sprintf("ptas(eps=%.3g)", opt.Eps),
		Schedule:   out.Schedule,
		Makespan:   out.Makespan,
		LowerBound: low,
		Note:       note,
		Nodes:      stats.Nodes,
	}, stats, nil
}

// guardedBus keeps an unsound rejection off the bus: a rejection caused by
// the node cap or a cancelled context is not an infeasibility certificate,
// and publishing it would poison the shared bound bus for every racer. The
// decider records the guess value before returning, and the search
// publishes a committed rejection with that same value, so the filter
// matches exactly.
type guardedBus struct {
	core.BoundBus
	unsound float64
}

func (g *guardedBus) PublishLower(v float64) bool {
	if v == g.unsound {
		return false
	}
	return g.BoundBus.PublishLower(v)
}

// guessStats reports counters for a single guess.
type guessStats struct {
	Nodes     int64
	Capped    bool
	Cancelled bool
}

// decide is the dual approximation decision procedure: it returns a
// feasible schedule for the original instance whose makespan is (1+O(ε))·T
// when a schedule with makespan ≤ T exists, and nil when it certifies (or,
// if Capped/Cancelled, merely suspects) that none exists. d is the solve's
// DP context; decide simplifies the instance for T and resets d for it.
func decide(ctx context.Context, d *dp, T float64) (*core.Schedule, guessStats) {
	var gs guessStats
	s := d.p.simplify(T)
	if s == nil {
		return nil, gs // trivially infeasible (a job or setup fits nowhere)
	}
	d.reset(s)
	d.ctx = ctx
	ok := d.solve()
	gs.Nodes = d.nodes
	gs.Capped = d.capped
	gs.Cancelled = d.cancelled
	if !ok {
		return nil, gs
	}
	assign := convert(s, d.integralAssign(), d.fractionalItems())
	sched := s.mapBack(assign)
	if err := sched.Validate(s.in); err != nil {
		// Construction bug guard: never return an invalid schedule.
		return nil, gs
	}
	return sched, gs
}

// DebugDecide exposes the per-guess decision procedure for diagnostics and
// the experiment harness (it is not part of the algorithmic API).
func DebugDecide(in *core.Instance, T float64, opt Options) (*core.Schedule, guessStats) {
	opt = opt.normalize()
	return decide(context.Background(), newSolveDP(prepare(in, opt.Eps), opt.NodeCap), T)
}
