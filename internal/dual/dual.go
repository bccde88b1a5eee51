// Package dual implements the Hochbaum–Shmoys dual approximation framework
// (Section 1.1.1 of the paper): given a decision procedure that, for a
// makespan guess T, either produces a schedule with makespan at most α·T or
// correctly reports that no schedule with makespan T exists, a
// multiplicative binary search over T yields an α(1+δ)-approximation.
//
// Search is that one sequential bisection. It can be connected to a live
// bound exchange (core.BoundBus) shared with concurrent racers: their
// incumbents and certificates narrow the bracket, and every verdict the
// search commits is published back.
package dual

import (
	"context"
	"math"

	"repro/internal/core"
)

// Decider is the per-guess decision procedure. For a guess T it returns
// (schedule, true) when it constructed a schedule with makespan ≤ α·T, or
// (nil, false) when it certifies that no schedule with makespan ≤ T exists.
// A decider may also accept without a schedule (nil, true) when its
// construction lives outside the core.Schedule type.
type Decider func(T float64) (*core.Schedule, bool)

// Config parameterizes Search.
type Config struct {
	// Instance evaluates the makespans of schedules the decider returns.
	Instance *core.Instance
	// Lower and Upper bracket the search. Lower may be 0; it is raised to
	// a tiny fraction of Upper to keep the geometric search well-defined.
	// Upper must be achievable: the caller typically passes the makespan
	// of a heuristic schedule and that schedule as Fallback.
	Lower, Upper float64
	// Precision is the relative gap at which the search stops (e.g. 0.05
	// narrows to a factor 1.05; default 0.05).
	Precision float64
	// Fallback seeds the outcome with a known-feasible schedule (may be
	// nil, allowing an empty outcome when every guess is rejected).
	Fallback *core.Schedule
	// Bus connects the search to a live bound exchange (may be nil):
	//
	//   - guesses at or above the live incumbent makespan are accepted
	//     without running the decider, since the incumbent schedule is
	//     already a witness (Outcome.Skipped counts these);
	//   - the search floor is raised to the bus's certified lower bound
	//     before every guess, so refutations by concurrent racers narrow
	//     this search;
	//   - every rejected guess is published as a certified lower bound,
	//     and the makespan of every schedule a guess produces as an
	//     incumbent, the moment the verdict is committed.
	//
	// Deciders whose rejections are not certificates (e.g. a node-capped
	// dynamic program) must wrap the bus to suppress PublishLower for those
	// guesses, or they would poison every racer sharing it.
	Bus core.BoundBus
}

// Outcome is the result of a dual approximation search.
type Outcome struct {
	// Schedule is the best (smallest makespan) schedule produced by any
	// accepted guess, or the Fallback; nil when neither exists.
	Schedule *core.Schedule
	// Makespan is the makespan of Schedule under Config.Instance.
	Makespan float64
	// LowerBound is the largest guess that was rejected — a certified lower
	// bound on the optimal makespan (Opt > LowerBound). It equals the
	// initial Lower if no guess was ever rejected.
	LowerBound float64
	// Accepted is the smallest guess value the search holds an acceptance
	// for when it returns: the final upper bracket edge. Like the initial
	// upper bound it is accept-backed — either the decider accepted it, or
	// it is the caller's Upper, or a live incumbent witnessed it. The
	// incremental re-solve pipeline retains it and lifts it through
	// Delta.AcceptedCap to open the next search's bracket near the
	// threshold. Zero when Upper <= 0 (the zero-makespan fast path).
	Accepted float64
	// Guesses is the number of decision-procedure invocations.
	Guesses int
	// Skipped is the number of guesses accepted without running the
	// decider because they were at or above the bus's live incumbent.
	Skipped int
	// Err is the context error (context.Canceled or
	// context.DeadlineExceeded) when the search was stopped before
	// narrowing to the requested precision; nil when the search completed.
	// A stopped search still returns the best schedule and the soundest
	// lower bound seen so far.
	Err error
}

// Search runs the multiplicative binary search for the smallest accepted
// guess in [cfg.Lower, cfg.Upper]: every step decides the geometric mean
// of the bracket, an acceptance lowers the upper edge to it and a
// rejection raises the lower edge.
//
// The context is checked before every guess: a cancelled or expired ctx
// stops the search early and is reported in Outcome.Err. Deciders that
// loop internally should observe the same context themselves. A rejection
// returned after ctx was cancelled is an interruption, not a certificate:
// it is discarded, neither committed nor published.
func Search(ctx context.Context, cfg Config, decide Decider) Outcome {
	in, bus := cfg.Instance, cfg.Bus
	out := Outcome{LowerBound: cfg.Lower, Makespan: math.Inf(1)}
	if cfg.Fallback != nil {
		out.Schedule = cfg.Fallback
		out.Makespan = cfg.Fallback.Makespan(in)
	}
	if cfg.Upper <= 0 {
		// Zero-makespan instance (all sizes 0): any complete feasible
		// assignment achieves 0; the fallback already is one.
		return out
	}
	precision := cfg.Precision
	if precision <= 0 {
		precision = 0.05
	}
	lo, hi := searchFloor(cfg.Lower, cfg.Upper), cfg.Upper
	for hi/lo > 1+precision {
		if err := ctx.Err(); err != nil {
			out.Err = err
			break
		}
		if bus != nil {
			if l := bus.Lower(); l > lo {
				// A concurrent racer certified a higher floor.
				lo = l
				if l > out.LowerBound {
					out.LowerBound = l
				}
				continue
			}
		}
		t := math.Sqrt(lo * hi)
		if t <= lo || t >= hi {
			break // bracket numerically exhausted
		}
		if bus != nil && t >= bus.Upper() {
			// The incumbent schedule is already a witness at t.
			out.Skipped++
			hi = t
			continue
		}
		out.Guesses++
		sched, ok := decide(t)
		if !ok && ctx.Err() != nil {
			continue // interrupted rejection; the loop reports ctx.Err
		}
		if ok {
			hi = t
			if sched != nil {
				ms := sched.Makespan(in)
				if ms < out.Makespan {
					out.Schedule, out.Makespan = sched, ms
				}
				if bus != nil {
					bus.PublishUpper(ms)
				}
			}
			continue
		}
		lo = t
		if t > out.LowerBound {
			out.LowerBound = t
		}
		if bus != nil {
			bus.PublishLower(t)
		}
	}
	out.Accepted = hi
	return out
}

// searchFloor raises a lower bracket edge to keep the geometric search
// well-defined when the caller passes lb = 0 (or absurdly small).
func searchFloor(lb, ub float64) float64 {
	if lb < ub*1e-9 || lb <= 0 {
		return ub * 1e-9
	}
	return lb
}
