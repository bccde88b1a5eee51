package sched

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// --- online re-optimization: deltas ------------------------------------------

// Delta is one mutation of a scheduling instance — a job arriving or
// departing, a job changing size, a machine joining or failing. Deltas are
// the unit of the online workload: Engine.Resolve applies one to a solved
// instance and re-enters a warm dual search instead of solving the mutated
// instance cold.
type Delta = core.Delta

// DeltaKind enumerates the supported instance mutations.
type DeltaKind = core.DeltaKind

// Delta kinds.
const (
	DeltaJobArrive     = core.DeltaJobArrive
	DeltaJobDepart     = core.DeltaJobDepart
	DeltaJobResize     = core.DeltaJobResize
	DeltaMachineAdd    = core.DeltaMachineAdd
	DeltaMachineRemove = core.DeltaMachineRemove
)

// ArriveJob builds a job-arrival delta for base-size environments
// (identical, uniform, restricted; for restricted also set Eligible).
func ArriveJob(class int, size float64) Delta { return core.ArriveJob(class, size) }

// ArriveJobUnrelated builds a job-arrival delta with per-machine processing
// times.
func ArriveJobUnrelated(class int, proc []float64) Delta {
	return core.ArriveJobUnrelated(class, proc)
}

// DepartJob builds a job-departure delta.
func DepartJob(job int) Delta { return core.DepartJob(job) }

// ResizeJob builds a size-change delta for base-size environments.
func ResizeJob(job int, size float64) Delta { return core.ResizeJob(job, size) }

// AddMachine builds a machine-addition delta (see core.AddMachine for the
// per-environment field semantics).
func AddMachine(speed float64, proc, setup []float64, eligible []int) Delta {
	return core.AddMachine(speed, proc, setup, eligible)
}

// RemoveMachine builds a machine-failure delta.
func RemoveMachine(machine int) Delta { return core.RemoveMachine(machine) }

// --- handles -----------------------------------------------------------------

// Handle is a solved instance kept warm for incremental re-solving: it pins
// the instance, its solve result, and (inside the engine) the retained
// solver state — the LP relaxation and the accepted bracket edge of the dual
// search. Obtain one with Engine.Open, mutate it with Engine.Resolve.
//
// A Handle is immutable; Resolve returns a new Handle for the post-delta
// instance. The retained solver state, however, is consumed by the first
// Resolve that uses it (it is patched in place) — resolving the same Handle
// twice is correct but only the first call gets the patched-relaxation fast
// path.
type Handle struct {
	eng *Engine
	in  *Instance
	fp  string
	res Result
}

// Instance returns the instance this handle solved.
func (h *Handle) Instance() *Instance { return h.in }

// Result returns the solve outcome for the handle's instance.
func (h *Handle) Result() Result { return h.res }

// Fingerprint returns the canonical fingerprint of the handle's instance.
func (h *Handle) Fingerprint() string { return h.fp }

// Open solves an instance and returns a re-solvable handle: the solve runs
// like Engine.Solve, but the engine additionally retains the solver's
// warm-start state (for the randomized rounding, its LP relaxation and the
// dual search's accepted bracket edge) keyed by the instance fingerprint, so
// a subsequent Resolve on the handle re-enters the search warm.
func (e *Engine) Open(ctx context.Context, in *Instance, opts ...SolveOption) (*Handle, error) {
	if in == nil {
		return nil, fmt.Errorf("sched: Open: nil instance")
	}
	cfg := e.config(opts)
	cfg.retain = true
	res, fp, err := e.solveOne(ctx, in, cfg)
	if err != nil {
		return nil, err
	}
	return &Handle{eng: e, in: in, fp: fp, res: res}, nil
}

// Resolve applies a delta to a solved handle and re-solves the mutated
// instance warm. Everything the previous solve certified is carried across
// the delta by the monotonicity lemmas (core.Delta):
//
//   - the previous schedule is patched into a feasible witness of the new
//     instance (Delta.PatchSchedule) — its makespan is a certified upper
//     bound, and it is the fallback of last resort;
//   - the previous lower bound transfers when the delta provably never
//     shrinks the optimum (Delta.RaisesOn);
//   - the dual search's accepted bracket edge lifts constructively
//     (Delta.AcceptedCap), so the new search opens on a tight bracket
//     instead of bootstrapping cold; and
//   - the retained LP relaxation is patched in place (columns, clamps, RHS)
//     and re-enters the simplex from its previous basis, falling back to a
//     cold rebuild when the delta defeats patching.
//
// The fallback chain is total: when any warm component is unavailable — no
// retained state (already consumed, evicted, or the previous solve used a
// solver without retainable state), an unpatched relaxation, no witness —
// Resolve degrades toward an ordinary cold solve of the mutated instance.
// The verdict is always equivalent to Solve(delta.Apply(prev)); only
// latency differs.
func (e *Engine) Resolve(ctx context.Context, prev *Handle, d Delta, opts ...SolveOption) (*Handle, error) {
	if prev == nil || prev.in == nil {
		return nil, fmt.Errorf("sched: Resolve: nil handle")
	}
	if prev.eng != e {
		return nil, fmt.Errorf("sched: Resolve: handle belongs to a different engine")
	}
	newIn, err := d.Apply(prev.in)
	if err != nil {
		return nil, fmt.Errorf("sched: Resolve: %w", err)
	}
	cfg := e.config(opts)
	cfg.retain = true

	// Certified knowledge transfer: witness, lower bound, accepted cap.
	witness := d.PatchSchedule(prev.res.Schedule, prev.in, newIn)
	witnessMs := math.Inf(1)
	if witness != nil {
		witnessMs = witness.Makespan(newIn)
		if !core.IsFinite(witnessMs) {
			witness = nil
		}
	}
	lower := 0.0
	if d.RaisesOn(prev.in) && prev.res.LowerBound > 0 {
		lower = prev.res.LowerBound
	}

	// Retained solver state is consumed exclusively: Take removes it, so a
	// concurrent Resolve of the same handle can never share (and race on)
	// the mutable relaxation.
	st := e.states.Take(prev.fp)
	searchUpper := witnessMs
	if st != nil {
		accepted := st.Accepted
		if accepted <= 0 {
			accepted = st.Upper
		}
		if c := d.AcceptedCap(accepted, prev.in, newIn); c < searchUpper {
			searchUpper = c
		}
	}

	if witness != nil {
		ws := &core.WarmStart{Lower: lower, Upper: searchUpper, Fallback: witness}
		if st != nil && st.Rel != nil && core.IsFinite(searchUpper) {
			// Patch the retained relaxation in place. On error the
			// relaxation is unusable for this delta (structural change,
			// bracket above its envelope) and is dropped — the solver then
			// rebuilds cold, which is the correctness-preserving fallback.
			if perr := st.Rel.ApplyDelta(d, newIn, searchUpper); perr == nil {
				ws.State = st.Rel
			}
		}
		cfg.warm = ws
		cfg.seed = &engine.CachedBounds{
			Upper:     witnessMs,
			Lower:     lower,
			Schedule:  witness,
			Algorithm: prev.res.Algorithm + "+delta",
		}
	} else if lower > 0 {
		cfg.seed = &engine.CachedBounds{Upper: math.Inf(1), Lower: lower}
	}

	res, fp, err := e.solveOne(ctx, newIn, cfg)
	if err != nil {
		return nil, err
	}
	return &Handle{eng: e, in: newIn, fp: fp, res: res}, nil
}

// StreamResult is one event's outcome within an Engine.Stream run.
type StreamResult struct {
	// Delta is the event, as passed in.
	Delta Delta
	// Result is the re-solve outcome; meaningful only when Err is nil.
	Result Result
	// Latency is the event's wall-clock re-solve time (the online-serving
	// metric: how long the schedule was stale after the event).
	Latency time.Duration
	// Err is the per-event failure (an inapplicable delta, a solver error,
	// the context's cancellation). The stream continues from the last good
	// handle.
	Err error
}

// Stream folds a delta sequence over an instance: Open the initial
// instance, then Resolve each delta in order, each re-solve warm-started
// from its predecessor. It returns the final handle and one StreamResult
// per delta. An event whose delta fails to apply (or whose solve fails) is
// recorded in its StreamResult and skipped — the stream continues from the
// last successfully solved handle. Stream fails outright only when the
// initial Open does, or when ctx is cancelled (the remaining events are
// marked with the context error).
func (e *Engine) Stream(ctx context.Context, in *Instance, deltas []Delta, opts ...SolveOption) (*Handle, []StreamResult, error) {
	h, err := e.Open(ctx, in, opts...)
	if err != nil {
		return nil, nil, err
	}
	out := make([]StreamResult, len(deltas))
	for i, d := range deltas {
		out[i].Delta = d
		if ctx.Err() != nil {
			out[i].Err = ctx.Err()
			continue
		}
		start := time.Now()
		next, rerr := e.Resolve(ctx, h, d, opts...)
		out[i].Latency = time.Since(start)
		if rerr != nil {
			out[i].Err = rerr
			continue
		}
		out[i].Result = next.res
		h = next
	}
	return h, out, nil
}

// ReadDeltaStream parses an instance plus delta sequence written by
// WriteDeltaStream (the `instgen -stream` / `schedbench -online`
// interchange format).
func ReadDeltaStream(r io.Reader) (*Instance, []Delta, error) {
	return core.ReadDeltaStream(r)
}

// WriteDeltaStream serializes an instance and a delta sequence as a single
// JSON document.
func WriteDeltaStream(w io.Writer, in *Instance, deltas []Delta) error {
	return core.WriteDeltaStream(w, in, deltas)
}
