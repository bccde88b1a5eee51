package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"repro"
)

// SolveRequest is the body of POST /v1/solve: one instance in the library's
// JSON format (the `instgen` output, core.Instance.WriteJSON) plus solve
// options. With Async true the server responds 202 with the solve ID as
// soon as the request is admitted (or coalesced onto an in-flight solve);
// the result is then delivered as the terminal event of
// GET /v1/solve/{id}/events or fetched from GET /v1/solve/{id}.
type SolveRequest struct {
	Instance json.RawMessage `json:"instance"`
	Options  SolveOptions    `json:"options"`
	Async    bool            `json:"async,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many instances solved through
// Engine.SolveBatch under one shared option set. Options.Timeout is per
// instance (the SolveBatch contract), not for the whole batch.
type BatchRequest struct {
	Instances []json.RawMessage `json:"instances"`
	Options   SolveOptions      `json:"options"`
}

// SolveOptions is the wire form of the engine's per-call options. Timeout
// participates in admission control (the request is shed when the queue's
// drain estimate exceeds it) but not in the coalescing key: two identical
// instances with different deadlines still share one computation, bounded
// by the leader's deadline.
type SolveOptions struct {
	// Algorithm names a registered solver (see `schedsolve -list-algos`);
	// empty selects the strongest applicable one. An unregistered name is
	// answered 400; a solver that does not apply to the instance, 422.
	Algorithm string `json:"algorithm,omitempty"`
	// Portfolio races every applicable solver and keeps the best schedule.
	Portfolio bool `json:"portfolio,omitempty"`
	// Eps is the PTAS accuracy parameter (0 = solver default).
	Eps float64 `json:"eps,omitempty"`
	// Gap early-terminates portfolio races at this optimality gap.
	Gap float64 `json:"gap,omitempty"`
	// Precision is the dual-search precision (0 = solver default).
	Precision float64 `json:"precision,omitempty"`
	// Seed drives randomized solvers (0 = fixed default stream).
	Seed int64 `json:"seed,omitempty"`
	// LocalSearch post-optimizes with best-improvement descent.
	LocalSearch bool `json:"localSearch,omitempty"`
	// Timeout is the request deadline as a Go duration string ("500ms",
	// "2s"); it covers queueing, engine admission and solving. The
	// X-Request-Deadline header is the field's header-borne alternative;
	// the JSON field wins when both are given. 0 selects the server
	// default.
	Timeout Duration `json:"timeout,omitempty"`
}

// digest canonicalizes the result-relevant options into the coalescing key
// suffix: requests coalesce only when both the instance fingerprint and
// this digest match, so an eps=0.1 PTAS request never rides an eps=0.5
// leader. Timeout is deliberately excluded (see SolveOptions).
func (o SolveOptions) digest() string {
	return fmt.Sprintf("algo=%s pf=%t eps=%g gap=%g prec=%g seed=%d ls=%t",
		o.Algorithm, o.Portfolio, o.Eps, o.Gap, o.Precision, o.Seed, o.LocalSearch)
}

// engineOpts translates the wire options into engine call options. Zero
// values stay unset so each solver's own defaults apply.
func (o SolveOptions) engineOpts() []sched.SolveOption {
	var opts []sched.SolveOption
	if o.Algorithm != "" {
		opts = append(opts, sched.WithAlgorithm(o.Algorithm))
	}
	if o.Portfolio {
		opts = append(opts, sched.WithPortfolio())
	}
	if o.Eps > 0 {
		opts = append(opts, sched.WithEps(o.Eps))
	}
	if o.Gap > 0 {
		opts = append(opts, sched.WithGap(o.Gap))
	}
	if o.Precision > 0 {
		opts = append(opts, sched.WithPrecision(o.Precision))
	}
	if o.Seed != 0 {
		opts = append(opts, sched.WithSeed(o.Seed))
	}
	if o.LocalSearch {
		opts = append(opts, sched.WithLocalSearch(true))
	}
	return opts
}

// SolveResponse is the body of a completed solve: the schedule, its
// makespan and the certified lower bound, plus the solve ID the events
// endpoint accepts. Coalesced followers receive the leader's response
// byte-for-byte; whether a response was computed or ridden is reported in
// the X-Coalesce header ("leader" / "follower"), never in the body.
type SolveResponse struct {
	ID         string  `json:"id"`
	Algorithm  string  `json:"algorithm"`
	Machine    []int   `json:"machine"`
	Makespan   float64 `json:"makespan"`
	LowerBound float64 `json:"lowerBound,omitempty"`
	Note       string  `json:"note,omitempty"`
	ElapsedMs  float64 `json:"elapsedMs"`
}

// BatchResponse is the body of POST /v1/batch, index-aligned with the
// request's instances.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// BatchItem is one instance's outcome inside a batch. Error, when set, is a
// per-instance failure (a solver error or the instance's deadline); the
// other fields are then zero.
type BatchItem struct {
	Algorithm  string  `json:"algorithm,omitempty"`
	Machine    []int   `json:"machine,omitempty"`
	Makespan   float64 `json:"makespan,omitempty"`
	LowerBound float64 `json:"lowerBound,omitempty"`
	Note       string  `json:"note,omitempty"`
	ElapsedMs  float64 `json:"elapsedMs"`
	Error      string  `json:"error,omitempty"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	ID    string `json:"id,omitempty"`
}

// asyncBody is the 202 response of an async solve submission.
type asyncBody struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Events string `json:"events"`
}

// Duration marshals as a Go duration string ("1.5s") and unmarshals either
// that or a bare number of nanoseconds (time.Duration's native JSON shape).
type Duration time.Duration

// MarshalJSON encodes the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON decodes a duration string or a nanosecond count.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("serve: bad duration %q: %w", s, err)
		}
		*d = Duration(dd)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("serve: duration must be a string like \"2s\" or nanoseconds")
	}
	*d = Duration(ns)
	return nil
}
