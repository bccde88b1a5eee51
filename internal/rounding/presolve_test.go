package rounding

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lp"
)

// TestPresolveTrajectoryMatchesNoPresolve is the end-to-end equivalence
// check for the LP presolve pipeline at the relaxation layer: a 9-step
// shrinking-T warm trajectory (the dual search's access pattern — bound
// clamps plus load-RHS updates, warm-started re-solves) must produce the
// same feasibility verdict at every step with presolve on and off, for
// every backend kind, and the feasible fractional solutions must satisfy
// the LP rows either way.
func TestPresolveTrajectoryMatchesNoPresolve(t *testing.T) {
	kinds := []struct {
		name string
		make func(rng *rand.Rand) *core.Instance
	}{
		{"unrelated", func(rng *rand.Rand) *core.Instance {
			return gen.Unrelated(rng, gen.Params{N: 12 + rng.Intn(8), M: 3, K: 3})
		}},
		{"restricted", func(rng *rand.Rand) *core.Instance {
			return gen.Restricted(rng, gen.Params{N: 12 + rng.Intn(8), M: 3, K: 2})
		}},
	}
	for _, be := range []lp.BackendKind{lp.Dense, lp.Sparse} {
		for _, tc := range kinds {
			t.Run(string(be)+"/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(31))
				in := tc.make(rng)
				on, err := NewRelaxation(in, RelaxationConfig{Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				off, err := NewRelaxation(in, RelaxationConfig{Backend: be, NoPresolve: true})
				if err != nil {
					t.Fatal(err)
				}
				if on.Envelope() != off.Envelope() {
					t.Fatalf("envelopes diverge: %v vs %v", on.Envelope(), off.Envelope())
				}
				T := on.Envelope()
				sawFeasible, sawInfeasible := false, false
				for step := 0; step < 9; step++ {
					fa, err := on.ReSolve(T)
					if err != nil {
						t.Fatalf("step %d: presolved ReSolve(%g): %v", step, T, err)
					}
					fb, err := off.ReSolve(T)
					if err != nil {
						t.Fatalf("step %d: plain ReSolve(%g): %v", step, T, err)
					}
					if (fa == nil) != (fb == nil) {
						t.Fatalf("step %d: verdicts diverge at T=%g: presolved feasible=%v plain feasible=%v",
							step, T, fa != nil, fb != nil)
					}
					if fa != nil {
						sawFeasible = true
						checkFractional(t, in, fa, T)
					} else {
						sawInfeasible = true
					}
					T *= 0.78
				}
				if !sawFeasible || !sawInfeasible {
					t.Logf("trajectory saw feasible=%v infeasible=%v — weak corpus", sawFeasible, sawInfeasible)
				}
				if pi := on.Presolve(); pi == nil {
					t.Fatal("presolved relaxation reported no PresolveInfo")
				} else if pi.Bypassed && tc.name == "unrelated" {
					// Unrelated instances only ever clamp to 0 and restore
					// to the recorded bound, which the reduction mapping
					// absorbs. (Restricted ones may pin a single-eligible
					// job's x by an EQ-singleton reduction; clamping that
					// column later legitimately bypasses.)
					t.Fatal("warm trajectory bypassed the presolve wrapper")
				}
				if off.Presolve() != nil {
					t.Fatal("NoPresolve relaxation reported PresolveInfo")
				}
			})
		}
	}
}

// TestPresolveApplyDeltaMatchesNoPresolve chains random deltas through two
// patched relaxations — presolve on and off — re-solving a guess grid after
// each patch: the incremental pipeline (ApplyDelta, deferred materialize,
// basis transplant) must be verdict-equivalent to the unpresolved path.
func TestPresolveApplyDeltaMatchesNoPresolve(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	in := gen.Unrelated(rng, gen.Params{N: 10, M: 3, K: 3})
	on, err := NewRelaxation(in, RelaxationConfig{Backend: lp.Sparse})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewRelaxation(in, RelaxationConfig{Backend: lp.Sparse, NoPresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := on.ReSolve(on.Envelope()); err != nil {
		t.Fatal(err)
	}
	if _, err := off.ReSolve(off.Envelope()); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 9; step++ {
		d, next := randDeltaFor(t, rng, in)
		env := math.Min(on.Envelope(), off.Envelope())
		if errOn, errOff := on.ApplyDelta(d, next, env), off.ApplyDelta(d, next, env); (errOn == nil) != (errOff == nil) {
			t.Fatalf("step %d (%s): patch acceptance diverges: on=%v off=%v", step, d, errOn, errOff)
		} else if errOn != nil {
			on = reRelax(t, next, env, lp.Sparse)
			off, err = NewRelaxation(next, RelaxationConfig{Envelope: env, Backend: lp.Sparse, NoPresolve: true})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range []float64{0.4, 0.7, 1.0} {
			T := on.Envelope() * f
			fa, err := on.ReSolve(T)
			if err != nil {
				t.Fatalf("step %d (%s): presolved ReSolve(%g): %v", step, d, T, err)
			}
			fb, err := off.ReSolve(T)
			if err != nil {
				t.Fatalf("step %d (%s): plain ReSolve(%g): %v", step, d, T, err)
			}
			if (fa == nil) != (fb == nil) {
				t.Fatalf("step %d (%s): verdicts diverge at T=%g: presolved=%v plain=%v",
					step, d, T, fa != nil, fb != nil)
			}
			if fa != nil {
				checkFractional(t, next, fa, T)
			}
		}
		in = next
	}
}
