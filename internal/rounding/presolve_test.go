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
// check for equilibration scaling at the relaxation layer: a 9-step
// shrinking-T warm trajectory (the dual search's access pattern — bound
// clamps plus load-RHS updates, warm-started re-solves) must produce the
// same feasibility verdict at every step scaled and raw (NoPresolve), for
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
						t.Fatalf("step %d: scaled ReSolve(%g): %v", step, T, err)
					}
					fb, err := off.ReSolve(T)
					if err != nil {
						t.Fatalf("step %d: plain ReSolve(%g): %v", step, T, err)
					}
					if (fa == nil) != (fb == nil) {
						t.Fatalf("step %d: verdicts diverge at T=%g: scaled feasible=%v plain feasible=%v",
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
				if on.Presolve() == nil {
					t.Fatal("scaled relaxation reported no PresolveInfo")
				}
				if off.Presolve() != nil {
					t.Fatal("NoPresolve relaxation reported PresolveInfo")
				}
			})
		}
	}
}

// TestPresolveApplyDeltaMatchesNoPresolve chains random deltas through two
// patched relaxations — scaled and raw — re-solving a guess grid after each
// patch: the incremental pipeline (ApplyDelta, deferred materialize, basis
// transplant) must be verdict-equivalent to the raw path.
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
				t.Fatalf("step %d (%s): scaled ReSolve(%g): %v", step, d, T, err)
			}
			fb, err := off.ReSolve(T)
			if err != nil {
				t.Fatalf("step %d (%s): plain ReSolve(%g): %v", step, d, T, err)
			}
			if (fa == nil) != (fb == nil) {
				t.Fatalf("step %d (%s): verdicts diverge at T=%g: scaled=%v plain=%v",
					step, d, T, fa != nil, fb != nil)
			}
			if fa != nil {
				checkFractional(t, next, fa, T)
			}
		}
		in = next
	}
}

// TestApplyDeltaKeepsScaling runs an ApplyDelta chain (arrivals, a machine
// added and one removed, a departure) with a ReSolve after every step. The
// rebuild after a growing delta transplants the remapped basis with Warm;
// every solve after it must still run on the equilibrated LP, with the
// threshold and verdict of a NoPresolve twin.
func TestApplyDeltaKeepsScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := gen.Unrelated(rng, gen.Params{N: 12, M: 3, K: 3})
	on, err := NewRelaxation(in, RelaxationConfig{Backend: lp.Sparse})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewRelaxation(in, RelaxationConfig{Envelope: on.Envelope(), Backend: lp.Sparse, NoPresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	env := on.Envelope()
	proc := func(n int) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = 1 + float64(rng.Intn(8))
		}
		return p
	}
	steps := []func(in *core.Instance) core.Delta{
		nil, // the seed solve
		func(in *core.Instance) core.Delta { return core.ArriveJobUnrelated(1, proc(in.M)) },
		func(in *core.Instance) core.Delta { return core.AddMachine(0, proc(in.N), proc(in.K), nil) },
		func(in *core.Instance) core.Delta { return core.ArriveJobUnrelated(2, proc(in.M)) },
		func(in *core.Instance) core.Delta { return core.DepartJob(0) },
		func(in *core.Instance) core.Delta { return core.RemoveMachine(1) },
	}
	for step, mk := range steps {
		name := "seed"
		if mk != nil {
			d := mk(in)
			name = d.String()
			next, err := d.Apply(in)
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, name, err)
			}
			for _, rel := range []*Relaxation{on, off} {
				if err := rel.ApplyDelta(d, next, env); err != nil {
					t.Fatalf("step %d (%s): ApplyDelta: %v", step, name, err)
				}
			}
			in = next
		}
		for _, f := range []float64{1, 0.8} {
			T := env * f
			fa, err := on.ReSolve(T)
			if err != nil {
				t.Fatalf("step %d (%s): scaled ReSolve(%g): %v", step, name, T, err)
			}
			if pi := on.Presolve(); pi == nil || pi.ScalePasses == 0 {
				t.Fatalf("step %d (%s) T=%g: the solve ran unscaled (%+v)", step, name, T, pi)
			}
			fb, err := off.ReSolve(T)
			if err != nil {
				t.Fatalf("step %d (%s): raw ReSolve(%g): %v", step, name, T, err)
			}
			if (fa == nil) != (fb == nil) {
				t.Fatalf("step %d (%s) T=%g: scaled feasible=%v, raw feasible=%v", step, name, T, fa != nil, fb != nil)
			}
			ta, _ := on.Threshold()
			tb, _ := off.Threshold()
			if math.Abs(ta-tb) > 1e-9*math.Max(1, math.Abs(tb)) {
				t.Fatalf("step %d (%s) T=%g: τ scaled %v, raw %v", step, name, T, ta, tb)
			}
		}
	}
}
