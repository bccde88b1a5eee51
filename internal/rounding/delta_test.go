package rounding

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lp"
)

// randDeltaFor draws a random delta valid on in (it retries shapes Apply
// rejects, e.g. removing the machine a restricted job needs).
func randDeltaFor(t *testing.T, rng *rand.Rand, in *core.Instance) (core.Delta, *core.Instance) {
	t.Helper()
	for tries := 0; ; tries++ {
		if tries > 200 {
			t.Fatal("no valid delta found")
		}
		var d core.Delta
		switch rng.Intn(5) {
		case 0: // arrive
			d = core.Delta{Kind: core.DeltaJobArrive, Class: rng.Intn(in.K)}
			if in.Kind == core.Unrelated {
				d.Proc = make([]float64, in.M)
				for i := range d.Proc {
					d.Proc[i] = 1 + float64(rng.Intn(40))
				}
			} else {
				d.Size = 1 + float64(rng.Intn(40))
				if in.Kind == core.RestrictedAssignment {
					for i := 0; i < in.M; i++ {
						if rng.Float64() < 0.6 {
							d.Eligible = append(d.Eligible, i)
						}
					}
					if len(d.Eligible) == 0 {
						d.Eligible = []int{rng.Intn(in.M)}
					}
				}
			}
		case 1: // depart
			if in.N <= 2 {
				continue
			}
			d = core.DepartJob(rng.Intn(in.N))
		case 2: // resize
			d = core.Delta{Kind: core.DeltaJobResize, Job: rng.Intn(in.N)}
			if in.Kind == core.Unrelated {
				d.Proc = make([]float64, in.M)
				for i := range d.Proc {
					d.Proc[i] = 1 + float64(rng.Intn(40))
				}
			} else {
				d.Size = 1 + float64(rng.Intn(40))
			}
		case 3: // machine add
			d = core.Delta{Kind: core.DeltaMachineAdd}
			switch in.Kind {
			case core.Uniform:
				d.Speed = 1 + rng.Float64()*3
			case core.Unrelated:
				d.Proc = make([]float64, in.N)
				for j := range d.Proc {
					d.Proc[j] = 1 + float64(rng.Intn(40))
				}
				d.Setup = make([]float64, in.K)
				for c := range d.Setup {
					d.Setup[c] = 1 + float64(rng.Intn(20))
				}
			case core.RestrictedAssignment:
				for j := 0; j < in.N; j++ {
					if rng.Float64() < 0.5 {
						d.Eligible = append(d.Eligible, j)
					}
				}
				if len(d.Eligible) == 0 {
					d.Eligible = []int{rng.Intn(in.N)}
				}
			}
		default: // machine remove
			if in.M <= 2 {
				continue
			}
			d = core.RemoveMachine(rng.Intn(in.M))
		}
		next, err := d.Apply(in)
		if err != nil {
			continue
		}
		return d, next
	}
}

// reRelax replaces rel with a cold relaxation on in at the same envelope —
// the fallback rung of the engine's re-solve pipeline.
func reRelax(t *testing.T, in *core.Instance, env float64, kind lp.BackendKind) *Relaxation {
	t.Helper()
	rel, err := NewRelaxation(in, RelaxationConfig{Envelope: env, Backend: kind})
	if err != nil {
		t.Fatalf("cold fallback relaxation: %v", err)
	}
	return rel
}

// TestApplyDeltaMatchesFreshRelaxation drives a patched relaxation through
// random delta chains and asserts, at every step and for a grid of guesses,
// that its feasibility verdicts match a relaxation built cold on the
// post-delta instance at the same envelope — the correctness contract of
// the whole incremental re-solve pipeline. Fractional solutions of feasible
// guesses are additionally checked against the LP rows.
func TestApplyDeltaMatchesFreshRelaxation(t *testing.T) {
	kinds := []struct {
		name string
		make func(rng *rand.Rand) *core.Instance
	}{
		{"unrelated", func(rng *rand.Rand) *core.Instance {
			return gen.Unrelated(rng, gen.Params{N: 8 + rng.Intn(8), M: 3, K: 3})
		}},
		{"restricted", func(rng *rand.Rand) *core.Instance {
			return gen.Restricted(rng, gen.Params{N: 8 + rng.Intn(8), M: 3, K: 2})
		}},
		{"uniform", func(rng *rand.Rand) *core.Instance {
			return gen.Uniform(rng, gen.Params{N: 10, M: 3, K: 2})
		}},
	}
	for _, be := range []lp.BackendKind{lp.Dense, lp.Sparse} {
		for _, tc := range kinds {
			t.Run(string(be)+"/"+tc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(41))
				in := tc.make(rng)
				rel, err := NewRelaxation(in, RelaxationConfig{Backend: be})
				if err != nil {
					t.Fatal(err)
				}
				// Give the relaxation basis state to retain, like a finished
				// dual search would.
				if _, err := rel.ReSolve(rel.Envelope()); err != nil {
					t.Fatal(err)
				}
				patched, fallbacks := 0, 0
				for step := 0; step < 12; step++ {
					d, next := randDeltaFor(t, rng, in)
					if err := rel.ApplyDelta(d, next, rel.Envelope()); err != nil {
						fallbacks++
						rel = reRelax(t, next, rel.Envelope(), be)
					} else {
						patched++
					}
					fresh := reRelax(t, next, rel.Envelope(), be)
					for _, f := range []float64{0.35, 0.6, 0.8, 1.0} {
						T := rel.Envelope() * f
						pf, err := rel.ReSolve(T)
						if err != nil {
							t.Fatalf("step %d (%s): patched ReSolve(%g): %v", step, d, T, err)
						}
						ff, err := fresh.ReSolve(T)
						if err != nil {
							t.Fatalf("step %d (%s): fresh ReSolve(%g): %v", step, d, T, err)
						}
						if (pf == nil) != (ff == nil) {
							t.Fatalf("step %d (%s): verdicts diverge at T=%g: patched feasible=%v fresh feasible=%v",
								step, d, T, pf != nil, ff != nil)
						}
						if pf != nil {
							checkFractional(t, next, pf, T)
						}
					}
					in = next
				}
				if patched == 0 {
					t.Fatalf("every delta fell back cold (%d fallbacks) — patch path never exercised", fallbacks)
				}
				t.Logf("%s/%s: %d patched, %d cold fallbacks", be, tc.name, patched, fallbacks)
			})
		}
	}
}

// TestApplyDeltaRejectsUnsoundBrackets checks the guard rungs: a bracket
// above the envelope, an arriving job with no machine under the envelope,
// and removal that strands a job must all refuse to patch.
func TestApplyDeltaRejectsUnsoundBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := gen.Unrelated(rng, gen.Params{N: 6, M: 3, K: 2})
	rel, err := NewRelaxation(in, RelaxationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.ReSolve(rel.Envelope()); err != nil {
		t.Fatal(err)
	}
	d, next := randDeltaFor(t, rng, in)
	if err := rel.ApplyDelta(d, next, rel.Envelope()*2); err == nil {
		t.Fatal("bracket above the envelope accepted")
	}
	// An arriving job slower than the envelope everywhere cannot be
	// represented in the retained model.
	proc := make([]float64, in.M)
	for i := range proc {
		proc[i] = rel.Envelope() * 3
	}
	da := core.ArriveJobUnrelated(0, proc)
	na, err := da.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.ApplyDelta(da, na, rel.Envelope()); err == nil {
		t.Fatal("arrival with no machine at the envelope accepted")
	}
}

// TestApplyDeltaDeferredMaterialize checks the lazy rebuild: a growing
// patch leaves the backend unbuilt until the next ReSolve, which performs
// the rebuild.
func TestApplyDeltaDeferredMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := gen.Unrelated(rng, gen.Params{N: 8, M: 3, K: 2})
	rel, err := NewRelaxation(in, RelaxationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.ReSolve(rel.Envelope()); err != nil {
		t.Fatal(err)
	}
	d := core.ArriveJob(0, 5)
	if in.Kind == core.Unrelated {
		proc := make([]float64, in.M)
		for i := range proc {
			proc[i] = 3 + float64(rng.Intn(9))
		}
		d = core.ArriveJobUnrelated(1, proc)
	}
	next, err := d.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.ApplyDelta(d, next, rel.Envelope()); err != nil {
		t.Fatal(err)
	}
	if !rel.stale || rel.be != nil {
		t.Fatal("growing patch did not defer the backend rebuild")
	}
	f, err := rel.ReSolve(rel.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	if rel.stale || rel.be == nil {
		t.Fatal("ReSolve did not materialize the deferred rebuild")
	}
	if f == nil {
		t.Fatal("relaxation infeasible at the envelope after patch")
	}
}
