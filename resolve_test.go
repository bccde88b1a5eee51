package sched

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
)

// randDeltaSched draws a delta applicable to in (public-API mirror of the
// core test helper).
func randDeltaSched(rng *rand.Rand, in *Instance) Delta {
	for {
		switch rng.Intn(5) {
		case 0: // arrive
			if in.Kind.String() == "unrelated" {
				proc := make([]float64, in.M)
				for i := range proc {
					proc[i] = 1 + float64(rng.Intn(99))
				}
				return ArriveJobUnrelated(rng.Intn(in.K), proc)
			}
			d := ArriveJob(rng.Intn(in.K), 1+float64(rng.Intn(99)))
			if len(in.Eligible) > 0 {
				for i := 0; i < in.M; i++ {
					if rng.Float64() < 0.6 {
						d.Eligible = append(d.Eligible, i)
					}
				}
				if len(d.Eligible) == 0 {
					d.Eligible = []int{rng.Intn(in.M)}
				}
			}
			return d
		case 1: // depart
			if in.N > 2 {
				return DepartJob(rng.Intn(in.N))
			}
		case 2: // resize
			if in.Kind.String() == "unrelated" {
				d := Delta{Kind: DeltaJobResize, Job: rng.Intn(in.N)}
				d.Proc = make([]float64, in.M)
				for i := range d.Proc {
					d.Proc[i] = 1 + float64(rng.Intn(99))
				}
				return d
			}
			return ResizeJob(rng.Intn(in.N), 1+float64(rng.Intn(99)))
		case 3: // machine add
			d := Delta{Kind: DeltaMachineAdd}
			switch in.Kind.String() {
			case "unrelated":
				d.Proc = make([]float64, in.N)
				for j := range d.Proc {
					d.Proc[j] = 1 + float64(rng.Intn(99))
				}
				d.Setup = make([]float64, in.K)
				for c := range d.Setup {
					d.Setup[c] = 1 + float64(rng.Intn(49))
				}
			case "restricted":
				for j := 0; j < in.N; j++ {
					if rng.Float64() < 0.5 {
						d.Eligible = append(d.Eligible, j)
					}
				}
			}
			return d
		case 4: // machine remove
			if in.M > 2 {
				d := RemoveMachine(rng.Intn(in.M))
				if _, err := d.Apply(in); err == nil {
					return d
				}
			}
		}
	}
}

// TestResolveMatchesColdSolve is the differential corpus of the incremental
// pipeline: along random delta chains, every warm Resolve must agree with a
// cold Solve of the delta-applied instance — same fingerprint, a feasible
// schedule, cross-sound certified bounds (each run's lower bound must be a
// true bound on the optimum the other run's makespan witnesses), and
// makespans in the same approximation regime. Run under -race it also
// exercises the retention store's exclusive ownership.
func TestResolveMatchesColdSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow")
	}
	type mk struct {
		name string
		gen  func(*rand.Rand) *Instance
	}
	makers := []mk{
		{"unrelated", func(rng *rand.Rand) *Instance {
			return gen.Unrelated(rng, gen.Params{N: 14, M: 3, K: 3})
		}},
		{"restricted", func(rng *rand.Rand) *Instance {
			return gen.Restricted(rng, gen.Params{N: 14, M: 3, K: 3})
		}},
		{"sparse-setup", func(rng *rand.Rand) *Instance {
			return gen.Unrelated(rng, gen.SetupHeavy(12, 3, 4))
		}},
	}
	const backend = "sparse" // the LP backend every engine solve runs on
	for _, m := range makers {
		m := m
		t.Run(backend+"/"+m.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(len(backend) + len(m.name))))
			in := m.gen(rng)
			warmEng, err := New()
			if err != nil {
				t.Fatal(err)
			}
			coldEng, err := New(WithBoundCache(0))
			if err != nil {
				t.Fatal(err)
			}
			h, err := warmEng.Open(ctx, in)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for step := 0; step < 5; step++ {
				d := randDeltaSched(rng, h.Instance())
				newIn, err := d.Apply(h.Instance())
				if err != nil {
					t.Fatalf("step %d: Apply(%v): %v", step, d, err)
				}
				warm, err := warmEng.Resolve(ctx, h, d)
				if err != nil {
					t.Fatalf("step %d: Resolve(%v): %v", step, d, err)
				}
				cold, err := coldEng.Solve(ctx, newIn, WithoutWarmStart())
				if err != nil {
					t.Fatalf("step %d: cold Solve: %v", step, err)
				}

				// Fingerprint property: Resolve solved exactly the
				// instance a cold Apply produces.
				if warm.Fingerprint() != newIn.Fingerprint() {
					t.Fatalf("step %d: Resolve fingerprint %s != Apply fingerprint %s",
						step, warm.Fingerprint(), newIn.Fingerprint())
				}

				wr, cr := warm.Result(), cold
				if wr.Schedule == nil || wr.Schedule.Validate(newIn) != nil {
					t.Fatalf("step %d: warm schedule infeasible: %v", step, wr.Schedule.Validate(newIn))
				}
				if wr.Makespan != wr.Schedule.Makespan(newIn) {
					t.Fatalf("step %d: warm makespan %g not witnessed by its schedule (%g)",
						step, wr.Makespan, wr.Schedule.Makespan(newIn))
				}

				// Cross-soundness: each run's certified lower bound must
				// hold against the optimum the other run's feasible
				// schedule upper-bounds. A lower bound leaking across a
				// non-raising delta fails here.
				const eps = 1e-6
				if wr.LowerBound > cr.Makespan+eps {
					t.Fatalf("step %d (%v): warm lower bound %g exceeds cold makespan %g — unsound transfer",
						step, d, wr.LowerBound, cr.Makespan)
				}
				if cr.LowerBound > wr.Makespan+eps {
					t.Fatalf("step %d (%v): cold lower bound %g exceeds warm makespan %g",
						step, d, cr.LowerBound, wr.Makespan)
				}

				// Same approximation regime: warm re-solving must not
				// degrade quality (both runs carry the same guarantees).
				if wr.Makespan > 2*cr.Makespan+eps || cr.Makespan > 2*wr.Makespan+eps {
					t.Fatalf("step %d (%v): warm %g vs cold %g diverge beyond the approximation regime",
						step, d, wr.Makespan, cr.Makespan)
				}
				h = warm
			}
		})
	}
}

// TestResolveLowerBoundSound checks the rounding solver's certified lower
// bound against the branch-and-bound optimum along Open→Resolve chains of
// small unrelated and restricted-assignment instances (n ≤ 10), where the
// seed solve on the retained relaxation sets the bound on every warm step.
func TestResolveLowerBoundSound(t *testing.T) {
	makers := map[string]func(*rand.Rand) *Instance{
		"unrelated":  func(rng *rand.Rand) *Instance { return gen.Unrelated(rng, gen.Params{N: 8, M: 3, K: 3}) },
		"restricted": func(rng *rand.Rand) *Instance { return gen.Restricted(rng, gen.Params{N: 8, M: 3, K: 3}) },
	}
	for name, mk := range makers {
		for seed := int64(0); seed < 4; seed++ {
			ctx := context.Background()
			rng := rand.New(rand.NewSource(seed))
			eng, err := New()
			if err != nil {
				t.Fatal(err)
			}
			opts := []SolveOption{WithAlgorithm(AlgoRounding), WithSeed(seed)}
			h, err := eng.Open(ctx, mk(rng), opts...)
			if err != nil {
				t.Fatalf("%s/%d: Open: %v", name, seed, err)
			}
			for step := 0; ; step++ {
				in := h.Instance()
				_, opt, st := exact.BranchAndBound(ctx, in, exact.Options{})
				if !st.Proven {
					t.Fatalf("%s/%d step %d: branch-and-bound did not prove optimality (%v)", name, seed, step, st.Reason)
				}
				if lb := h.Result().LowerBound; lb > opt+1e-9 {
					t.Fatalf("%s/%d step %d: LowerBound %v exceeds the optimum %v", name, seed, step, lb, opt)
				}
				if step == 5 {
					break
				}
				d := randDeltaSched(rng, in)
				for next, err := d.Apply(in); err != nil || next.N > 10; next, err = d.Apply(in) {
					d = randDeltaSched(rng, in)
				}
				if h, err = eng.Resolve(ctx, h, d, opts...); err != nil {
					t.Fatalf("%s/%d step %d: Resolve(%v): %v", name, seed, step, d, err)
				}
			}
		}
	}
}

// TestResolveHandleContracts covers the handle API edges: nil handles,
// cross-engine handles, inapplicable deltas.
func TestResolveHandleContracts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	in := gen.Unrelated(rng, gen.Params{N: 8, M: 2, K: 2})
	e1, _ := New()
	e2, _ := New()
	if _, err := e1.Resolve(ctx, nil, DepartJob(0)); err == nil {
		t.Error("nil handle accepted")
	}
	if _, err := e1.Open(ctx, nil); err == nil {
		t.Error("nil instance accepted")
	}
	h, err := e1.Open(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Resolve(ctx, h, DepartJob(0)); err == nil {
		t.Error("cross-engine handle accepted")
	}
	if _, err := e1.Resolve(ctx, h, DepartJob(999)); err == nil {
		t.Error("inapplicable delta accepted")
	}
	// The failed delta must not have consumed the handle's usability.
	next, err := e1.Resolve(ctx, h, DepartJob(0))
	if err != nil {
		t.Fatalf("Resolve after failed delta: %v", err)
	}
	if next.Instance().N != in.N-1 {
		t.Fatalf("post-departure N = %d, want %d", next.Instance().N, in.N-1)
	}
}

// TestStreamFoldsDeltas runs the Stream convenience over a small event
// sequence and checks per-event accounting.
func TestStreamFoldsDeltas(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	in := gen.Unrelated(rng, gen.Params{N: 10, M: 3, K: 2})
	deltas := []Delta{
		ArriveJobUnrelated(0, []float64{5, 7, 9}),
		DepartJob(2),
		DepartJob(999), // inapplicable: recorded, stream continues
		ArriveJobUnrelated(1, []float64{3, 4, 5}),
	}
	e, _ := New()
	h, events, err := e.Stream(ctx, in, deltas)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if len(events) != len(deltas) {
		t.Fatalf("got %d events, want %d", len(events), len(deltas))
	}
	for i, ev := range events {
		if i == 2 {
			if ev.Err == nil {
				t.Error("inapplicable delta did not record an error")
			}
			continue
		}
		if ev.Err != nil {
			t.Fatalf("event %d: %v", i, ev.Err)
		}
		if ev.Result.Schedule == nil {
			t.Fatalf("event %d: no schedule", i)
		}
		if ev.Latency <= 0 {
			t.Errorf("event %d: non-positive latency", i)
		}
	}
	// N: 10 +1 -1 (skip) +1 = 11
	if h.Instance().N != 11 {
		t.Fatalf("final N = %d, want 11", h.Instance().N)
	}
	if err := h.Result().Schedule.Validate(h.Instance()); err != nil {
		t.Fatalf("final schedule invalid: %v", err)
	}
}
