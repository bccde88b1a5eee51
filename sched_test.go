package sched

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		in   *Instance
		want string
	}{
		{"identical", gen.Identical(rng, gen.Params{N: 8, M: 2, K: 2}), "ptas"},
		{"uniform", gen.Uniform(rng, gen.Params{N: 8, M: 2, K: 2}), "ptas"},
		{"restricted class-uniform", gen.RestrictedClassUniform(rng, gen.Params{N: 8, M: 2, K: 2}), "class-uniform-ra-2approx"},
		{"unrelated class-uniform", gen.UnrelatedClassUniform(rng, gen.Params{N: 8, M: 2, K: 2}), "class-uniform-pt-3approx"},
		{"unrelated", gen.Unrelated(rng, gen.Params{N: 8, M: 2, K: 2}), "randomized-rounding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(tc.in)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if len(res.Algorithm) < len(tc.want) || res.Algorithm[:len(tc.want)] != tc.want {
				t.Errorf("algorithm = %q, want prefix %q", res.Algorithm, tc.want)
			}
			if res.Schedule == nil || !res.Schedule.Complete() {
				t.Fatal("incomplete schedule")
			}
			if err := res.Schedule.Validate(tc.in); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}

// TestSpecialCasesReportLPIters: RA-2 and PT-3 solve one LP-RelaxedRA
// per guess, and Engine.Solve must report the simplex pivots summed over
// them, as the rounding does for its relaxation.
func TestSpecialCasesReportLPIters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eng, err := New(WithBoundCache(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo string
		in   *Instance
	}{
		{AlgoRA2, gen.RestrictedClassUniform(rng, gen.Params{N: 30, M: 5, K: 4})},
		{AlgoPT3, gen.UnrelatedClassUniform(rng, gen.Params{N: 30, M: 5, K: 4})},
	} {
		res, err := eng.Solve(context.Background(), tc.in, WithAlgorithm(tc.algo), WithoutWarmStart())
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		if res.LPIters <= 0 {
			t.Errorf("%s reported LPIters %d, want the pivots of its per-guess LPs", tc.algo, res.LPIters)
		}
	}
}

func TestSolveWithContextAndPortfolio(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := gen.Identical(rng, gen.Params{N: 12, M: 3, K: 2})

	res, err := SolveWithContext(context.Background(), in)
	if err != nil {
		t.Fatalf("SolveWithContext: %v", err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Errorf("Validate: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	pr, err := Portfolio(ctx, in)
	if err != nil {
		t.Fatalf("Portfolio: %v", err)
	}
	if len(pr.Outcomes) < 2 {
		t.Fatalf("portfolio raced %d solvers, want >= 2", len(pr.Outcomes))
	}
	for _, o := range pr.Outcomes {
		if o.Err == nil && o.Result.Makespan < pr.Best.Makespan-1e-9 {
			t.Errorf("member %s beat the reported best (%v < %v)", o.Solver, o.Result.Makespan, pr.Best.Makespan)
		}
	}
	if err := pr.Best.Schedule.Validate(in); err != nil {
		t.Errorf("portfolio best invalid: %v", err)
	}
	if len(Solvers()) < 5 {
		t.Errorf("registry lists %d solvers, want the full paper set", len(Solvers()))
	}
}

func TestPublicConstructorsAndSolvers(t *testing.T) {
	in, err := NewIdentical([]float64{4, 3, 2, 2}, []int{0, 0, 1, 1}, []float64{2, 3}, 2)
	if err != nil {
		t.Fatalf("NewIdentical: %v", err)
	}
	lpt, err := LPT(in)
	if err != nil {
		t.Fatalf("LPT: %v", err)
	}
	gr, err := Greedy(in)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	opt, proven, err := Optimal(in, 0)
	if err != nil || !proven {
		t.Fatalf("Optimal: %v (proven=%v)", err, proven)
	}
	for _, r := range []Result{lpt, gr} {
		if r.Makespan < opt.Makespan-1e-9 {
			t.Errorf("%s makespan %v below optimum %v", r.Algorithm, r.Makespan, opt.Makespan)
		}
	}
	res, err := PTAS(in, 0.25)
	if err != nil {
		t.Fatalf("PTAS: %v", err)
	}
	if res.Makespan < opt.Makespan-1e-9 {
		t.Errorf("PTAS makespan %v below optimum %v", res.Makespan, opt.Makespan)
	}
}

func TestRandomizedRoundingPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := gen.Unrelated(rng, gen.Params{N: 10, M: 3, K: 2})
	res, err := RandomizedRounding(in, rng)
	if err != nil {
		t.Fatalf("RandomizedRounding: %v", err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if res.LowerBound <= 0 || res.Makespan < res.LowerBound-1e-9 {
		t.Errorf("inconsistent bounds: makespan=%v lb=%v", res.Makespan, res.LowerBound)
	}
}

func TestReadInstanceRoundTrip(t *testing.T) {
	in, err := NewUniform([]float64{5, 6}, []int{0, 1}, []float64{1, 2}, []float64{1, 2})
	if err != nil {
		t.Fatalf("NewUniform: %v", err)
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out, err := ReadInstance(&buf)
	if err != nil {
		t.Fatalf("ReadInstance: %v", err)
	}
	if out.N != 2 || out.Kind != Uniform {
		t.Errorf("round trip lost data: %v", out)
	}
}

func TestOptimalRejectsLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := gen.Identical(rng, gen.Params{N: 40, M: 3, K: 2})
	if _, _, err := Optimal(in, 0); err == nil {
		t.Error("Optimal accepted a 40-job instance under the default guard")
	}
}

func TestLocalSearchPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := gen.Unrelated(rng, gen.Params{N: 15, M: 3, K: 3})
	g, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	improved := LocalSearch(in, g.Schedule)
	if improved.Makespan(in) > g.Makespan+1e-9 {
		t.Error("LocalSearch worsened the schedule")
	}
	if err := improved.Validate(in); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSplittablePublic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := gen.UnrelatedClassUniform(rng, gen.Params{N: 10, M: 3, K: 3})
	split, ms, err := Splittable(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := split.Validate(in); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if ms <= 0 {
		t.Errorf("makespan = %v", ms)
	}
}

func TestIdenticalHeuristicsPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := gen.Identical(rng, gen.Params{N: 20, M: 4, K: 3})
	for _, f := range []func(*Instance) (Result, error){NextFitBatch, SplitBigClasses} {
		res, err := f(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in); err != nil {
			t.Errorf("%s: %v", res.Algorithm, err)
		}
	}
}

func TestBuildTimelinePublic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := gen.Identical(rng, gen.Params{N: 12, M: 3, K: 2})
	res, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := BuildTimeline(in, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != res.Makespan {
		t.Errorf("timeline makespan %v != schedule makespan %v", tl.Makespan, res.Makespan)
	}
	if len(tl.Gantt(60)) == 0 {
		t.Error("empty gantt")
	}
}

func TestFigure1Public(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := gen.Uniform(rng, gen.Params{N: 8, M: 3, K: 2})
	fig, err := Figure1(in, 1000, 0.5)
	if err != nil || len(fig) == 0 {
		t.Errorf("Figure1: %v (len=%d)", err, len(fig))
	}
}
