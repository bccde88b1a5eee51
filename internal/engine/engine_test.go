package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestRegistrySelectsDocumentedSolver pins the automatic dispatch table:
// the strongest applicable solver per machine environment and structure.
func TestRegistrySelectsDocumentedSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		in   *core.Instance
		want string
	}{
		{"identical", gen.Identical(rng, gen.Params{N: 20, M: 3, K: 2}), NamePTAS},
		{"uniform", gen.Uniform(rng, gen.Params{N: 20, M: 3, K: 2}), NamePTAS},
		{"restricted class-uniform", gen.RestrictedClassUniform(rng, gen.Params{N: 20, M: 3, K: 2}), NameRA2},
		{"restricted generic", gen.Restricted(rng, gen.Params{N: 20, M: 3, K: 2}), NameRounding},
		{"unrelated class-uniform", gen.UnrelatedClassUniform(rng, gen.Params{N: 20, M: 3, K: 2}), NamePT3},
		{"unrelated generic", gen.Unrelated(rng, gen.Params{N: 20, M: 3, K: 2}), NameRounding},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Default().Select(tc.in, Options{})
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			if s.Name() != tc.want {
				t.Errorf("selected %q, want %q", s.Name(), tc.want)
			}
		})
	}
}

// TestSelectIsFirstApplicable checks that Select, which stops at the first
// applicable solver, picks Applicable's strongest one on seeded instances
// of every machine environment, generic and class-uniform, with and
// without a job-count guard that admits the exact solver.
func TestSelectIsFirstApplicable(t *testing.T) {
	makers := map[string]func(*rand.Rand, gen.Params) *core.Instance{
		"identical":                gen.Identical,
		"uniform":                  gen.Uniform,
		"restricted":               gen.Restricted,
		"restricted class-uniform": gen.RestrictedClassUniform,
		"unrelated":                gen.Unrelated,
		"unrelated class-uniform":  gen.UnrelatedClassUniform,
	}
	reg := Default()
	for name, mk := range makers {
		for seed := int64(1); seed <= 5; seed++ {
			in := mk(rand.New(rand.NewSource(seed)), gen.Params{N: 4 + 4*int(seed), M: 3, K: 2})
			for _, opt := range []Options{{}, {MaxJobs: 64}} {
				s, err := reg.Select(in, opt)
				if err != nil {
					t.Fatalf("%s/%d: Select: %v", name, seed, err)
				}
				if want := reg.Applicable(in, opt)[0]; s != want {
					t.Errorf("%s/%d (MaxJobs %d): Select picked %q, Applicable leads with %q", name, seed, opt.MaxJobs, s.Name(), want.Name())
				}
			}
		}
	}
}

// TestApplicableCapabilityMatching checks kind, structure and size guards.
func TestApplicableCapabilityMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small := gen.Identical(rng, gen.Params{N: 10, M: 2, K: 2})
	large := gen.Identical(rng, gen.Params{N: 40, M: 4, K: 3})

	has := func(ss []Solver, name string) bool {
		for _, s := range ss {
			if s.Name() == name {
				return true
			}
		}
		return false
	}

	smallApp := Default().Applicable(small, Options{})
	if !has(smallApp, NameExact) {
		t.Error("exact solver missing for a 10-job instance")
	}
	if has(smallApp, NameRounding) {
		t.Error("rounding offered for identical machines")
	}
	largeApp := Default().Applicable(large, Options{})
	if has(largeApp, NameExact) {
		t.Error("exact solver offered beyond its job guard")
	}
	if !has(Default().Applicable(large, Options{MaxJobs: 64}), NameExact) {
		t.Error("MaxJobs override did not widen the exact solver's guard")
	}
	// Every environment must field at least two solvers so a portfolio can
	// race.
	for _, in := range []*core.Instance{
		small, large,
		gen.Uniform(rng, gen.Params{N: 20, M: 3, K: 2}),
		gen.Restricted(rng, gen.Params{N: 20, M: 3, K: 2}),
		gen.RestrictedClassUniform(rng, gen.Params{N: 20, M: 3, K: 2}),
		gen.Unrelated(rng, gen.Params{N: 20, M: 3, K: 2}),
		gen.UnrelatedClassUniform(rng, gen.Params{N: 20, M: 3, K: 2}),
	} {
		if app := Default().Applicable(in, Options{}); len(app) < 2 {
			t.Errorf("%v: only %d applicable solvers, want >= 2", in, len(app))
		}
	}
	// Applicable must come back strongest-first.
	if smallApp[0].Name() != NamePTAS {
		t.Errorf("strongest solver for identical is %q, want %q", smallApp[0].Name(), NamePTAS)
	}
}

func TestRegistryRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	s := NewSolver("stub", Caps{Kinds: allKinds}, func(ctx context.Context, in *core.Instance, opt Options) (core.Result, error) {
		return core.Result{}, nil
	})
	if err := r.Register(s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(s); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, ok := r.Get("stub"); !ok {
		t.Error("Get failed for registered solver")
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get succeeded for unknown solver")
	}
	rng := rand.New(rand.NewSource(3))
	in := gen.Unrelated(rng, gen.Params{N: 8, M: 2, K: 2})
	if _, err := NewRegistry().Solve(context.Background(), in, Options{}); err == nil {
		t.Error("empty registry solved an instance")
	}
}

// TestPortfolioReturnsMinimum verifies that the portfolio's best result is
// the minimum makespan over its members and that per-solver outcomes are
// reported.
func TestPortfolioReturnsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, in := range []*core.Instance{
		gen.Identical(rng, gen.Params{N: 14, M: 3, K: 3}),
		gen.Unrelated(rng, gen.Params{N: 14, M: 3, K: 3}),
	} {
		pr, err := Portfolio(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("Portfolio(%v): %v", in, err)
		}
		if len(pr.Outcomes) < 2 {
			t.Fatalf("portfolio raced %d solvers, want >= 2", len(pr.Outcomes))
		}
		best := math.Inf(1)
		for _, o := range pr.Outcomes {
			if o.Err != nil {
				t.Errorf("solver %s failed: %v", o.Solver, o.Err)
				continue
			}
			if o.Result.Makespan < best {
				best = o.Result.Makespan
			}
		}
		if math.Abs(pr.Best.Makespan-best) > core.Eps {
			t.Errorf("portfolio best %v != member minimum %v", pr.Best.Makespan, best)
		}
		if pr.Winner == "" {
			t.Error("no winner reported")
		}
		if err := pr.Best.Schedule.Validate(in); err != nil {
			t.Errorf("winner schedule invalid: %v", err)
		}
		// A clean portfolio run must not flag itself as degraded: Note is
		// reserved for early-stop/guard causes (core.Result contract).
		if pr.Best.Note != "" {
			t.Errorf("Note = %q on a clean run, want empty", pr.Best.Note)
		}
	}
}

// TestSolveNamedHonorsLocalSearch: named dispatch must run the same
// post-pass as automatic dispatch.
func TestSolveNamedHonorsLocalSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := gen.Unrelated(rng, gen.Params{N: 30, M: 4, K: 3})
	plain, err := Default().SolveNamed(context.Background(), NameGreedy, in, Options{})
	if err != nil {
		t.Fatalf("SolveNamed: %v", err)
	}
	ls, err := Default().SolveNamed(context.Background(), NameGreedy, in, Options{LocalSearch: true})
	if err != nil {
		t.Fatalf("SolveNamed(LocalSearch): %v", err)
	}
	if ls.Makespan > plain.Makespan+core.Eps {
		t.Errorf("local search worsened makespan: %v > %v", ls.Makespan, plain.Makespan)
	}
	if ls.Makespan < plain.Makespan-core.Eps && !strings.HasSuffix(ls.Algorithm, "+ls") {
		t.Errorf("improved result not labeled: %q", ls.Algorithm)
	}
	if _, err := Default().SolveNamed(context.Background(), "nope", in, Options{}); err == nil {
		t.Error("SolveNamed accepted an unknown solver")
	}
}

// TestSolveNamedRejectsInapplicable: a named solver whose capabilities do
// not match the instance is not run, and the error says so through
// ErrNotApplicable — environment, structure and size guard alike.
func TestSolveNamedRejectsInapplicable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	unrelated := gen.Unrelated(rng, gen.Params{N: 30, M: 4, K: 3})
	for _, tc := range []struct {
		name string
		in   *core.Instance
		opt  Options
	}{
		{NameLPT, unrelated, Options{}},
		{NamePTAS, unrelated, Options{}},
		{NameRA2, unrelated, Options{}},
		{NameExact, gen.Identical(rng, gen.Params{N: 40, M: 3, K: 2}), Options{}},
		{NameExact, gen.Identical(rng, gen.Params{N: 12, M: 3, K: 2}), Options{MaxJobs: 8}},
	} {
		_, err := Default().SolveNamed(context.Background(), tc.name, tc.in, tc.opt)
		if !errors.Is(err, ErrNotApplicable) {
			t.Errorf("%s on %v (n=%d, MaxJobs=%d): err = %v, want ErrNotApplicable", tc.name, tc.in.Kind, tc.in.N, tc.opt.MaxJobs, err)
		}
	}
}

// TestMaxJobsGuardSemantics: opt.MaxJobs replaces the exact solver's guard
// in both directions, so capability matching agrees with the solver.
func TestMaxJobsGuardSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := gen.Identical(rng, gen.Params{N: 12, M: 3, K: 2})
	has := func(ss []Solver, name string) bool {
		for _, s := range ss {
			if s.Name() == name {
				return true
			}
		}
		return false
	}
	if has(Default().Applicable(in, Options{MaxJobs: 8}), NameExact) {
		t.Error("exact solver offered with a guard below the instance size")
	}
	if !has(Default().Applicable(in, Options{MaxJobs: 12}), NameExact) {
		t.Error("exact solver missing with a guard equal to the instance size")
	}
}

// hardExactInstance needs tens of millions of branch-and-bound nodes
// (measured: >2s and >29M nodes without cancellation on a dev machine).
func hardExactInstance() *core.Instance {
	rng := rand.New(rand.NewSource(9))
	return gen.Uniform(rng, gen.Params{N: 24, M: 4, K: 12, MinJob: 500, MaxJob: 1500, SpeedMax: 3})
}

// hardPTASInstance drives the PTAS dynamic program into hundreds of
// thousands of nodes per rejected guess (measured: >3s uncancelled).
func hardPTASInstance() *core.Instance {
	rng := rand.New(rand.NewSource(3))
	return gen.Uniform(rng, gen.Params{N: 30, M: 8, K: 3, SpeedMax: 1})
}

// TestCancellationStopsBranchAndBound proves a context deadline interrupts
// an in-flight exact search orders of magnitude before its uncancelled
// runtime.
func TestCancellationStopsBranchAndBound(t *testing.T) {
	in := hardExactInstance()
	solver, ok := Default().Get(NameExact)
	if !ok {
		t.Fatal("exact solver not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := solver.Solve(ctx, in, Options{MaxJobs: 30})
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled branch-and-bound ran %v, want well under its multi-second uncancelled runtime", elapsed)
	}
	if err == nil {
		if res.Note == "" || !strings.Contains(res.Note, "context cancelled") {
			t.Errorf("Note = %q, want cancellation cause", res.Note)
		}
		if verr := res.Schedule.Validate(in); verr != nil {
			t.Errorf("best-so-far schedule invalid: %v", verr)
		}
	}
}

// TestCancellationStopsPTAS proves a context deadline interrupts the PTAS
// dual search and its in-flight DP node expansion.
func TestCancellationStopsPTAS(t *testing.T) {
	in := hardPTASInstance()
	solver, ok := Default().Get(NamePTAS)
	if !ok {
		t.Fatal("ptas solver not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := solver.Solve(ctx, in, Options{Eps: 0.125, NodeCap: 1 << 40})
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled PTAS ran %v, want well under its multi-second uncancelled runtime", elapsed)
	}
	if err != nil {
		t.Fatalf("cancelled PTAS errored instead of returning best-so-far: %v", err)
	}
	if res.Schedule == nil {
		t.Fatal("cancelled PTAS returned no schedule (LPT bootstrap expected)")
	}
	if verr := res.Schedule.Validate(in); verr != nil {
		t.Errorf("best-so-far schedule invalid: %v", verr)
	}
	if !strings.Contains(res.Note, "stopped early") {
		t.Errorf("Note = %q, want early-stop cause", res.Note)
	}
}

// TestPortfolioUnderDeadline: the race as a whole respects the shared
// deadline and still produces a feasible best-effort schedule.
func TestPortfolioUnderDeadline(t *testing.T) {
	in := hardExactInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	pr, err := Portfolio(ctx, in, Options{MaxJobs: 30})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Portfolio: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("portfolio with 200ms deadline ran %v", elapsed)
	}
	if err := pr.Best.Schedule.Validate(in); err != nil {
		t.Errorf("best schedule invalid: %v", err)
	}
}

// TestNoteSurfacesGiveUpCause: the satellite requirement that node caps and
// size guards explain themselves through Result/err instead of failing
// silently.
func TestNoteSurfacesGiveUpCause(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := gen.Unrelated(rng, gen.Params{N: 12, M: 4, K: 3})
	solver, _ := Default().Get(NameExact)
	res, err := solver.Solve(context.Background(), in, Options{NodeLimit: 50})
	if err == nil {
		if !strings.Contains(res.Note, "node limit") {
			t.Errorf("Note = %q, want node-limit cause", res.Note)
		}
	}

	big := gen.Identical(rng, gen.Params{N: 40, M: 3, K: 2})
	if _, err := solver.Solve(context.Background(), big, Options{}); err == nil {
		t.Error("exact solver accepted an oversized instance without erroring")
	} else if !strings.Contains(err.Error(), "job guard") {
		t.Errorf("error %q does not name the size guard", err)
	}

	ptasSolver, _ := Default().Get(NamePTAS)
	res, err = ptasSolver.Solve(context.Background(), hardPTASInstance(), Options{Eps: 0.125, NodeCap: 2000})
	if err != nil {
		t.Fatalf("capped PTAS errored: %v", err)
	}
	if !strings.Contains(res.Note, "node cap") {
		t.Errorf("Note = %q, want node-cap cause", res.Note)
	}
}
