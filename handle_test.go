package sched

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

func TestEngineFunctionalOptions(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	in := gen.Identical(rng, gen.Params{N: 10, M: 3, K: 2})

	auto, err := eng.Solve(context.Background(), in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !strings.HasPrefix(auto.Algorithm, "ptas") {
		t.Errorf("auto dispatch chose %q, want the PTAS", auto.Algorithm)
	}
	if err := auto.Schedule.Validate(in); err != nil {
		t.Errorf("Validate: %v", err)
	}

	named, err := eng.Solve(context.Background(), in, WithAlgorithm("lpt"), WithoutWarmStart())
	if err != nil {
		t.Fatalf("Solve(lpt): %v", err)
	}
	if named.Algorithm != "lpt" {
		t.Errorf("named dispatch ran %q, want lpt", named.Algorithm)
	}

	if _, err := eng.Solve(context.Background(), in, WithAlgorithm("no-such-solver")); err == nil {
		t.Error("unknown WithAlgorithm name did not error")
	}
}

func TestEngineWithSolversSubset(t *testing.T) {
	eng, err := New(WithSolvers("lpt", "greedy"))
	if err != nil {
		t.Fatalf("New(WithSolvers): %v", err)
	}
	if got := eng.Solvers(); len(got) != 2 {
		t.Fatalf("Solvers() = %v, want two", got)
	}
	rng := rand.New(rand.NewSource(2))
	in := gen.Identical(rng, gen.Params{N: 10, M: 3, K: 2})
	res, err := eng.Solve(context.Background(), in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Algorithm != "lpt" {
		t.Errorf("heuristics-only engine chose %q, want lpt (the stronger of the pair)", res.Algorithm)
	}
	if names := eng.Applicable(in); len(names) != 2 || names[0] != "lpt" {
		t.Errorf("Applicable = %v, want [lpt greedy]", names)
	}

	if _, err := New(WithSolvers("nope")); err == nil {
		t.Error("unknown solver name in WithSolvers did not error")
	}
	if _, err := New(WithWorkers(0)); err == nil {
		t.Error("WithWorkers(0) did not error")
	}
}

func TestEngineWithDefaults(t *testing.T) {
	eng, err := New(WithDefaults(WithAlgorithm("greedy"), WithoutWarmStart()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	in := gen.Identical(rng, gen.Params{N: 10, M: 3, K: 2})
	res, err := eng.Solve(context.Background(), in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Algorithm != "greedy" {
		t.Errorf("engine default WithAlgorithm ignored: got %q", res.Algorithm)
	}
	// Per-call options override the engine defaults.
	res, err = eng.Solve(context.Background(), in, WithAlgorithm("lpt"))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Algorithm != "lpt" {
		t.Errorf("per-call option did not override default: got %q", res.Algorithm)
	}
}

// TestWarmStartReducesBranchAndBoundNodes is the warm-start regression
// test: the second solve of a fingerprint-identical instance must prime
// the branch-and-bound from the cached bounds and therefore expand strictly
// fewer nodes, while returning a schedule no worse than the first solve's.
func TestWarmStartReducesBranchAndBoundNodes(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	in := gen.Uniform(rng, gen.Params{N: 12, M: 3, K: 3})
	ctx := context.Background()

	first, err := eng.Solve(ctx, in, WithAlgorithm("branch-and-bound"))
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if eng.CachedFingerprints() != 1 {
		t.Fatalf("cache holds %d fingerprints after first solve, want 1", eng.CachedFingerprints())
	}

	second, err := eng.Solve(ctx, in.Clone(), WithAlgorithm("branch-and-bound"))
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if second.Nodes >= first.Nodes {
		t.Errorf("warm-started solve expanded %d nodes, want fewer than the cold solve's %d",
			second.Nodes, first.Nodes)
	}
	if second.Makespan > first.Makespan+1e-9 {
		t.Errorf("warm-started makespan %v worse than first solve's %v", second.Makespan, first.Makespan)
	}
	if err := second.Schedule.Validate(in); err != nil {
		t.Errorf("warm-started schedule invalid: %v", err)
	}
	// The first solve proved optimality, so the warm-started result must
	// carry the matching certified bound.
	if second.LowerBound < second.Makespan-1e-9 {
		t.Errorf("warm-started solve lost the certified bound: lb=%v ms=%v",
			second.LowerBound, second.Makespan)
	}

	// A cold solve of the same instance ignores the cache again.
	cold, err := eng.Solve(ctx, in.Clone(), WithAlgorithm("branch-and-bound"), WithoutWarmStart())
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if cold.Nodes != first.Nodes {
		t.Errorf("WithoutWarmStart solve expanded %d nodes, want the cold count %d", cold.Nodes, first.Nodes)
	}
}

func TestSolveBatchMixedKinds(t *testing.T) {
	eng, err := New(WithWorkers(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	ins := []*Instance{
		gen.Identical(rng, gen.Params{N: 10, M: 3, K: 2}),
		gen.Uniform(rng, gen.Params{N: 10, M: 3, K: 2}),
		gen.Unrelated(rng, gen.Params{N: 10, M: 3, K: 2}),
		nil, // per-instance error, must not sink the batch
		gen.RestrictedClassUniform(rng, gen.Params{N: 10, M: 3, K: 2}),
	}
	out := eng.SolveBatch(context.Background(), ins)
	if len(out) != len(ins) {
		t.Fatalf("batch returned %d results for %d instances", len(out), len(ins))
	}
	for i, br := range out {
		if ins[i] == nil {
			if br.Err == nil {
				t.Errorf("nil instance %d did not error", i)
			}
			continue
		}
		if br.Err != nil {
			t.Errorf("instance %d: %v", i, br.Err)
			continue
		}
		if br.Instance != ins[i] {
			t.Errorf("result %d not index-aligned", i)
		}
		if err := br.Result.Schedule.Validate(ins[i]); err != nil {
			t.Errorf("instance %d schedule invalid: %v", i, err)
		}
		if br.Elapsed <= 0 {
			t.Errorf("instance %d reports non-positive elapsed %v", i, br.Elapsed)
		}
	}
}

// TestSolveBatchSharedCache exercises many concurrent workers solving
// fingerprint-identical instances against one shared bound cache (run under
// -race in CI).
func TestSolveBatchSharedCache(t *testing.T) {
	eng, err := New(WithWorkers(8))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	base := gen.Uniform(rng, gen.Params{N: 12, M: 3, K: 3})
	other := gen.Identical(rng, gen.Params{N: 12, M: 3, K: 2})
	ins := make([]*Instance, 0, 24)
	for i := 0; i < 12; i++ {
		ins = append(ins, base.Clone(), other.Clone())
	}
	out := eng.SolveBatch(context.Background(), ins)
	var wantBase, wantOther float64
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("instance %d: %v", i, br.Err)
		}
		if err := br.Result.Schedule.Validate(ins[i]); err != nil {
			t.Fatalf("instance %d schedule invalid: %v", i, err)
		}
		// All solves of one fingerprint must agree on the makespan: the
		// solver is deterministic and the cache substitution is monotone.
		want := &wantBase
		if i%2 == 1 {
			want = &wantOther
		}
		if *want == 0 {
			*want = br.Result.Makespan
		} else if br.Result.Makespan > *want+1e-9 || br.Result.Makespan < *want-1e-9 {
			t.Errorf("instance %d makespan %v, want %v", i, br.Result.Makespan, *want)
		}
	}
	if got := eng.CachedFingerprints(); got != 2 {
		t.Errorf("cache holds %d fingerprints, want 2", got)
	}
}

func TestSolveBatchPerRequestDeadline(t *testing.T) {
	eng, err := New(WithWorkers(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Each instance is far too large to solve exactly in 60ms; the
	// per-request deadline must stop each search and surface best-so-far
	// schedules with explanatory notes rather than hanging the batch.
	rng := rand.New(rand.NewSource(6))
	ins := make([]*Instance, 3)
	for i := range ins {
		ins[i] = gen.Uniform(rng, gen.Params{N: 24, M: 4, K: 12, MinJob: 500, MaxJob: 1500})
	}
	start := time.Now()
	out := eng.SolveBatch(context.Background(), ins,
		WithAlgorithm("branch-and-bound"), WithMaxJobs(24), WithTimeout(60*time.Millisecond))
	elapsed := time.Since(start)
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("instance %d: %v", i, br.Err)
		}
		if br.Result.Note == "" {
			t.Errorf("instance %d: deadline-bounded exact search reported no note", i)
		}
		if err := br.Result.Schedule.Validate(ins[i]); err != nil {
			t.Errorf("instance %d schedule invalid: %v", i, err)
		}
	}
	// Three 60ms requests on three workers plus slack; far below what the
	// searches would need to complete.
	if elapsed > 5*time.Second {
		t.Errorf("batch took %v despite per-request deadlines", elapsed)
	}
}

func TestSolveBatchCancelledContext(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(7))
	ins := []*Instance{
		gen.Identical(rng, gen.Params{N: 10, M: 3, K: 2}),
		gen.Identical(rng, gen.Params{N: 10, M: 3, K: 2}),
	}
	for i, br := range eng.SolveBatch(ctx, ins) {
		if br.Err == nil {
			t.Errorf("instance %d solved under a cancelled batch context", i)
		}
	}
}

// TestEventsConcurrentSubscribers runs concurrent solves against multiple
// engine-level subscribers plus a per-call channel (run under -race in CI).
func TestEventsConcurrentSubscribers(t *testing.T) {
	eng, err := New(WithWorkers(4))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sub1, cancel1 := eng.Events(1024)
	sub2, cancel2 := eng.Events(1024)
	defer cancel2()

	counts := make([]int, 2)
	var wg sync.WaitGroup
	for i, sub := range []<-chan Event{sub1, sub2} {
		wg.Add(1)
		go func(i int, sub <-chan Event) {
			defer wg.Done()
			for ev := range sub {
				if ev.Fingerprint == "" {
					t.Error("event without fingerprint")
				}
				counts[i]++
			}
		}(i, sub)
	}

	rng := rand.New(rand.NewSource(8))
	ins := make([]*Instance, 8)
	for i := range ins {
		ins[i] = gen.Uniform(rng, gen.Params{N: 12, M: 3, K: 3})
	}
	callCh := make(chan Event, 1024)
	out := eng.SolveBatch(context.Background(), ins, WithEvents(callCh))
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("instance %d: %v", i, br.Err)
		}
	}
	cancel1()
	cancel2()
	cancel1() // idempotent
	wg.Wait()

	for i, c := range counts {
		if c == 0 {
			t.Errorf("subscriber %d saw no events", i)
		}
	}
	if len(callCh) == 0 {
		t.Error("per-call WithEvents channel saw no events")
	}
	// Fingerprints on the call channel must belong to the batch.
	valid := map[string]bool{}
	for _, in := range ins {
		valid[in.Fingerprint()] = true
	}
	for len(callCh) > 0 {
		if ev := <-callCh; !valid[ev.Fingerprint] {
			t.Errorf("event carries unknown fingerprint %q", ev.Fingerprint)
		}
	}
}

func TestCompatWrappersRejectMultipleOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := gen.Identical(rng, gen.Params{N: 8, M: 2, K: 2})
	if _, err := SolveWithContext(context.Background(), in, SolveOptions{Eps: 0.5}, SolveOptions{Eps: 0.25}); err == nil {
		t.Error("SolveWithContext accepted two SolveOptions")
	}
	if _, err := Portfolio(context.Background(), in, SolveOptions{}, SolveOptions{}); err == nil {
		t.Error("Portfolio accepted two SolveOptions")
	}
	// One option still works.
	if _, err := SolveWithContext(context.Background(), in, SolveOptions{Eps: 0.5}); err != nil {
		t.Errorf("SolveWithContext with one option: %v", err)
	}
}

func TestEngineWithCustomRegistry(t *testing.T) {
	reg := NewDefaultRegistry()
	called := false
	err := reg.Register(NewSolver("always-zero", SolverCaps{
		Kinds:     []Kind{Identical, Uniform, RestrictedAssignment, Unrelated},
		Guarantee: "test stub",
		Priority:  1000,
	}, func(ctx context.Context, in *Instance, opt SolveOptions) (Result, error) {
		called = true
		g, err := Greedy(in)
		if err != nil {
			return Result{}, err
		}
		g.Algorithm = "always-zero"
		return g, nil
	}))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	eng, err := New(WithRegistry(reg))
	if err != nil {
		t.Fatalf("New(WithRegistry): %v", err)
	}
	rng := rand.New(rand.NewSource(10))
	in := gen.Identical(rng, gen.Params{N: 8, M: 2, K: 2})
	res, err := eng.Solve(context.Background(), in)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !called || res.Algorithm != "always-zero" {
		t.Errorf("custom top-priority solver not selected: algorithm=%q called=%v", res.Algorithm, called)
	}
}

// TestSolverPanicBecomesError: a solver that panics fails its solve with an
// error naming it instead of crashing the process, and the engine keeps
// serving afterwards.
func TestSolverPanicBecomesError(t *testing.T) {
	reg := NewDefaultRegistry()
	err := reg.Register(NewSolver("explodes", SolverCaps{
		Kinds:     []Kind{Identical, Uniform, RestrictedAssignment, Unrelated},
		Guarantee: "test stub",
		Priority:  1000,
	}, func(ctx context.Context, in *Instance, opt SolveOptions) (Result, error) {
		panic("boom")
	}))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	eng, err := New(WithRegistry(reg))
	if err != nil {
		t.Fatalf("New(WithRegistry): %v", err)
	}
	rng := rand.New(rand.NewSource(10))
	in := gen.Identical(rng, gen.Params{N: 8, M: 2, K: 2})
	_, err = eng.Solve(context.Background(), in)
	if err == nil || !strings.Contains(err.Error(), "engine: solver explodes panicked: boom") {
		t.Fatalf("Solve with a panicking solver: err = %v, want the panic as an error", err)
	}
	if _, err := eng.Solve(context.Background(), in, WithAlgorithm("greedy")); err != nil {
		t.Fatalf("Solve after the panic: %v", err)
	}
}

func TestPortfolioWarmStartMonotone(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	in := gen.Uniform(rng, gen.Params{N: 14, M: 3, K: 3})
	ctx := context.Background()
	first, err := eng.Portfolio(ctx, in)
	if err != nil {
		t.Fatalf("first portfolio: %v", err)
	}
	second, err := eng.Portfolio(ctx, in.Clone())
	if err != nil {
		t.Fatalf("second portfolio: %v", err)
	}
	if second.Best.Makespan > first.Best.Makespan+1e-9 {
		t.Errorf("warm-started portfolio regressed: %v > %v", second.Best.Makespan, first.Best.Makespan)
	}
	if err := second.Best.Schedule.Validate(in); err != nil {
		t.Errorf("warm-started portfolio schedule invalid: %v", err)
	}
	// When the warm-start substitution swapped in the cached schedule,
	// Winner must follow: it names whoever produced the returned Best, not
	// a raced member that was beaten by the cache.
	if strings.Contains(second.Best.Note, "warm start") && second.Winner != second.Best.Algorithm {
		t.Errorf("substituted Best came from %q but Winner says %q", second.Best.Algorithm, second.Winner)
	}
}
