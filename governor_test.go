package sched

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/testutil"
)

// TestGovernorBoundsLPConcurrency saturates every parallelism layer at once
// — a batch of instances, each solved as a portfolio race — and asserts from outside the engine
// (via the LP package's own concurrency gauge) that the number of
// simultaneously running LP solves never exceeded the governor budget. Run
// under -race this doubles as the data-race stress for the token plumbing.
func TestGovernorBoundsLPConcurrency(t *testing.T) {
	testutil.ForceParallel(t)
	const budget = 2
	eng, err := New(WithWorkers(budget), WithBoundCache(0))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	ins := make([]*Instance, 8)
	for i := range ins {
		ins[i] = gen.Unrelated(rng, gen.Params{N: 12, M: 3, K: 2})
	}
	lp.SolveGauge.Reset()
	res := eng.SolveBatch(context.Background(), ins,
		WithPortfolio(), WithSeed(5), WithoutWarmStart())
	for i, br := range res {
		if br.Err != nil {
			t.Fatalf("instance %d: %v", i, br.Err)
		}
		if err := br.Result.Schedule.Validate(ins[i]); err != nil {
			t.Errorf("instance %d: invalid schedule: %v", i, err)
		}
	}
	if peak := lp.SolveGauge.Peak(); peak > budget {
		t.Errorf("peak concurrent LP solves %d exceeds governor budget %d", peak, budget)
	}
	st := eng.GovernorStats()
	if st.Budget != budget {
		t.Errorf("GovernorStats.Budget = %d, want %d", st.Budget, budget)
	}
	if st.Peak > budget {
		t.Errorf("GovernorStats.Peak = %d exceeds budget %d", st.Peak, budget)
	}
	if st.InUse != 0 {
		t.Errorf("GovernorStats.InUse = %d after batch returned, want 0", st.InUse)
	}
	// 8 jobs × portfolio against 2 tokens must have had to degrade
	// somewhere; a zero count would mean the layers never consulted
	// the governor at all.
	if st.Degradations == 0 {
		t.Error("GovernorStats.Degradations = 0 with 8 portfolio races on 2 tokens")
	}
}

// TestGovernorBudgetOneNoDeadlock drives the full layering — batch ×
// portfolio — through a single-token governor. The
// acquire-or-degrade contract (blocking acquires only at admission, with no
// tokens held) means everything must serialize and finish; a watchdog turns
// a deadlock into a test failure rather than a suite timeout.
func TestGovernorBudgetOneNoDeadlock(t *testing.T) {
	testutil.ForceParallel(t)
	eng, err := New(WithWorkers(1), WithBoundCache(0))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(47))
	ins := make([]*Instance, 6)
	for i := range ins {
		ins[i] = gen.Unrelated(rng, gen.Params{N: 10, M: 3, K: 2})
	}
	lp.SolveGauge.Reset()
	var res []BatchResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = eng.SolveBatch(context.Background(), ins,
			WithPortfolio(), WithSeed(5), WithoutWarmStart())
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("governed batch deadlocked at budget 1")
	}
	for i, br := range res {
		if br.Err != nil {
			t.Fatalf("instance %d: %v", i, br.Err)
		}
	}
	if peak := lp.SolveGauge.Peak(); peak > 1 {
		t.Errorf("peak concurrent LP solves %d at budget 1, want 1", peak)
	}
}

// TestGovernorDegradationEquivalence pins the degradation ladder's floor:
// a governed engine starved to one token runs the registry solver's own
// sequential algorithm, so a seeded solve produces the identical makespan
// and simplex effort as calling the solver directly. Governed admission is
// a scheduling change, never an algorithmic one.
func TestGovernorDegradationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	in := gen.Unrelated(rng, gen.Params{N: 18, M: 4, K: 3})
	ctx := context.Background()

	gov, err := New(WithWorkers(1), WithBoundCache(0))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g, err := gov.Solve(ctx, in, WithAlgorithm(AlgoRounding), WithSeed(9), WithoutWarmStart())
	if err != nil {
		t.Fatalf("governed solve: %v", err)
	}
	solver, ok := engine.Default().Get(engine.NameRounding)
	if !ok {
		t.Fatal("rounding solver not registered")
	}
	// The engine hands every solve a bound bus; give the direct call one
	// too, so both searches see the same incumbent exchange.
	d, err := solver.Solve(ctx, in, engine.Options{Seed: 9, Bounds: engine.NewIncumbent()})
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	if g.Makespan != d.Makespan || g.LPIters != d.LPIters {
		t.Errorf("budget-1 governed solve diverged from the registry solver: makespan %v vs %v, lp-iters %d vs %d",
			g.Makespan, d.Makespan, g.LPIters, d.LPIters)
	}
}
