package rounding

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestSolveLPFeasibleAtOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 1 + rng.Intn(6), M: 1 + rng.Intn(3), K: 1 + rng.Intn(2)}
		in := gen.Unrelated(rng, p)
		_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
		proven := bst.Proven
		if !proven || opt <= 0 {
			return true
		}
		// The LP must be feasible at T = Opt (the integral optimum is a
		// fractional solution) …
		f, err := SolveLP(in, opt)
		if err != nil || f == nil {
			return false
		}
		// … and its solution must satisfy the LP rows.
		for i := 0; i < in.M; i++ {
			load := 0.0
			for j := 0; j < in.N; j++ {
				load += f.X[i][j] * in.P[i][j]
				if f.X[i][j] > f.Y[i][in.Class[j]]+1e-6 {
					return false // (4) violated
				}
			}
			for k := 0; k < in.K; k++ {
				if f.Y[i][k] > 0 {
					load += f.Y[i][k] * in.S[i][k]
				}
			}
			if load > opt+1e-6 {
				return false // (1) violated
			}
		}
		for j := 0; j < in.N; j++ {
			sum := 0.0
			for i := 0; i < in.M; i++ {
				sum += f.X[i][j]
			}
			if math.Abs(sum-1) > 1e-6 {
				return false // (2) violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolveLPInfeasibleBelowVolumeBound(t *testing.T) {
	// Single machine: T below total load is infeasible.
	in, err := core.NewUnrelated(
		[][]float64{{5, 5}},
		[]int{0, 0},
		[][]float64{{2}},
	)
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	f, err := SolveLP(in, 11) // needs 5+5+2 = 12
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if f != nil {
		t.Error("LP feasible at T=11, want infeasible (load 12 required)")
	}
	f, err = SolveLP(in, 12)
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if f == nil {
		t.Error("LP infeasible at T=12, want feasible")
	}
}

func TestSolveLPRespectsConstraint5(t *testing.T) {
	// Job 0 takes 10 on machine 0 and 3 on machine 1; at T=5 constraint (5)
	// forbids machine 0.
	in, err := core.NewUnrelated(
		[][]float64{{10}, {3}},
		[]int{0},
		[][]float64{{1}, {1}},
	)
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	f, err := SolveLP(in, 5)
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if f == nil {
		t.Fatal("LP infeasible, want feasible via machine 1")
	}
	if f.X[0][0] > 1e-9 {
		t.Errorf("x[0][0] = %v, want 0 (p > T)", f.X[0][0])
	}
	if math.Abs(f.X[1][0]-1) > 1e-6 {
		t.Errorf("x[1][0] = %v, want 1", f.X[1][0])
	}
}

func TestRoundProducesCompleteFeasibleSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 1 + rng.Intn(15), M: 1 + rng.Intn(4), K: 1 + rng.Intn(3)}
		in := gen.Unrelated(rng, p)
		// Use a generous T so the LP is surely feasible.
		T := 0.0
		for j := 0; j < in.N; j++ {
			worstBest := math.Inf(1)
			for i := 0; i < in.M; i++ {
				if v := in.P[i][j] + in.S[i][in.Class[j]]; v < worstBest {
					worstBest = v
				}
			}
			T += worstBest
		}
		if T == 0 {
			T = 1
		}
		frac, err := SolveLP(in, T)
		if err != nil || frac == nil {
			return false
		}
		sched, stats := Round(context.Background(), in, frac, 3, rng)
		if stats.Iterations < 1 {
			return false
		}
		return sched.Complete() && sched.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRoundIntegralLPIsExact(t *testing.T) {
	// When the LP solution is integral, rounding must reproduce it exactly
	// (probabilities are 0/1).
	in, err := core.NewUnrelated(
		[][]float64{{1, 100}, {100, 1}},
		[]int{0, 1},
		[][]float64{{1, 100}, {100, 1}},
	)
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	frac, err := SolveLP(in, 2)
	if err != nil || frac == nil {
		t.Fatalf("SolveLP: f=%v err=%v", frac, err)
	}
	sched, stats := Round(context.Background(), in, frac, 3, rand.New(rand.NewSource(5)))
	if stats.Fallback != 0 {
		t.Errorf("fallback used %d times on integral LP", stats.Fallback)
	}
	if sched.Assign[0] != 0 || sched.Assign[1] != 1 {
		t.Errorf("assignment = %v, want [0 1]", sched.Assign)
	}
}

func TestScheduleEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := gen.Unrelated(rng, gen.Params{N: 12, M: 3, K: 3})
	res, err := Schedule(context.Background(), in, Options{Rng: rng})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if res.Schedule == nil || !res.Schedule.Complete() {
		t.Fatal("incomplete schedule")
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if res.LowerBound <= 0 {
		t.Errorf("lower bound = %v, want > 0", res.LowerBound)
	}
	if res.Makespan < res.LowerBound-core.Eps {
		t.Errorf("makespan %v below certified lower bound %v", res.Makespan, res.LowerBound)
	}
}

// Theorem 3.3 sanity check on small instances: the measured ratio against
// the exact optimum stays within the (generous) theoretical envelope
// c·(log n + log m) for a small constant.
func TestScheduleRatioEnvelopeSmall(t *testing.T) {
	worst := 0.0
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := gen.Unrelated(rng, gen.Params{N: 8, M: 3, K: 2})
		_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
		proven := bst.Proven
		if !proven || opt <= 0 {
			continue
		}
		res, err := Schedule(context.Background(), in, Options{Rng: rng})
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if r := res.Makespan / opt; r > worst {
			worst = r
		}
	}
	envelope := 3 * (math.Log2(8) + math.Log2(3))
	if worst > envelope {
		t.Errorf("worst ratio %v exceeds theoretical envelope %v", worst, envelope)
	}
	if worst == 0 {
		t.Error("no instance was solvable exactly; test vacuous")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.normalize()
	if o.C != 3 || o.Rng == nil || o.Precision != 0.05 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

func TestBernThresh(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{-0.5, 0}, {0, 0}, {1, bernScale}, {2, bernScale},
		{0.5, bernScale / 2},
	}
	for _, c := range cases {
		if got := bernThresh(c.p); got != c.want {
			t.Errorf("bernThresh(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	// A threshold of bernScale must succeed for every possible lane value
	// (probability-1 draws can never fail), 0 must always fail.
	d := bern{rng: rand.New(rand.NewSource(7))}
	for i := 0; i < 1000; i++ {
		if !d.draw(bernScale) {
			t.Fatal("draw(bernScale) failed; p=1 draws must always succeed")
		}
		if d.draw(0) {
			t.Fatal("draw(0) succeeded; p=0 draws must never succeed")
		}
	}
}

func TestBernDrawFrequency(t *testing.T) {
	// The batched drawer must still be a Bernoulli(p) sampler: over many
	// draws the success frequency concentrates near p.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		d := bern{rng: rand.New(rand.NewSource(int64(p * 100)))}
		th := bernThresh(p)
		const n = 200000
		hits := 0
		for i := 0; i < n; i++ {
			if d.draw(th) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("draw frequency for p=%v: got %v", p, got)
		}
	}
}

func TestRoundDeterministicPerSeed(t *testing.T) {
	// Seed-format v2 regression: the batched-draw rounding must stay
	// deterministic — the same seed yields byte-identical assignments.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p := gen.Params{N: 2 + rng.Intn(14), M: 1 + rng.Intn(4), K: 1 + rng.Intn(3)}
		in := gen.Unrelated(rng, p)
		T := 0.0
		for j := 0; j < in.N; j++ {
			worstBest := math.Inf(1)
			for i := 0; i < in.M; i++ {
				if v := in.P[i][j] + in.S[i][in.Class[j]]; v < worstBest {
					worstBest = v
				}
			}
			T += worstBest
		}
		if T == 0 {
			T = 1
		}
		frac, err := SolveLP(in, T)
		if err != nil || frac == nil {
			t.Fatalf("trial %d: SolveLP: f=%v err=%v", trial, frac, err)
		}
		seed := rng.Int63()
		a, _ := Round(context.Background(), in, frac, 3, rand.New(rand.NewSource(seed)))
		b, _ := Round(context.Background(), in, frac, 3, rand.New(rand.NewSource(seed)))
		for j := range a.Assign {
			if a.Assign[j] != b.Assign[j] {
				t.Fatalf("trial %d seed %d: assignments diverge at job %d: %d vs %d",
					trial, seed, j, a.Assign[j], b.Assign[j])
			}
		}
	}
}
