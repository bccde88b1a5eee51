package special

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/lp"
)

func TestCheckClassUniformRA(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := gen.RestrictedClassUniform(rng, gen.Params{N: 10, M: 3, K: 2})
	if err := CheckClassUniformRA(good); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	unrelated := gen.Unrelated(rng, gen.Params{N: 5, M: 2, K: 2})
	if err := CheckClassUniformRA(unrelated); err == nil {
		t.Error("unrelated instance accepted")
	}
	// Per-job restricted instance that violates class uniformity.
	bad, err := core.NewRestricted(
		[]float64{1, 1}, []int{0, 0}, []float64{1}, 2,
		[][]int{{0}, {1}},
	)
	if err != nil {
		t.Fatalf("NewRestricted: %v", err)
	}
	if err := CheckClassUniformRA(bad); err == nil {
		t.Error("non-class-uniform instance accepted")
	}
}

func TestCheckClassUniformPT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	good := gen.UnrelatedClassUniform(rng, gen.Params{N: 10, M: 3, K: 2})
	if err := CheckClassUniformPT(good); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := gen.Unrelated(rng, gen.Params{N: 10, M: 3, K: 2})
	if err := CheckClassUniformPT(bad); err == nil {
		t.Error("generic unrelated instance accepted (class times differ w.h.p.)")
	}
}

func TestScheduleClassUniformRAFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 1 + rng.Intn(20), M: 1 + rng.Intn(4), K: 1 + rng.Intn(4)}
		in := gen.RestrictedClassUniform(rng, p)
		res, err := ScheduleClassUniformRA(context.Background(), in, Options{})
		if err != nil {
			return false
		}
		return res.Schedule != nil && res.Schedule.Complete() && res.Schedule.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Theorem 3.10: ratio ≤ 2, with slack for the binary-search precision.
func TestScheduleClassUniformRAWithinFactor2(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := gen.RestrictedClassUniform(rng, gen.Params{N: 7 + rng.Intn(4), M: 2 + rng.Intn(2), K: 1 + rng.Intn(3)})
		_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
		proven := bst.Proven
		if !proven || opt <= 0 {
			continue
		}
		res, err := ScheduleClassUniformRA(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Makespan > 2.1*opt+core.Eps {
			t.Errorf("seed %d: makespan %v > 2.1·Opt (%v)", seed, res.Makespan, opt)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no instance was checked; test vacuous")
	}
}

func TestScheduleClassUniformPTFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 1 + rng.Intn(20), M: 1 + rng.Intn(4), K: 1 + rng.Intn(4)}
		in := gen.UnrelatedClassUniform(rng, p)
		res, err := ScheduleClassUniformPT(context.Background(), in, Options{})
		if err != nil {
			return false
		}
		return res.Schedule != nil && res.Schedule.Complete() && res.Schedule.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Theorem 3.11: ratio ≤ 3, with slack for the binary-search precision.
func TestScheduleClassUniformPTWithinFactor3(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := gen.UnrelatedClassUniform(rng, gen.Params{N: 7 + rng.Intn(4), M: 2 + rng.Intn(2), K: 1 + rng.Intn(3)})
		_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
		proven := bst.Proven
		if !proven || opt <= 0 {
			continue
		}
		res, err := ScheduleClassUniformPT(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Makespan > 3.1*opt+core.Eps {
			t.Errorf("seed %d: makespan %v > 3.1·Opt (%v)", seed, res.Makespan, opt)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no instance was checked; test vacuous")
	}
}

func TestRejectsWrongStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	generic := gen.Unrelated(rng, gen.Params{N: 8, M: 3, K: 2})
	if _, err := ScheduleClassUniformRA(context.Background(), generic, Options{}); err == nil {
		t.Error("RA algorithm accepted an unrelated instance")
	}
	perJob := gen.Restricted(rng, gen.Params{N: 12, M: 3, K: 2})
	if err := CheckClassUniformRA(perJob); err == nil {
		t.Skip("random per-job instance happened to be class-uniform")
	}
	if _, err := ScheduleClassUniformRA(context.Background(), perJob, Options{}); err == nil {
		t.Error("RA algorithm accepted a non-class-uniform instance")
	}
}

func TestLowerBoundSound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := gen.RestrictedClassUniform(rng, gen.Params{N: 8, M: 2, K: 2})
		_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
		proven := bst.Proven
		if !proven {
			continue
		}
		res, err := ScheduleClassUniformRA(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.LowerBound > opt+1e-6 {
			t.Errorf("seed %d: claimed lower bound %v exceeds true optimum %v", seed, res.LowerBound, opt)
		}
	}
}

// TestRelaxedRAMatchesTableau: LP-RelaxedRA solved on the sparse backend
// must reach the same feasibility verdict as the tableau (Problem.Solve,
// the independent reference) on a seeded class-uniform corpus over a
// ladder of guesses, and every feasible backend solution must induce a
// pseudoforest support graph (at most as many edges as nodes per
// component), the property the Correa et al. rounding relies on.
func TestRelaxedRAMatchesTableau(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 10 + rng.Intn(30), M: 2 + rng.Intn(5), K: 1 + rng.Intn(5)}
		in := gen.RestrictedClassUniform(rng, p)
		var classTime [][]float64 // PT instances only
		if seed%2 == 1 {
			in = gen.UnrelatedClassUniform(rng, p)
			classTime = classTimes(in)
		}
		g, err := baseline.Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		ub := g.Makespan(in)
		for T := ub; T > ub/2; T *= 0.93 {
			admit := func(i, k int) bool { return true }
			if classTime != nil {
				admit = admitPT(in, classTime, T)
			}
			mdl := buildRelaxed(in, T, admit)
			if mdl == nil {
				continue // a class has no admitted machine: no LP to solve
			}
			sol, err := mdl.p.Solve()
			if err != nil {
				t.Fatalf("seed %d T=%v: tableau: %v", seed, T, err)
			}
			want := sol.Status == lp.Optimal
			r, _, err := solveRelaxed(in, T, admit)
			if err != nil {
				t.Fatalf("seed %d T=%v: backend: %v", seed, T, err)
			}
			if got := r != nil; got != want {
				t.Fatalf("seed %d T=%v: backend feasible=%v, tableau feasible=%v", seed, T, got, want)
			}
			verdicts[want]++
			if r == nil {
				continue
			}
			sg := newSupportGraph(in.M, in.K, r.xbar)
			for _, comp := range sg.components() {
				edges := 0
				for _, v := range comp {
					edges += len(sg.adj[v])
				}
				if edges/2 > len(comp) {
					t.Fatalf("seed %d T=%v: support component %v has %d edges on %d nodes", seed, T, comp, edges/2, len(comp))
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("ladder never crossed the threshold: %v", verdicts)
	}
	t.Logf("%d feasible and %d infeasible guesses", verdicts[true], verdicts[false])
}
