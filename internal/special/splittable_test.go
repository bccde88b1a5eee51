package special

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestScheduleSplittableValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 1 + rng.Intn(15), M: 1 + rng.Intn(4), K: 1 + rng.Intn(4)}
		in := gen.Unrelated(rng, p)
		res, err := ScheduleSplittable(context.Background(), in, Options{})
		if err != nil {
			return false
		}
		if res.Split.Validate(in) != nil {
			return false
		}
		return math.Abs(res.Split.Makespan(in)-res.Makespan) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// On class-uniform processing times, class fractions represent atomic
// schedules exactly, so splitting can only help: splittableOpt ≤ atomicOpt
// and the 2-approx splittable makespan is at most 2·atomic-Opt. (On general
// unrelated machines the class-granular splittable optimum need NOT be
// below the atomic optimum — fractions force proportional rate mixes — so
// this domination is tested on the class-uniform family.)
func TestSplittableWithinTwiceAtomicOptimum(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := gen.UnrelatedClassUniform(rng, gen.Params{N: 8, M: 3, K: 2})
		_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
		proven := bst.Proven
		if !proven || opt <= 0 {
			continue
		}
		res, err := ScheduleSplittable(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Makespan > 3.1*opt+core.Eps {
			t.Errorf("seed %d: splittable makespan %v > 3.1·atomicOpt (%v)", seed, res.Makespan, opt)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("vacuous")
	}
}

func TestSplittableBeatsAtomicWhenSplittingPays(t *testing.T) {
	// One giant job (its own class) with tiny setup on 4 identical
	// machines: atomically one machine carries 100; splittably each
	// carries 25 + setup 1.
	in, err := core.NewIdentical([]float64{100}, []int{0}, []float64{1}, 4)
	if err != nil {
		t.Fatalf("NewIdentical: %v", err)
	}
	res, err := ScheduleSplittable(context.Background(), in, Options{})
	if err != nil {
		t.Fatalf("ScheduleSplittable: %v", err)
	}
	if res.Makespan > 60 {
		t.Errorf("splittable makespan = %v, want well below the atomic 101", res.Makespan)
	}
}

func TestSplittableSetupDominatedStaysNearAtomic(t *testing.T) {
	// Setup 100 vs workload 4: setups are paid per carrier but run in
	// parallel, so the best splittable makespan is between 102 (two
	// carriers, f = 1/2) and 104 (one carrier) — far from the naive
	// 100/m + workload that ignoring setups would suggest.
	in, err := core.NewIdentical([]float64{4}, []int{0}, []float64{100}, 4)
	if err != nil {
		t.Fatalf("NewIdentical: %v", err)
	}
	res, err := ScheduleSplittable(context.Background(), in, Options{})
	if err != nil {
		t.Fatalf("ScheduleSplittable: %v", err)
	}
	if res.Makespan > 104+1 || res.Makespan < 101-core.Eps {
		t.Errorf("splittable makespan = %v, want within [101, 105]", res.Makespan)
	}
	// Every carrier pays the full setup; loads must reflect that.
	for i, l := range res.Split.Loads(in) {
		if res.Split.Frac[i][0] > fracTol && l < 100-core.Eps {
			t.Errorf("machine %d carries a fraction but load %v < setup", i, l)
		}
	}
}

func TestAtomicToSplitConsistentOnSingletonClasses(t *testing.T) {
	// With one job per class (the job-granular splittable model) the
	// fractional view of an atomic schedule is exact.
	rng := rand.New(rand.NewSource(9))
	n := 10
	p := make([][]float64, 3)
	s := make([][]float64, 3)
	class := make([]int, n)
	for i := range p {
		p[i] = make([]float64, n)
		s[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			p[i][j] = float64(1 + rng.Intn(40))
			s[i][j] = float64(1 + rng.Intn(10))
		}
	}
	for j := range class {
		class[j] = j
	}
	in, err := core.NewUnrelated(p, class, s)
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	g, err := baseline.Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	ss := atomicToSplit(in, g)
	if err := ss.Validate(in); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if math.Abs(ss.Makespan(in)-g.Makespan(in)) > 1e-6 {
		t.Errorf("fractional view %v != atomic makespan %v", ss.Makespan(in), g.Makespan(in))
	}
}

// TestSplittableRejectsUncoverableClass: on restricted instances whose
// eligibility is not class-uniform, a class may have no machine that can
// run all of its jobs. Such an instance has no class-level split; it must
// be rejected with an error naming the class, never answered with an
// infinite makespan or a split that fails Validate.
func TestSplittableRejectsUncoverableClass(t *testing.T) {
	rejected := 0
	for seed := int64(1); seed <= 40; seed++ {
		in := gen.Restricted(rand.New(rand.NewSource(seed)), gen.Params{N: 30, M: 6, K: 5})
		res, err := ScheduleSplittable(context.Background(), in, Options{})
		if err != nil {
			if !strings.Contains(err.Error(), "class") {
				t.Errorf("seed %d: error %q does not name the class", seed, err)
			}
			rejected++
			continue
		}
		if err := res.Split.Validate(in); err != nil || !core.IsFinite(res.Makespan) {
			t.Errorf("seed %d: makespan %v, Validate: %v", seed, res.Makespan, err)
		}
	}
	if rejected == 0 {
		t.Error("no seed produced an uncoverable class; the test checks nothing")
	}
}

// TestAtomicToSplitMovesIneligibleClass: the fallback conversion must not
// leave a class fraction on a machine that cannot run every job of the
// class; the class moves whole to a machine that can.
func TestAtomicToSplitMovesIneligibleClass(t *testing.T) {
	// Class 0 = jobs 0 and 1; job 1 may only run on machine 0.
	in, err := core.NewRestricted([]float64{2, 3}, []int{0, 0}, []float64{1}, 2, [][]int{{0, 1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	ss := atomicToSplit(in, &core.Schedule{Assign: []int{1, 0}})
	if err := ss.Validate(in); err != nil {
		t.Fatalf("Validate: %v (fractions %v)", err, ss.Frac)
	}
	if ss.Frac[0][0] != 1 {
		t.Errorf("class 0 fractions %v, want all on machine 0", [][]float64{ss.Frac[0], ss.Frac[1]})
	}
}
