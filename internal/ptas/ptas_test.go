package ptas

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/boundtest"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestRoundSizeUp(t *testing.T) {
	eps := 0.5
	cases := []struct{ in, wantAtLeast float64 }{
		{1, 1}, {1.2, 1.2}, {3, 3}, {5, 5}, {7.3, 7.3},
	}
	for _, c := range cases {
		got := roundSizeUp(c.in, eps)
		if got < c.in-core.Eps {
			t.Errorf("roundSizeUp(%v) = %v, must not round down", c.in, got)
		}
		if got > c.in*(1+eps)+core.Eps {
			t.Errorf("roundSizeUp(%v) = %v, exceeds (1+ε) factor", c.in, got)
		}
	}
	// Grid membership: result is 2^e(1+ℓε).
	got := roundSizeUp(1.3, eps)
	if math.Abs(got-1.5) > core.Eps {
		t.Errorf("roundSizeUp(1.3, 0.5) = %v, want 1.5", got)
	}
}

// TestRoundSizeUpPowerOfTwoBits checks that roundSizeUp's 2^e, built with
// math.Ldexp, has the same bits as math.Pow(2, e) for e = ⌊log₂ t⌋ on every
// power of two from 2^-30 to 2^30, on each one's floating-point neighbours
// and on random sizes, and that the rounded result is unchanged with it.
func TestRoundSizeUpPowerOfTwoBits(t *testing.T) {
	var ts []float64
	for e := -30; e <= 30; e++ {
		p := math.Ldexp(1, e)
		ts = append(ts, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for range 10000 {
		ts = append(ts, math.Ldexp(rng.Float64(), rng.Intn(61)-30))
	}
	for _, x := range ts {
		if x <= 0 {
			continue
		}
		e := math.Floor(math.Log2(x))
		if got, want := math.Ldexp(1, int(e)), math.Pow(2, e); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("t=%v: Ldexp(1, %v) = %v, Pow(2, %v) = %v", x, e, got, e, want)
		}
		for _, eps := range []float64{0.1, 0.25, 0.5} {
			base := math.Pow(2, e)
			want := base + math.Ceil((x-base)/(eps*base))*eps*base
			if got := roundSizeUp(x, eps); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("roundSizeUp(%v, %v) = %v, the math.Pow form gives %v", x, eps, got, want)
			}
		}
	}
}

func TestRoundSpeedDown(t *testing.T) {
	eps := 0.5
	for _, v := range []float64{1, 1.4, 2, 3.7, 9} {
		got := roundSpeedDown(v, 1, eps)
		if got > v+core.Eps {
			t.Errorf("roundSpeedDown(%v) = %v, must not round up", v, got)
		}
		if got < v/(1+eps)-core.Eps {
			t.Errorf("roundSpeedDown(%v) = %v, lost more than (1+ε)", v, got)
		}
	}
}

func TestGroupMembershipInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := gen.Uniform(rng, gen.Params{N: 10, M: 5, K: 2, SpeedMax: 9})
	s := simplify(in, 100, 0.5)
	if s == nil {
		t.Fatal("simplify rejected a generous guess")
	}
	for i := range s.speed {
		count := 0
		for g := -3; g <= s.G+3; g++ {
			if s.inGroup(i, g) {
				count++
			}
		}
		if count != 2 {
			t.Errorf("machine %d belongs to %d groups, want 2", i, count)
		}
	}
}

func TestNativeGroupContainsBigInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := gen.Uniform(rng, gen.Params{N: 14, M: 4, K: 2, SpeedMax: 6})
	s := simplify(in, 50, 0.5)
	if s == nil {
		t.Fatal("simplify rejected a generous guess")
	}
	for j := range s.size {
		p := s.size[j]
		g := s.nativeGroup(p)
		// The native group must contain the whole interval of speeds for
		// which p is big: [p/T1, p/(ε·T1)] ⊆ [v̌_g, v̌_{g+2}).
		if p/s.T1 < s.vLow(g)-core.Eps {
			t.Errorf("job %d: big-interval start %v below group %d start %v", j, p/s.T1, g, s.vLow(g))
		}
		if p/(s.eps*s.T1) >= s.vLow(g+2)+core.Eps {
			t.Errorf("job %d: big-interval end %v beyond group %d end %v", j, p/(s.eps*s.T1), g, s.vLow(g+2))
		}
	}
}

func TestCoreGroupContainsCoreMachineInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := gen.Uniform(rng, gen.Params{N: 10, M: 4, K: 3, SpeedMax: 6})
	s := simplify(in, 80, 0.5)
	if s == nil {
		t.Fatal("simplify rejected a generous guess")
	}
	for k := 0; k < in.K; k++ {
		g := s.coreGroup(k)
		lo := s.setup[k] / s.T1
		hi := s.setup[k] / (s.gamma * s.T1)
		if lo < s.vLow(g)-core.Eps {
			t.Errorf("class %d: core-speed start %v below group %d start %v", k, lo, g, s.vLow(g))
		}
		if hi > s.vLow(g+2)+core.Eps {
			t.Errorf("class %d: core-speed end %v beyond group %d end %v", k, hi, g, s.vLow(g+2))
		}
	}
}

func TestSimplifyRejectsImpossibleGuess(t *testing.T) {
	in, err := core.NewIdentical([]float64{10}, []int{0}, []float64{5}, 2)
	if err != nil {
		t.Fatalf("NewIdentical: %v", err)
	}
	if s := simplify(in, 14, 0.5); s != nil {
		t.Error("guess below p+s accepted")
	}
	if s := simplify(in, 15, 0.5); s == nil {
		t.Error("feasible guess rejected")
	}
}

func TestMapBackCoversAllJobs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 1 + rng.Intn(20), M: 1 + rng.Intn(4), K: 1 + rng.Intn(3)}
		var in *core.Instance
		if rng.Intn(2) == 0 {
			in = gen.Identical(rng, p)
		} else {
			in = gen.Uniform(rng, p)
		}
		// Generous guess so simplification succeeds.
		T := 10 * (exact.VolumeLowerBound(in) + 1000)
		s := simplify(in, T, 0.5)
		if s == nil {
			return false
		}
		// Assign every simplified job to machine 0 and map back.
		assign := make([]int, len(s.size))
		sched := s.mapBack(assign)
		return sched.Complete() && sched.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestScheduleFeasibleOnRandomInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 1 + rng.Intn(10), M: 1 + rng.Intn(3), K: 1 + rng.Intn(3)}
		var in *core.Instance
		if rng.Intn(2) == 0 {
			in = gen.Identical(rng, p)
		} else {
			in = gen.Uniform(rng, p)
		}
		res, _, err := Schedule(context.Background(), in, Options{Eps: 0.5})
		if err != nil {
			return false
		}
		return res.Schedule != nil && res.Schedule.Complete() && res.Schedule.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The key PTAS test (experiment E2 in miniature): with ε = 1/2 the measured
// ratio must stay below the theoretical (1+O(ε)) envelope; we use the
// concrete bound (1+ε)⁸ ≈ 1.5⁸ᐟ⁵ · search slack, far below the LPT factor,
// and additionally check the certified lower bound is sound.
func TestScheduleNearOptimalSmall(t *testing.T) {
	envelope := math.Pow(1.5, 8) // extremely generous; typical ratios ≈ 1.0–1.3
	worst := 1.0
	checked := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Params{N: 5 + rng.Intn(5), M: 2 + rng.Intn(2), K: 1 + rng.Intn(2)}
		var in *core.Instance
		if seed%2 == 0 {
			in = gen.Identical(rng, p)
		} else {
			in = gen.Uniform(rng, p)
		}
		_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
		proven := bst.Proven
		if !proven || opt <= 0 {
			continue
		}
		res, stats, err := Schedule(context.Background(), in, Options{Eps: 0.5})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := res.Makespan / opt
		if r > worst {
			worst = r
		}
		if r > envelope {
			t.Errorf("seed %d: ratio %v exceeds envelope %v (capped=%v)", seed, r, envelope, stats.Capped)
		}
		if !stats.Capped && res.LowerBound > opt+1e-6 {
			t.Errorf("seed %d: certified lower bound %v exceeds optimum %v", seed, res.LowerBound, opt)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no instance checked; test vacuous")
	}
	t.Logf("worst PTAS ratio over %d instances: %.4f", checked, worst)
}

// The defining property of a PTAS: smaller ε gives better schedules. Not a
// per-instance theorem, so the assertion is on the mean ratio over a fixed
// seed set (the same regression the E2 experiment reports).
func TestEpsilonImprovesMeanRatio(t *testing.T) {
	mean := func(eps float64) float64 {
		sum, cnt := 0.0, 0
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := gen.Uniform(rng, gen.Params{N: 12, M: 3, K: 3})
			_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
			proven := bst.Proven
			if !proven || opt <= 0 {
				continue
			}
			res, _, err := Schedule(context.Background(), in, Options{Eps: eps})
			if err != nil {
				t.Fatalf("eps=%v seed=%d: %v", eps, seed, err)
			}
			sum += res.Makespan / opt
			cnt++
		}
		if cnt == 0 {
			t.Fatal("no instances solvable exactly")
		}
		return sum / float64(cnt)
	}
	coarse := mean(0.5)
	fine := mean(0.125)
	if fine > coarse+0.02 {
		t.Errorf("mean ratio at ε=1/8 (%.4f) worse than at ε=1/2 (%.4f)", fine, coarse)
	}
	if fine > 1.25 {
		t.Errorf("mean ratio at ε=1/8 is %.4f, want close to 1", fine)
	}
}

func TestScheduleBeatsOrMatchesLPTOnSetupHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := gen.Uniform(rng, gen.Params{N: 12, M: 3, K: 2, MinJob: 1, MaxJob: 10, MinSetup: 40, MaxSetup: 60})
	res, _, err := Schedule(context.Background(), in, Options{Eps: 0.5})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	// The PTAS bootstraps from LPT and only keeps improvements, so it can
	// never be worse than the Lemma 2.1 schedule.
	lpt, err := baselineLPT(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > lpt+core.Eps {
		t.Errorf("PTAS makespan %v worse than its LPT bootstrap %v", res.Makespan, lpt)
	}
}

func TestRejectsUnrelated(t *testing.T) {
	in, err := core.NewUnrelated([][]float64{{1}}, []int{0}, [][]float64{{1}})
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	if _, _, err := Schedule(context.Background(), in, Options{}); err == nil {
		t.Error("PTAS accepted an unrelated instance")
	}
}

func TestFigure1(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := gen.Uniform(rng, gen.Params{N: 12, M: 4, K: 3, SpeedMax: 8})
	fig, err := Figure1(in, 200, 0.5)
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	for _, want := range []string{"group 0:", "core group", "native group", "vmin"} {
		if !strings.Contains(fig, want) {
			t.Errorf("figure missing %q:\n%s", want, fig)
		}
	}
	if _, err := Figure1(in, 0.0001, 0.5); err == nil {
		t.Error("Figure1 accepted an infeasible guess")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Eps != 0.5 || o.NodeCap != 2_000_000 || o.Precision != 0.125 {
		t.Errorf("defaults not applied: %+v", o)
	}
	o2 := Options{Eps: 0.25}.normalize()
	if o2.Precision != 0.0625 {
		t.Errorf("precision should default to eps/4, got %v", o2.Precision)
	}
}

// TestCappedRejectionsNotPublished: a node-capped guess is a suspicion, not
// a certificate, so the guarded bus must keep it off the shared bound bus —
// every published lower bound stays sound against the true optimum.
func TestCappedRejectionsNotPublished(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := gen.Uniform(rng, gen.Params{N: 12, M: 3, K: 3})
	_, opt, bst := exact.BranchAndBound(context.Background(), in, exact.Options{})
	if !bst.Proven {
		t.Fatal("reference optimum not proven")
	}
	bus := boundtest.New()
	res, stats, err := Schedule(context.Background(), in, Options{Eps: 0.25, NodeCap: 2, Bounds: bus})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !stats.Capped {
		t.Skip("node cap never hit; instance too easy for the guard to matter")
	}
	for _, lb := range bus.LowerPubs {
		if lb > opt+1e-6 {
			t.Errorf("unsound lower bound %v published to the bus (optimum %v)", lb, opt)
		}
	}
	if bus.U > res.Makespan+core.Eps {
		t.Errorf("bus incumbent %v worse than returned makespan %v", bus.U, res.Makespan)
	}
	if bus.U < opt-1e-6 {
		t.Errorf("bus incumbent %v below the optimum %v (infeasible publish)", bus.U, opt)
	}
}
