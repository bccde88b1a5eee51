package experiments

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dual"
	"repro/internal/rounding"
	"repro/internal/setcover"
	"repro/internal/table"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Name:  "Corollary 3.4: integrality gap of the ILP-UM relaxation",
		Claim: "the LP relaxation has gap Ω(log n + log m) on set-cover-shaped instances",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E6",
		Name:  "Theorem 3.5: Yes/No makespan separation of the reduction",
		Claim: "Yes-instances schedule within O((K/m)·t + log m); No-instances force Ω((K/m)·OptCover)",
		Run:   runE6,
	})
}

// lpFeasibleMakespan binary-searches the smallest T at which the ILP-UM LP
// relaxation is feasible — the LP bound T*_LP. The relaxation is built once
// at the envelope and warm re-solved per guess.
func lpFeasibleMakespan(in *core.Instance, ub float64) (float64, error) {
	rel, err := rounding.NewRelaxation(in, rounding.RelaxationConfig{Envelope: ub})
	if err != nil {
		return 0, err
	}
	var solveErr error
	out := dual.Search(context.Background(), dual.Config{Instance: in, Upper: ub, Precision: 0.03}, func(T float64) (*core.Schedule, bool) {
		f, err := rel.ReSolve(T)
		if err != nil {
			solveErr = err
			return nil, true
		}
		return nil, f != nil
	})
	if solveErr != nil {
		return 0, solveErr
	}
	// The search's lower bound is the largest infeasible guess and its
	// accepted edge the smallest feasible one; the LP optimum lies between.
	if out.LowerBound > 0 && out.LowerBound < out.Accepted {
		return (out.LowerBound + out.Accepted) / 2, nil
	}
	return out.Accepted, nil
}

func runE5(cfg Config) (string, error) {
	// The binary-code gap family: universe F₂^d \ {0}; fractional cover
	// < 2, integral cover = d, so the induced scheduling LP has gap
	// Ω(d) = Ω(log N).
	ds := []int{2, 3, 4}
	if cfg.Quick {
		ds = []int{2, 3}
	}
	const kClasses = 4
	t := table.New("E5 — integrality gap on the binary-code set-cover family",
		"d", "N=m", "jobs n", "int cover", "frac cover", "LP bound T*", "integral LB", "gap", "d/2")
	for i, d := range ds {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		ci := setcover.BinaryGap(d)
		intCover := setcover.ExactCoverSize(ci)
		red, err := setcover.BuildK(rng, ci, 2, kClasses)
		if err != nil {
			return "", err
		}
		in := red.Instance
		intLB := red.NoSideLowerBound(intCover)
		// An upper bound for the LP binary search: one setup per class per
		// machine would certainly do.
		ub := float64(in.K) + 1
		lpT, err := lpFeasibleMakespan(in, ub)
		if err != nil {
			return "", err
		}
		gap := intLB / math.Max(lpT, 1e-9)
		t.AddRow(d, ci.N, in.N, intCover, setcover.FractionalCoverValue(d),
			lpT, intLB, gap, float64(d)/2)
	}
	t.AddNote("gap = certified integral lower bound / LP-feasible makespan; it tracks d/2 = Ω(log N), matching Cor. 3.4")
	t.AddNote("K fixed to %d classes: the gap is K-independent and small K keeps the LP tractable", kClasses)
	return t.String(), nil
}

func runE6(cfg Config) (string, error) {
	type point struct{ n, t, m int }
	points := []point{{12, 2, 8}, {16, 2, 10}, {20, 2, 12}}
	if cfg.Quick {
		points = []point{{10, 2, 6}, {12, 2, 8}}
	}
	t := table.New("E6 — Theorem 3.5 reduction: Yes-side vs No-side makespans",
		"universe N", "t", "m", "K", "yes makespan", "yes bound O(Kt/m+log m)", "no-side LB", "separation")
	for i, pt := range points {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		// Yes side: planted cover of size t.
		ciYes, planted := setcover.PlantedYes(rng, pt.n, pt.t, pt.m)
		redYes, err := setcover.Build(rng, ciYes, pt.t)
		if err != nil {
			return "", err
		}
		sched, err := redYes.CoverSchedule(planted)
		if err != nil {
			return "", err
		}
		yes := sched.Makespan(redYes.Instance)
		k := float64(redYes.K())
		yesBound := 2*k*float64(pt.t)/float64(pt.m) + 2*math.Log2(float64(pt.m)) + 2
		// No side: random sparse sets needing a large cover.
		ciNo := setcover.HardNoLike(rng, pt.n, pt.m, 2)
		coverLB := setcover.CoverLowerBound(ciNo)
		redNo, err := setcover.Build(rng, ciNo, pt.t)
		if err != nil {
			return "", err
		}
		noLB := redNo.NoSideLowerBound(coverLB)
		t.AddRow(pt.n, pt.t, pt.m, redYes.K(), yes, yesBound, noLB,
			noLB/math.Max(yes, 1e-9))
	}
	t.AddNote("separation = no-side lower bound / yes-side makespan; the reduction forces a gap growing like α = Θ(log N)")
	return t.String(), nil
}
