package sched

// The benchmark harness regenerates every experiment of the reproduction
// (DESIGN.md §4, EXPERIMENTS.md): BenchmarkE1 … BenchmarkE11 run the
// corresponding experiment end-to-end (in quick mode so `go test -bench=.`
// terminates in reasonable time; `go run ./cmd/schedbench -all` runs the
// full sizes and prints the tables). The remaining benchmarks measure the
// individual algorithms.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/ptas"
	"repro/internal/rounding"
	"repro/internal/special"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Config{Seed: 1, Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1LPTLemma21(b *testing.B)           { benchExperiment(b, "E1") }
func BenchmarkE2PTASvsEps(b *testing.B)            { benchExperiment(b, "E2") }
func BenchmarkE3Figure1(b *testing.B)              { benchExperiment(b, "E3") }
func BenchmarkE4RandomizedRounding(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5IntegralityGap(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6SetCoverSeparation(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7ClassUniformRA(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8ClassUniformPT(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9PlaceholderAblation(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10IterationAblation(b *testing.B)   { benchExperiment(b, "E10") }
func BenchmarkE11RuntimeScaling(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12HeuristicLandscape(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13LocalSearchAblation(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE14SplittableTradeoff(b *testing.B)  { benchExperiment(b, "E14") }

// --- algorithm micro-benchmarks --------------------------------------------

func BenchmarkLemma21LPT(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := gen.Uniform(rng, gen.Params{N: n, M: 8, K: 10})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Lemma21LPT(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGreedy(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := gen.Unrelated(rng, gen.Params{N: n, M: 8, K: 10})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Greedy(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPTAS(b *testing.B) {
	for _, eps := range []float64{0.5, 0.25} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := gen.Uniform(rng, gen.Params{N: 14, M: 4, K: 3})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ptas.Schedule(context.Background(), in, ptas.Options{Eps: eps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPTASAnchor is the identical/uniform PTAS anchor: one op solves
// the uniform-ptas mix at ε=0.1, two uniform and six identical
// n=200/m=16/K=10 instances (the anchor rows of TestPTASPins), each cold
// through ptas.Schedule. nodes/op and guesses/op are the DP's work per op
// and repeat exactly.
func BenchmarkPTASAnchor(b *testing.B) {
	p := gen.Params{N: 200, M: 16, K: 10}
	var pool []*Instance
	for s := int64(1); s <= 2; s++ {
		pool = append(pool, gen.Uniform(rand.New(rand.NewSource(s)), p))
	}
	for s := int64(1); s <= 6; s++ {
		pool = append(pool, gen.Identical(rand.New(rand.NewSource(s)), p))
	}
	var nodes int64
	guesses := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range pool {
			_, st, err := ptas.Schedule(context.Background(), in, ptas.Options{Eps: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			nodes += st.Nodes
			guesses += st.Guesses
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(guesses)/float64(b.N), "guesses/op")
}

// BenchmarkRoundingLPSolve times SolveLP at the greedy bound: a fresh
// Relaxation built at T and one cold solve of it.
func BenchmarkRoundingLPSolve(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("n=m=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := gen.Unrelated(rng, gen.Params{N: n, M: n, K: 4})
			g, err := baseline.Greedy(in)
			if err != nil {
				b.Fatal(err)
			}
			T := g.Makespan(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rounding.SolveLP(in, T); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// roundingGuessSetup builds the M=10, N=100, K=8 unrelated instance and the
// descending guess trajectory T₀ > T₁ > … a dual-approximation search
// walks: the shape whose per-guess LP cost the warm-start machinery exists
// to kill. The trajectory spans feasible and infeasible guesses.
func roundingGuessSetup(b *testing.B) (in *Instance, ub float64, guesses []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	in = gen.Unrelated(rng, gen.Params{N: 100, M: 10, K: 8})
	g, err := baseline.Greedy(in)
	if err != nil {
		b.Fatal(err)
	}
	ub = g.Makespan(in)
	for T := ub; len(guesses) < 8; T *= 0.85 {
		guesses = append(guesses, T)
	}
	return in, ub, guesses
}

// BenchmarkRoundingGuessCold is the guess trajectory without warm starts:
// every guess builds a fresh Relaxation at T (O(M·N) variables and
// constraints, a new backend) and solves it cold through SolveLP. Compare
// with BenchmarkRoundingGuessWarm.
func BenchmarkRoundingGuessCold(b *testing.B) {
	in, _, guesses := roundingGuessSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, T := range guesses {
			if _, err := rounding.SolveLP(in, T); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRoundingGuessWarm measures the same guess trajectory through a
// Relaxation: one build at T=ub, then in-place re-solves (clamped bounds,
// basis warm-started via dual simplex) per guess, each minimizing the
// makespan column. refactors/op is the number of basis refactorizations
// the trajectory triggered.
func BenchmarkRoundingGuessWarm(b *testing.B) {
	for _, kind := range []lp.BackendKind{lp.Dense, lp.Sparse} {
		b.Run(string(kind), func(b *testing.B) {
			in, ub, guesses := roundingGuessSetup(b)
			refactors := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel, err := rounding.NewRelaxation(in, rounding.RelaxationConfig{Envelope: ub, Backend: kind})
				if err != nil {
					b.Fatal(err)
				}
				for _, T := range guesses {
					if _, err := rel.ReSolve(T); err != nil {
						b.Fatal(err)
					}
				}
				refactors += rel.Refactors()
			}
			b.ReportMetric(float64(refactors)/float64(b.N), "refactors/op")
		})
	}
}

// BenchmarkRoundingAnchor is one cold rounding solve of the M=10, N=100,
// K=8 anchor, end to end: greedy bootstrap, relaxation build, the seed
// solve at T=ub and whatever dual search it leaves open. guesses/op counts
// the search's LP feasibility tests (0 when the seed solve closed the
// bracket), lp-iters/op the simplex pivots of every solve and
// refactors/op their basis refactorizations.
func BenchmarkRoundingAnchor(b *testing.B) {
	in, _, _ := roundingGuessSetup(b)
	guesses, iters, refactors := 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, det, err := rounding.ScheduleDetailed(context.Background(), in, rounding.Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			b.Fatal(err)
		}
		guesses += det.Guesses
		iters += det.LPIterations
		refactors += det.LPRefactors
	}
	b.ReportMetric(float64(guesses)/float64(b.N), "guesses/op")
	b.ReportMetric(float64(iters)/float64(b.N), "lp-iters/op")
	b.ReportMetric(float64(refactors)/float64(b.N), "refactors/op")
}

// BenchmarkLPBackend compares a single cold solve of the rounding
// relaxation at T=ub on the dense backend (the tests' reference) and the
// sparse revised backend.
func BenchmarkLPBackend(b *testing.B) {
	run := func(b *testing.B, solve func() error) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := solve(); err != nil {
				b.Fatal(err)
			}
		}
	}
	in, ub, _ := roundingGuessSetup(b)
	// The build phase alone: constructing the ILP-UM model (every AddVar /
	// AddConstraint call) plus the backend's standard form, no solving. This
	// is the phase the append-only coefficient-triplet Problem storage
	// targets (AddConstraint previously built a per-row dedup map).
	b.Run("build", func(b *testing.B) {
		run(b, func() error {
			_, err := rounding.NewRelaxation(in, rounding.RelaxationConfig{Envelope: ub})
			return err
		})
	})
	for _, kind := range []lp.BackendKind{lp.Dense, lp.Sparse} {
		b.Run(string(kind), func(b *testing.B) {
			run(b, func() error {
				rel, err := rounding.NewRelaxation(in, rounding.RelaxationConfig{Envelope: ub, Backend: kind})
				if err != nil {
					return err
				}
				_, err = rel.ReSolve(ub)
				return err
			})
		})
	}
}

// BenchmarkColdBuildLarge is the anchor shape of the LP-backend acceptance
// run (M=20, N=200, K=12 — 4220 rows): one relaxation build plus the cold
// solve at T=ub, with equilibration scaling on and off. It tracks how the sparse
// simplex scales past the M=10/N=100/K=8 anchor.
func BenchmarkColdBuildLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := gen.Unrelated(rng, gen.Params{N: 200, M: 20, K: 12})
	g, err := baseline.Greedy(in)
	if err != nil {
		b.Fatal(err)
	}
	ub := g.Makespan(in)
	for _, tc := range []struct {
		name       string
		noPresolve bool
	}{
		{"simplex", false},
		// The raw baseline: what the same backend costs without
		// equilibration scaling.
		{"simplex-nopresolve", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel, err := rounding.NewRelaxation(in, rounding.RelaxationConfig{Envelope: ub, Backend: lp.Sparse, NoPresolve: tc.noPresolve})
				if err != nil {
					b.Fatal(err)
				}
				frac, err := rel.ReSolve(ub)
				if err != nil {
					b.Fatal(err)
				}
				if frac == nil {
					b.Fatal("envelope guess infeasible")
				}
			}
		})
	}
}

// BenchmarkDualSearch runs the full randomized-rounding dual search
// (greedy bootstrap, one relaxation build, warm per-guess LP re-solves,
// rounding) at the M=10/N=100/K=8 reference shape.
func BenchmarkDualSearch(b *testing.B) {
	in, _, _ := roundingGuessSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rounding.Schedule(context.Background(), in, rounding.Options{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			b.Fatal(err)
		}
		if res.Schedule == nil {
			b.Fatal("no schedule")
		}
	}
}

func BenchmarkRandomizedRoundingFull(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := gen.Unrelated(rng, gen.Params{N: 16, M: 6, K: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rounding.Schedule(context.Background(), in, rounding.Options{Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassUniformRA(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := gen.RestrictedClassUniform(rng, gen.Params{N: 30, M: 6, K: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := special.ScheduleClassUniformRA(context.Background(), in, special.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassUniformPT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := gen.UnrelatedClassUniform(rng, gen.Params{N: 30, M: 6, K: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := special.ScheduleClassUniformPT(context.Background(), in, special.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBranchAndBound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := gen.Uniform(rng, gen.Params{N: 12, M: 3, K: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, st := exact.BranchAndBound(context.Background(), in, exact.Options{}); !st.Proven {
			b.Fatal("not proven")
		}
	}
}

// --- engine benchmarks -----------------------------------------------------

// BenchmarkSolveEngine measures registry dispatch plus the selected solver,
// per machine environment (compare against the direct algorithm benchmarks
// above to see the dispatch overhead). One engine serves every iteration,
// so from the second solve on each instance is a warm, cached fingerprint.
func BenchmarkSolveEngine(b *testing.B) {
	eng, err := New()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		in   *Instance
	}{
		{"identical", gen.Identical(rng, gen.Params{N: 14, M: 4, K: 3})},
		{"uniform", gen.Uniform(rng, gen.Params{N: 14, M: 4, K: 3})},
		{"unrelated", gen.Unrelated(rng, gen.Params{N: 14, M: 4, K: 3})},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Solve(context.Background(), tc.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveBatch measures the engine's service mode: a batch of
// instances solved through the worker pool. The "cold" variant disables the
// warm-start cache so every iteration pays full solver cost; the "warm"
// variant models steady-state service traffic, where iteration two onward
// re-solves fingerprints the cache already knows.
func BenchmarkSolveBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ins := make([]*Instance, 16)
	for i := range ins {
		ins[i] = gen.Uniform(rng, gen.Params{N: 14, M: 4, K: 3})
	}
	for _, mode := range []struct {
		name string
		opts []SolveOption
	}{
		{"cold", []SolveOption{WithoutWarmStart()}},
		{"warm", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng, err := New(WithWorkers(4))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, br := range eng.SolveBatch(context.Background(), ins, mode.opts...) {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
		})
	}
}

// BenchmarkGovernedBatchPortfolio measures the governor under the
// layered load it was built for — a batch of portfolio solves, every
// member's extra lane drawn from the engine's token budget.
func BenchmarkGovernedBatchPortfolio(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ins := make([]*Instance, 8)
	for i := range ins {
		ins[i] = gen.Unrelated(rng, gen.Params{N: 24, M: 4, K: 3})
	}
	eng, err := New(WithBoundCache(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eng.SolveBatch(context.Background(), ins, WithPortfolio(), WithSeed(3), WithoutWarmStart())
		for _, br := range res {
			if br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
}

// BenchmarkBoundCacheHit measures a fingerprint-cache hit: re-solving an
// instance the engine has already solved, so the dual search starts
// narrowed to the cached bounds. Compare against BenchmarkSolveEngine to
// see the warm-start win.
func BenchmarkBoundCacheHit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := gen.Uniform(rng, gen.Params{N: 14, M: 4, K: 3})
	eng, err := New()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Solve(context.Background(), in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortfolio measures the concurrent race of all applicable solvers
// (wall-clock should track the slowest member, not the sum) on one engine,
// warm-started from its cache after the first race.
func BenchmarkPortfolio(b *testing.B) {
	eng, err := New()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		in   *Instance
	}{
		{"identical", gen.Identical(rng, gen.Params{N: 14, M: 4, K: 3})},
		{"unrelated", gen.Unrelated(rng, gen.Params{N: 14, M: 4, K: 3})},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Portfolio(context.Background(), tc.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- incremental re-solve benchmarks -----------------------------------------

// onlineBenchInstance is the PR's online-workload anchor shape: M=10 machines,
// N=100 jobs, K=8 classes, unrelated times, sparse LP backend (the default).
func onlineBenchInstance(rng *rand.Rand) *Instance {
	return gen.Unrelated(rng, gen.Params{N: 100, M: 10, K: 8})
}

// arrivalDelta draws a fresh random job arrival (per-machine times), so no
// two iterations mutate toward a fingerprint-identical instance.
func arrivalDelta(rng *rand.Rand, in *Instance) Delta {
	proc := make([]float64, in.M)
	for i := range proc {
		proc[i] = 1 + float64(rng.Intn(99))
	}
	return ArriveJobUnrelated(rng.Intn(in.K), proc)
}

// BenchmarkResolveDelta measures the warm re-solve of a single job arrival:
// Engine.Resolve entering the dual search with the patched witness, the
// lifted accept bracket and the in-place-patched LP relaxation. The handle
// is re-opened outside the timer each iteration (retained state is consumed
// by its Resolve). Compare against BenchmarkResolveCold for the speedup.
func BenchmarkResolveDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := onlineBenchInstance(rng)
	// Bound cache off: the measurement is the Resolve pipeline itself, not
	// the fingerprint cache.
	eng, err := New(WithBoundCache(0))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := eng.Open(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		d := arrivalDelta(rng, in)
		b.StartTimer()
		if _, err := eng.Resolve(ctx, h, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveCold is the baseline for BenchmarkResolveDelta: the same
// post-arrival instance solved from scratch.
func BenchmarkResolveCold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := onlineBenchInstance(rng)
	eng, err := New(WithBoundCache(0))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		newIn, err := arrivalDelta(rng, in).Apply(in)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.Solve(ctx, newIn, WithoutWarmStart()); err != nil {
			b.Fatal(err)
		}
	}
}
