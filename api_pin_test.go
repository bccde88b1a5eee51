package sched

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
)

// pinRow is what a seeded engine solve reports for the API pin table.
type pinRow struct {
	Makespan, LowerBound float64
	LPIters, Nodes       int64
}

func pinOf(r Result) pinRow {
	return pinRow{Makespan: r.Makespan, LowerBound: r.LowerBound, LPIters: r.LPIters, Nodes: r.Nodes}
}

// pinSolve runs one cold solve on a fresh engine.
func pinSolve(t *testing.T, in *Instance, opts ...SolveOption) Result {
	t.Helper()
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Solve(context.Background(), in, append(opts, WithoutWarmStart())...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineCallPins pins the engine call that replaced each removed
// package-level solve function (LPT, Greedy, PTAS, ClassUniformRA/PT,
// RandomizedRounding, Optimal, Portfolio) on seeded instances. The values
// were recorded from those functions and matched by the engine calls
// below on makespan and lower bound; the exact search's node counts and
// RA-2/PT-3 LP iterations are the engine's own (its branch-and-bound starts
// from the greedy makespan, and its dual searches skip guesses at the
// bus's incumbent). RandomizedRounding(in, nil) drew from seed 1, hence
// WithSeed(1): the engine's seedless stream is a different one.
func TestEngineCallPins(t *testing.T) {
	small := gen.Params{N: 16, M: 4, K: 3}
	exactShape := gen.Params{N: 9, M: 3, K: 3}
	portfolioBest := func(t *testing.T, in *Instance) pinRow {
		eng, err := New()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := eng.Portfolio(context.Background(), in, WithoutWarmStart())
		if err != nil {
			t.Fatal(err)
		}
		// Which member wins a tie depends on the race, so only the
		// optimum and its certificate are pinned.
		return pinRow{Makespan: pr.Best.Makespan, LowerBound: pr.Best.LowerBound}
	}
	exactSolve := func(t *testing.T, in *Instance) pinRow {
		r := pinSolve(t, in, WithAlgorithm(AlgoExact), WithMaxJobs(9))
		if r.LowerBound != r.Makespan || r.Note != "" {
			t.Errorf("exact solve not proven: lower bound %v, makespan %v, note %q", r.LowerBound, r.Makespan, r.Note)
		}
		return pinOf(r)
	}
	cases := []struct {
		algo string
		run  func(t *testing.T, seed int64) pinRow
		want []pinRow // seeds 1, 2, 3
	}{
		{"lpt", func(t *testing.T, seed int64) pinRow {
			return pinOf(pinSolve(t, gen.Uniform(rngFor(seed), small), WithAlgorithm(AlgoLPT)))
		}, []pinRow{
			{Makespan: 205, LowerBound: 114},
			{Makespan: 150.5, LowerBound: 105.71428571428571},
			{Makespan: 118, LowerBound: 97.625},
		}},
		{"greedy", func(t *testing.T, seed int64) pinRow {
			return pinOf(pinSolve(t, gen.Unrelated(rngFor(seed), small), WithAlgorithm(AlgoGreedy)))
		}, []pinRow{
			{Makespan: 178, LowerBound: 70.5},
			{Makespan: 181, LowerBound: 99.25},
			{Makespan: 135, LowerBound: 53},
		}},
		{"ptas", func(t *testing.T, seed int64) pinRow {
			return pinOf(pinSolve(t, gen.Identical(rngFor(seed), small), WithAlgorithm(AlgoPTAS), WithEps(0.25)))
		}, []pinRow{
			{Makespan: 292, LowerBound: 256.5, Nodes: 63},
			{Makespan: 256, LowerBound: 185, Nodes: 63},
			{Makespan: 234, LowerBound: 195.25, Nodes: 22},
		}},
		{"ra2", func(t *testing.T, seed int64) pinRow {
			return pinOf(pinSolve(t, gen.RestrictedClassUniform(rngFor(seed), small), WithAlgorithm(AlgoRA2)))
		}, []pinRow{
			{Makespan: 292, LowerBound: 269.27632725854426, LPIters: 21},
			{Makespan: 212, LowerBound: 194.70549375691445, LPIters: 36},
			{Makespan: 345, LowerBound: 338.91689459748767, LPIters: 35},
		}},
		{"pt3", func(t *testing.T, seed int64) pinRow {
			return pinOf(pinSolve(t, gen.UnrelatedClassUniform(rngFor(seed), small), WithAlgorithm(AlgoPT3)))
		}, []pinRow{
			{Makespan: 160, LowerBound: 134.35938347575328, LPIters: 40},
			{Makespan: 159, LowerBound: 140.04494243370291, LPIters: 40},
			{Makespan: 121, LowerBound: 94.18983244637475, LPIters: 45},
		}},
		{"rounding", func(t *testing.T, seed int64) pinRow {
			return pinOf(pinSolve(t, gen.Unrelated(rngFor(seed), small), WithAlgorithm(AlgoRounding), WithSeed(1)))
		}, []pinRow{
			{Makespan: 178, LowerBound: 123.69840325230143, LPIters: 29},
			{Makespan: 181, LowerBound: 139.0904516524056, LPIters: 32},
			{Makespan: 135, LowerBound: 94.31956320294584, LPIters: 27},
		}},
		{"optimal", func(t *testing.T, seed int64) pinRow {
			return exactSolve(t, gen.Unrelated(rngFor(seed), exactShape))
		}, []pinRow{
			{Makespan: 144, LowerBound: 144, Nodes: 73},
			{Makespan: 117, LowerBound: 117, Nodes: 103},
			{Makespan: 155, LowerBound: 155, Nodes: 111},
		}},
		{"portfolio", func(t *testing.T, seed int64) pinRow {
			return portfolioBest(t, gen.Identical(rngFor(seed), exactShape))
		}, []pinRow{
			{Makespan: 224, LowerBound: 224},
			{Makespan: 186, LowerBound: 186},
			{Makespan: 212, LowerBound: 212},
		}},
	}
	for _, tc := range cases {
		for i, want := range tc.want {
			seed := int64(i + 1)
			t.Run(fmt.Sprintf("%s/%d", tc.algo, seed), func(t *testing.T) {
				if got := tc.run(t, seed); got != want {
					t.Errorf("got  %#v\nwant %#v", got, want)
				}
			})
		}
	}
}
