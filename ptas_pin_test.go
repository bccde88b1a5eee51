package sched

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ptas"
)

// ptasPin is what one seeded PTAS run reports: its answer and the DP's
// work. Nodes counts every DP node over every guess, so any change to the
// search order, the pruning or the failed-state memo shows up here even
// when the schedule does not move.
type ptasPin struct {
	Makespan, LowerBound float64
	Guesses              int
	Nodes                int64
}

// TestPTASPins pins the PTAS bit for bit on three sets of seeded instances:
// the PTAS rows of TestDualSearchGolden; the perfbench uniform-ptas shape
// (n=200/m=16/K=10 at ε=0.1), where every guess succeeds without
// backtracking; and small tight N=20/M=4/K=3 instances at ε=0.1 where one
// guess is rejected after a search of some 10⁵ nodes that hits the
// failed-state memo (TestRejectedGuessHitsMemo checks those hits). None of
// the rows reaches the node cap.
func TestPTASPins(t *testing.T) {
	ptasShape := gen.Params{N: 40, M: 6, K: 5}
	anchor := gen.Params{N: 200, M: 16, K: 10}
	tight := gen.Params{N: 20, M: 4, K: 3}
	cases := []struct {
		name string
		in   *core.Instance
		eps  float64
		bus  *countingBus
		want ptasPin
	}{
		{"golden/uniform/1", gen.Uniform(rngFor(1), ptasShape), 0.25, nil, ptasPin{168, 119.75, 3, 102}},
		{"golden/uniform/2", gen.Uniform(rngFor(2), ptasShape), 0.5, nil, ptasPin{182, 124.125, 2, 4}},
		{"golden/identical/1", gen.Identical(rngFor(1), ptasShape), 0.25, nil, ptasPin{524, 399.1666666666667, 3, 105}},
		{"golden/identical/2", gen.Identical(rngFor(2), ptasShape), 0.5, nil, ptasPin{451, 331, 2, 4}},
		{"golden/uniform-bus/3", gen.Uniform(rngFor(3), ptasShape), 0.25, seededBus(200), ptasPin{271, 172.8181818181818, 2, 94}},
		{"anchor/uniform/1", gen.Uniform(rngFor(1), anchor), 0.1, nil, ptasPin{293, 240.23809523809524, 5, 1060}},
		{"anchor/uniform/2", gen.Uniform(rngFor(2), anchor), 0.1, nil, ptasPin{285, 227.2, 4, 848}},
		{"anchor/identical/1", gen.Identical(rngFor(1), anchor), 0.1, nil, ptasPin{746, 630.625, 4, 848}},
		{"anchor/identical/2", gen.Identical(rngFor(2), anchor), 0.1, nil, ptasPin{757, 639, 4, 848}},
		{"anchor/identical/3", gen.Identical(rngFor(3), anchor), 0.1, nil, ptasPin{722, 611.0625, 4, 848}},
		{"anchor/identical/4", gen.Identical(rngFor(4), anchor), 0.1, nil, ptasPin{767, 656.9375, 3, 636}},
		{"anchor/identical/5", gen.Identical(rngFor(5), anchor), 0.1, nil, ptasPin{741, 623.5625, 4, 848}},
		{"anchor/identical/6", gen.Identical(rngFor(6), anchor), 0.1, nil, ptasPin{761, 644.625, 4, 844}},
		{"tight/uniform/673", gen.Uniform(rngFor(673), tight), 0.1, nil, ptasPin{176, 159.7032605375511, 5, 114640}},
		{"tight/identical/137", gen.Identical(rngFor(137), tight), 0.1, nil, ptasPin{233, 220.15777794649185, 4, 263859}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := ptas.Options{Eps: tc.eps}
			if tc.bus != nil {
				opt.Bounds = tc.bus
			}
			res, st, err := ptas.Schedule(context.Background(), tc.in, opt)
			if err != nil {
				t.Fatal(err)
			}
			if st.Capped || st.Cancelled {
				t.Fatalf("run capped=%v cancelled=%v: the pin covers complete searches only", st.Capped, st.Cancelled)
			}
			got := ptasPin{res.Makespan, res.LowerBound, st.Guesses, st.Nodes}
			if got != tc.want {
				t.Errorf("got  %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
