package sched

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/ptas"
	"repro/internal/rounding"
	"repro/internal/special"
)

// goldenRow is what one seeded solve reports. Guesses and Accepted are the
// solver's own dual-search diagnostics where it exposes them (rounding
// Detail, PTAS Stats); Lowers and Uppers count the bound publications a
// recording bus saw, so a search that skips guesses at a pre-seeded
// incumbent shows it in fewer publications and guesses.
type goldenRow struct {
	Makespan, LowerBound float64
	LPIters              int64
	Guesses              int
	Accepted             float64
	Lowers, Uppers       int
}

// countingBus is a bound bus that counts publications.
type countingBus struct {
	core.BoundBus
	lowers, uppers int
}

func (b *countingBus) PublishLower(v float64) bool { b.lowers++; return b.BoundBus.PublishLower(v) }
func (b *countingBus) PublishUpper(v float64) bool { b.uppers++; return b.BoundBus.PublishUpper(v) }

// seededBus returns a counting bus pre-seeded with a racer's incumbent, so
// the search skips every guess at or above it (publications before the
// solve are not counted).
func seededBus(upper float64) *countingBus {
	b := &countingBus{BoundBus: engine.NewIncumbent()}
	b.BoundBus.PublishUpper(upper)
	return b
}

func goldenRounding(t *testing.T, in *core.Instance, bus *countingBus) goldenRow {
	t.Helper()
	opt := rounding.Options{Rng: rand.New(rand.NewSource(7))}
	if bus != nil {
		opt.Bounds = bus
	}
	res, det, err := rounding.ScheduleDetailed(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	row := goldenRow{Makespan: res.Makespan, LowerBound: res.LowerBound, LPIters: res.LPIters, Guesses: det.Guesses, Accepted: det.Accepted}
	if bus != nil {
		row.Lowers, row.Uppers = bus.lowers, bus.uppers
	}
	return row
}

func goldenPTAS(t *testing.T, in *core.Instance, eps float64, bus *countingBus) goldenRow {
	t.Helper()
	opt := ptas.Options{Eps: eps}
	if bus != nil {
		opt.Bounds = bus
	}
	res, st, err := ptas.Schedule(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	row := goldenRow{Makespan: res.Makespan, LowerBound: res.LowerBound, Guesses: st.Guesses}
	if bus != nil {
		row.Lowers, row.Uppers = bus.lowers, bus.uppers
	}
	return row
}

// goldenSpecial pins RA-2/PT-3 by makespan, lower bound and the search's
// publication trace; their LP iteration count is not part of the row.
func goldenSpecial(t *testing.T, in *core.Instance, solve func(context.Context, *core.Instance, special.Options) (core.Result, error)) goldenRow {
	t.Helper()
	bus := &countingBus{BoundBus: engine.NewIncumbent()}
	res, err := solve(context.Background(), in, special.Options{Bounds: bus})
	if err != nil {
		t.Fatal(err)
	}
	return goldenRow{Makespan: res.Makespan, LowerBound: res.LowerBound, Lowers: bus.lowers, Uppers: bus.uppers}
}

func goldenSplittable(t *testing.T, in *core.Instance) goldenRow {
	t.Helper()
	res, err := special.ScheduleSplittable(context.Background(), in, special.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return goldenRow{Makespan: res.Makespan, LowerBound: res.LowerBound}
}

func goldenEngine(t *testing.T, in *core.Instance, opts ...SolveOption) goldenRow {
	t.Helper()
	eng, err := New(WithBoundCache(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Solve(context.Background(), in, append(opts, WithoutWarmStart())...)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRow{Makespan: res.Makespan, LowerBound: res.LowerBound, LPIters: res.LPIters}
}

func rngFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestDualSearchGolden pins every dual-search solver's result on seeded
// instances: makespan, lower bound, LP iterations and the search's guess
// and publication counts must match these recorded values bit for bit.
// The values were recorded from the sequential multiplicative bisection;
// any change to the search's guess sequence, commit order or bound
// exchange shows up here.
func TestDualSearchGolden(t *testing.T) {
	anchor := gen.Params{N: 100, M: 10, K: 8}
	tiny := gen.Params{N: 12, M: 8, K: 3}
	ptasShape := gen.Params{N: 40, M: 6, K: 5}
	classShape := gen.Params{N: 60, M: 8, K: 6}
	cases := []struct {
		name string
		run  func(t *testing.T) goldenRow
		want goldenRow
	}{
		{"rounding/unrelated-anchor/1", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Unrelated(rngFor(1), anchor), nil)
		}, goldenRow{Makespan: 249, LowerBound: 185.637588108333, LPIters: 300, Accepted: 185.63777374610675}},
		{"rounding/unrelated-anchor/2", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Unrelated(rngFor(2), anchor), nil)
		}, goldenRow{Makespan: 237, LowerBound: 192.62670589798896, LPIters: 242, Accepted: 192.62689852488748}},
		{"rounding/restricted-anchor/1", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Restricted(rngFor(1), anchor), nil)
		}, goldenRow{Makespan: 679, LowerBound: 568.6418321474445, LPIters: 554, Accepted: 568.6424007898453}},
		{"rounding/restricted-anchor/2", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Restricted(rngFor(2), anchor), nil)
		}, goldenRow{Makespan: 573, LowerBound: 506.55936481080295, LPIters: 647, Accepted: 506.55987137067433}},
		{"rounding/unrelated-tiny/3", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Unrelated(rngFor(3), tiny), nil)
		}, goldenRow{Makespan: 59, LowerBound: 46, LPIters: 36, Guesses: 3, Accepted: 47.453647970964596}},
		{"rounding/unrelated-tiny/4", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Unrelated(rngFor(4), tiny), nil)
		}, goldenRow{Makespan: 86, LowerBound: 55, LPIters: 71, Guesses: 4, Accepted: 56.55827752440132}},
		{"rounding/restricted-tiny/5", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Restricted(rngFor(5), tiny), nil)
		}, goldenRow{Makespan: 173, LowerBound: 135, LPIters: 43, Accepted: 111.36757283594282}},
		{"rounding/unrelated-tiny-bus/3", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Unrelated(rngFor(3), tiny), seededBus(50))
		}, goldenRow{Makespan: 59, LowerBound: 46, LPIters: 36, Guesses: 2, Accepted: 47.453647970964596, Lowers: 2, Uppers: 4}},
		{"rounding/unrelated-anchor-bus/1", func(t *testing.T) goldenRow {
			return goldenRounding(t, gen.Unrelated(rngFor(1), anchor), seededBus(1e18))
		}, goldenRow{Makespan: 249, LowerBound: 185.637588108333, LPIters: 300, Accepted: 185.63777374610675, Lowers: 2, Uppers: 2}},
		{"ptas/uniform/1", func(t *testing.T) goldenRow {
			return goldenPTAS(t, gen.Uniform(rngFor(1), ptasShape), 0.25, nil)
		}, goldenRow{Makespan: 168, LowerBound: 119.75, Guesses: 3}},
		{"ptas/uniform/2", func(t *testing.T) goldenRow {
			return goldenPTAS(t, gen.Uniform(rngFor(2), ptasShape), 0.5, nil)
		}, goldenRow{Makespan: 182, LowerBound: 124.125, Guesses: 2}},
		{"ptas/identical/1", func(t *testing.T) goldenRow {
			return goldenPTAS(t, gen.Identical(rngFor(1), ptasShape), 0.25, nil)
		}, goldenRow{Makespan: 524, LowerBound: 399.1666666666667, Guesses: 3}},
		{"ptas/identical/2", func(t *testing.T) goldenRow {
			return goldenPTAS(t, gen.Identical(rngFor(2), ptasShape), 0.5, nil)
		}, goldenRow{Makespan: 451, LowerBound: 331, Guesses: 2}},
		{"ptas/uniform-bus/3", func(t *testing.T) goldenRow {
			return goldenPTAS(t, gen.Uniform(rngFor(3), ptasShape), 0.25, seededBus(200))
		}, goldenRow{Makespan: 271, LowerBound: 172.8181818181818, Guesses: 2, Lowers: 1, Uppers: 3}},
		{"ra2/1", func(t *testing.T) goldenRow {
			return goldenSpecial(t, gen.RestrictedClassUniform(rngFor(1), classShape), special.ScheduleClassUniformRA)
		}, goldenRow{Makespan: 470, LowerBound: 435.875, Lowers: 1, Uppers: 3}},
		{"ra2/2", func(t *testing.T) goldenRow {
			return goldenSpecial(t, gen.RestrictedClassUniform(rngFor(2), classShape), special.ScheduleClassUniformRA)
		}, goldenRow{Makespan: 427, LowerBound: 386.2454775198519, Lowers: 2, Uppers: 3}},
		{"pt3/1", func(t *testing.T) goldenRow {
			return goldenSpecial(t, gen.UnrelatedClassUniform(rngFor(1), classShape), special.ScheduleClassUniformPT)
		}, goldenRow{Makespan: 133, LowerBound: 96.41513511126087, Lowers: 7, Uppers: 2}},
		{"pt3/2", func(t *testing.T) goldenRow {
			return goldenSpecial(t, gen.UnrelatedClassUniform(rngFor(2), classShape), special.ScheduleClassUniformPT)
		}, goldenRow{Makespan: 213, LowerBound: 142.71271847398918, Lowers: 5, Uppers: 3}},
		{"splittable/1", func(t *testing.T) goldenRow {
			return goldenSplittable(t, gen.Unrelated(rngFor(1), gen.Params{N: 30, M: 6, K: 5}))
		}, goldenRow{Makespan: 369.95, LowerBound: 188.16666666666666}},
		{"splittable/2", func(t *testing.T) goldenRow {
			return goldenSplittable(t, gen.RestrictedClassUniform(rngFor(2), gen.Params{N: 30, M: 6, K: 5}))
		}, goldenRow{Makespan: 347, LowerBound: 251.84653938380714}},
		{"engine/rounding-anchor/3", func(t *testing.T) goldenRow {
			return goldenEngine(t, gen.Unrelated(rngFor(3), anchor), WithAlgorithm(AlgoRounding), WithSeed(3))
		}, goldenRow{Makespan: 235, LowerBound: 192.8645221527664, LPIters: 247}},
		{"engine/ptas/4", func(t *testing.T) goldenRow {
			return goldenEngine(t, gen.Uniform(rngFor(4), ptasShape), WithAlgorithm(AlgoPTAS), WithEps(0.25))
		}, goldenRow{Makespan: 177.33333333333334, LowerBound: 122.17647058823529}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("got  %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
