package sched

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// warmChainKinds is the pinned chain's delta sequence: one of each kind.
var warmChainKinds = []DeltaKind{DeltaJobArrive, DeltaJobDepart, DeltaJobResize, DeltaMachineAdd, DeltaMachineRemove}

// deltaOf draws one delta of kind k applicable to in from the seeded
// delta-stream generator restricted to that kind.
func deltaOf(rng *rand.Rand, in *Instance, k DeltaKind) Delta {
	p := gen.StreamParams{Events: 1}
	switch k {
	case DeltaJobArrive:
		p.ArriveW = 1
	case DeltaJobDepart:
		p.DepartW = 1
	case DeltaJobResize:
		p.ResizeW = 1
	case DeltaMachineAdd:
		p.AddW = 1
	default:
		p.RemoveW = 1
	}
	return gen.DeltaStream(rng, in, p)[0]
}

// TestWarmResolveChainPins pins the warm path: an Engine.Open of a seeded
// unrelated M=8/N=60/K=6 instance, then one Resolve per delta kind. Each
// Resolve patches the retained relaxation and re-solves it from its
// previous basis (the dual simplex after an RHS or bound change, the primal
// phases from a start basis after a column change), or rebuilds it cold
// when the delta defeats patching; LPIters counts the retained
// relaxation's pivots since it was built. Row 0 is the Open; rows 1–5 are
// the Resolves in warmChainKinds order. Makespan, lower bound and LP
// iterations must match these recorded values bit for bit. Seeds 2, 4 and
// 10 reach the dual simplex on more than the first delta.
func TestWarmResolveChainPins(t *testing.T) {
	chains := []struct {
		seed int64
		want []pinRow
	}{
		{1, []pinRow{
			{Makespan: 194, LowerBound: 150.60423737233046, LPIters: 150},
			{Makespan: 194, LowerBound: 150.7922381096554, LPIters: 163},
			{Makespan: 194, LowerBound: 150.4883114223858, LPIters: 164},
			{Makespan: 179, LowerBound: 149.49275919263647, LPIters: 202},
			{Makespan: 151, LowerBound: 128.95319977348512, LPIters: 285},
			{Makespan: 184, LowerBound: 156.3933306974755, LPIters: 398},
		}},
		{2, []pinRow{
			{Makespan: 241, LowerBound: 177.0194542228519, LPIters: 178},
			{Makespan: 250, LowerBound: 180.49050847099363, LPIters: 206},
			{Makespan: 236, LowerBound: 178.48341356950536, LPIters: 209},
			{Makespan: 304, LowerBound: 181.79733034873797, LPIters: 408},
			{Makespan: 213, LowerBound: 153.0482402986498, LPIters: 517},
			{Makespan: 259, LowerBound: 190.98766716945855, LPIters: 459},
		}},
		{4, []pinRow{
			{Makespan: 252, LowerBound: 181.1661160039766, LPIters: 181},
			{Makespan: 255, LowerBound: 186.76850277825108, LPIters: 204},
			{Makespan: 255, LowerBound: 185.8203821716015, LPIters: 204},
			{Makespan: 271, LowerBound: 189.7575991068025, LPIters: 160},
			{Makespan: 225, LowerBound: 161.61759672411796, LPIters: 244},
			{Makespan: 234, LowerBound: 189.53331202647533, LPIters: 375},
		}},
		{10, []pinRow{
			{Makespan: 247, LowerBound: 191.61868583359004, LPIters: 201},
			{Makespan: 247, LowerBound: 192.89083937277144, LPIters: 204},
			{Makespan: 247, LowerBound: 191.46169596869512, LPIters: 207},
			{Makespan: 259, LowerBound: 191.8538760255658, LPIters: 248},
			{Makespan: 221, LowerBound: 152.65525471851302, LPIters: 358},
			{Makespan: 221, LowerBound: 175.79333889266516, LPIters: 394},
		}},
	}
	for _, c := range chains {
		t.Run(fmt.Sprint(c.seed), func(t *testing.T) {
			ctx := context.Background()
			rng := rngFor(c.seed)
			in := gen.Unrelated(rng, gen.Params{N: 60, M: 8, K: 6})
			eng, err := New()
			if err != nil {
				t.Fatal(err)
			}
			h, err := eng.Open(ctx, in, WithSeed(c.seed))
			if err != nil {
				t.Fatal(err)
			}
			got := []pinRow{pinOf(h.Result())}
			for _, k := range warmChainKinds {
				d := deltaOf(rng, h.Instance(), k)
				if h, err = eng.Resolve(ctx, h, d, WithSeed(c.seed)); err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				got = append(got, pinOf(h.Result()))
			}
			for i, g := range got {
				if g != c.want[i] {
					t.Errorf("row %d: got  %#v\nwant %#v", i, g, c.want[i])
				}
			}
		})
	}
}
