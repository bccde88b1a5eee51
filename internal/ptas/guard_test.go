package ptas

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/boundtest"
	"repro/internal/gen"
)

// TestGuardSuppressesCappedRejections: with a starvation-level node cap
// every rejection is a suspicion, and none of them may reach the shared bus
// as a certified lower bound.
func TestGuardSuppressesCappedRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := gen.Uniform(rng, gen.Params{N: 16, M: 4, K: 3, SpeedMax: 5})
	bus := boundtest.New()
	res, stats, err := Schedule(context.Background(), in, Options{
		Eps:     0.5,
		NodeCap: 1, // every DP run caps immediately
		Bounds:  bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Capped {
		t.Fatal("node cap of 1 did not cap")
	}
	// The only lower bound on the bus is the sound bootstrap one published
	// before the search; no capped rejection may have raised it.
	if bus.L > res.LowerBound+1e-9 {
		t.Errorf("bus lower %g exceeds the sound lower bound %g: a capped rejection leaked", bus.L, res.LowerBound)
	}
	if math.IsInf(res.Makespan, 0) || res.Schedule == nil {
		t.Error("capped run lost the LPT fallback schedule")
	}
}
