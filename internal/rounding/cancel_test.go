package rounding

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestScheduleDetailedCancellation: a deadline mid-search stops the search
// promptly and still returns a feasible best-so-far schedule.
func TestScheduleDetailedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := gen.Unrelated(rng, gen.Params{N: 60, M: 8, K: 6})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, _, err := ScheduleDetailed(ctx, in, Options{Rng: rand.New(rand.NewSource(1))})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule == nil {
		t.Fatal("no schedule despite greedy fallback")
	}
	if err := res.Schedule.Validate(in); err != nil {
		t.Fatalf("invalid schedule after cancellation: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt stop", elapsed)
	}
	if math.IsInf(res.Makespan, 0) {
		t.Error("no finite makespan after cancellation")
	}
}
