package dual

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/boundtest"
	"repro/internal/core"
)

func testInstance(t *testing.T) *core.Instance {
	t.Helper()
	in, err := core.NewIdentical([]float64{4, 4}, []int{0, 1}, []float64{1, 1}, 2)
	if err != nil {
		t.Fatalf("NewIdentical: %v", err)
	}
	return in
}

func TestSearchConvergesToThreshold(t *testing.T) {
	in := testInstance(t)
	perfect := &core.Schedule{Assign: []int{0, 1}} // makespan 5
	// Decider accepts exactly when T >= 5 and returns the perfect schedule.
	out := Search(context.Background(), Config{Instance: in, Lower: 1, Upper: 100, Precision: 0.01}, func(T float64) (*core.Schedule, bool) {
		if T >= 5 {
			return perfect, true
		}
		return nil, false
	})
	if out.Schedule == nil {
		t.Fatal("no schedule found")
	}
	if math.Abs(out.Makespan-5) > core.Eps {
		t.Errorf("makespan = %v, want 5", out.Makespan)
	}
	// Lower bound must be below 5 but close to it (within the precision).
	if out.LowerBound >= 5 || out.LowerBound < 5/1.02 {
		t.Errorf("lower bound = %v, want just below 5", out.LowerBound)
	}
	if out.Guesses == 0 {
		t.Error("no guesses recorded")
	}
}

func TestSearchAllRejectedKeepsFallback(t *testing.T) {
	in := testInstance(t)
	fb := &core.Schedule{Assign: []int{0, 0}} // makespan 10
	out := Search(context.Background(), Config{Instance: in, Lower: 1, Upper: 100, Precision: 0.05, Fallback: fb}, func(T float64) (*core.Schedule, bool) {
		return nil, false
	})
	if out.Schedule != fb {
		t.Error("fallback schedule not kept")
	}
	if math.Abs(out.Makespan-10) > core.Eps {
		t.Errorf("makespan = %v, want 10 (fallback)", out.Makespan)
	}
	// Every guess rejected: lower bound should have climbed near ub.
	if out.LowerBound < 90 {
		t.Errorf("lower bound = %v, want near 100", out.LowerBound)
	}
}

func TestSearchZeroUpperBound(t *testing.T) {
	in := testInstance(t)
	fb := core.NewSchedule(2)
	out := Search(context.Background(), Config{Instance: in, Lower: 0, Upper: 0, Precision: 0.05, Fallback: fb}, func(T float64) (*core.Schedule, bool) {
		t.Error("decider called despite ub=0")
		return nil, false
	})
	if out.Guesses != 0 || out.Schedule != fb {
		t.Error("zero upper bound not short-circuited")
	}
}

func TestSearchZeroLowerBound(t *testing.T) {
	in := testInstance(t)
	// lb=0 must not cause sqrt(0*ub)=0 loops forever.
	calls := 0
	out := Search(context.Background(), Config{Instance: in, Lower: 0, Upper: 16, Precision: 0.05}, func(T float64) (*core.Schedule, bool) {
		calls++
		if calls > 200 {
			t.Fatal("search did not terminate")
		}
		return &core.Schedule{Assign: []int{0, 1}}, true
	})
	if out.Schedule == nil {
		t.Fatal("no schedule")
	}
}

// TestSearchWithBoundsPublishes is the satellite requirement: every
// rejected guess lands on the bus as a certified lower bound, and every
// accepted schedule's makespan as an incumbent — while the search runs,
// not after it.
func TestSearchWithBoundsPublishes(t *testing.T) {
	in := testInstance(t)
	bus := boundtest.New()
	perfect := &core.Schedule{Assign: []int{0, 1}} // makespan 5
	out := Search(context.Background(), Config{Instance: in, Lower: 1, Upper: 100, Precision: 0.01, Bus: bus}, func(T float64) (*core.Schedule, bool) {
		if T >= 5 {
			return perfect, true
		}
		return nil, false
	})
	if len(bus.LowerPubs) == 0 {
		t.Fatal("no rejected guess was published as a lower bound")
	}
	if bus.L >= 5 || bus.L < 5/1.02 {
		t.Errorf("published lower bound = %v, want just below 5", bus.L)
	}
	if math.Abs(bus.L-out.LowerBound) > core.Eps {
		t.Errorf("bus lower %v != outcome lower %v", bus.L, out.LowerBound)
	}
	if bus.U != 5 {
		t.Errorf("published incumbent = %v, want 5 (the accepted schedule)", bus.U)
	}
}

// TestSearchWithBoundsConsumesIncumbent: guesses at or above a live
// incumbent are accepted without invoking the decider, and a foreign lower
// bound raises the search floor.
func TestSearchWithBoundsConsumesIncumbent(t *testing.T) {
	in := testInstance(t)
	bus := boundtest.New()
	bus.U = 5   // another racer already holds a makespan-5 schedule
	bus.L = 4.9 // and a near-matching certificate
	var calls int
	out := Search(context.Background(), Config{Instance: in, Lower: 1, Upper: 100, Precision: 0.01, Bus: bus}, func(T float64) (*core.Schedule, bool) {
		calls++
		if T >= 5 {
			t.Errorf("decider invoked at T=%v despite incumbent 5", T)
		}
		return nil, false
	})
	if out.Skipped == 0 {
		t.Error("no guesses skipped against the incumbent")
	}
	if out.LowerBound < 4.9 {
		t.Errorf("foreign lower bound not consumed: LowerBound = %v", out.LowerBound)
	}
	if calls > 3 {
		t.Errorf("decider ran %d times inside [4.9, 5] at precision 0.01, want at most a few", calls)
	}
}

func TestSearchKeepsBestScheduleAcrossGuesses(t *testing.T) {
	in := testInstance(t)
	good := &core.Schedule{Assign: []int{0, 1}} // makespan 5
	bad := &core.Schedule{Assign: []int{0, 0}}  // makespan 10
	first := true
	out := Search(context.Background(), Config{Instance: in, Lower: 1, Upper: 100, Precision: 0.05}, func(T float64) (*core.Schedule, bool) {
		if first {
			first = false
			return good, true
		}
		return bad, true // later guesses return worse schedules
	})
	if math.Abs(out.Makespan-5) > core.Eps {
		t.Errorf("makespan = %v, want 5 (best across guesses)", out.Makespan)
	}
}

func TestRunReportsAccepted(t *testing.T) {
	in := testInstance(t)
	perfect := &core.Schedule{Assign: []int{0, 1}} // makespan 5
	out := Search(context.Background(), Config{Instance: in, Lower: 1, Upper: 100, Precision: 0.01}, func(T float64) (*core.Schedule, bool) {
		if T >= 5 {
			return perfect, true
		}
		return nil, false
	})
	// Accepted is the final upper bracket edge: an accept-backed guess just
	// above the threshold, within precision of the lower bound.
	if out.Accepted < 5 || out.Accepted > 5*1.02 {
		t.Errorf("Accepted = %v, want in [5, 5.1]", out.Accepted)
	}
	if out.Accepted < out.LowerBound {
		t.Errorf("Accepted %v below LowerBound %v", out.Accepted, out.LowerBound)
	}
	// A search whose bracket is already closed keeps the caller's Upper as
	// the accepted edge without any guesses.
	out2 := Search(context.Background(), Config{Instance: in, Lower: 10, Upper: 10.05, Precision: 0.01}, func(T float64) (*core.Schedule, bool) {
		t.Fatalf("decider invoked on closed bracket")
		return nil, false
	})
	if out2.Accepted != 10.05 {
		t.Errorf("closed-bracket Accepted = %v, want 10.05", out2.Accepted)
	}
}

// textbookBisection is the reference the search is compared against: the
// multiplicative binary search written out as in the dual approximation
// literature, with no bus, no fallback and no cancellation.
func textbookBisection(lb, ub, prec, theta float64) (lower, upper float64, guesses int) {
	lo, hi := lb, ub
	for hi/lo > 1+prec {
		t := math.Sqrt(lo * hi)
		guesses++
		if t >= theta {
			hi = t
		} else {
			lo = t
		}
	}
	return lo, hi, guesses
}

// TestSearchMatchesTextbookBisection: over random monotone threshold
// deciders, Search must visit exactly the guesses of the textbook
// bisection — same certified lower bound, same accepted edge, same guess
// count — and return the witness once the threshold is inside the bracket.
func TestSearchMatchesTextbookBisection(t *testing.T) {
	in := testInstance(t)
	witness := &core.Schedule{Assign: []int{0, 1}} // makespan 5 under in
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ub := 10 + rng.Float64()*1000
		lb := ub * (0.001 + rng.Float64()*0.1)
		theta := lb + (ub-lb)*(0.05+0.9*rng.Float64())
		prec := []float64{0.001, 0.01, 0.05}[trial%3]
		out := Search(context.Background(), Config{Instance: in, Lower: lb, Upper: ub, Precision: prec}, func(T float64) (*core.Schedule, bool) {
			if T >= theta {
				return witness, true
			}
			return nil, false
		})
		wantLo, wantHi, wantGuesses := textbookBisection(lb, ub, prec, theta)
		if out.Err != nil || out.Skipped != 0 {
			t.Fatalf("trial %d: err %v, skipped %d", trial, out.Err, out.Skipped)
		}
		if out.LowerBound != wantLo || out.Accepted != wantHi || out.Guesses != wantGuesses {
			t.Fatalf("trial %d (theta %g in [%g, %g], prec %g): got lower %g accepted %g guesses %d, textbook %g %g %d",
				trial, theta, lb, ub, prec, out.LowerBound, out.Accepted, out.Guesses, wantLo, wantHi, wantGuesses)
		}
		if wantHi < ub && out.Schedule != witness {
			t.Fatalf("trial %d: an accepted guess did not return its witness", trial)
		}
	}
}

// TestRunMidSearchCancellation: cancelling the search context from inside
// a guess stops the search before the next guess, reports the context
// error, keeps the fallback, and discards the interrupted rejection instead
// of certifying it.
func TestRunMidSearchCancellation(t *testing.T) {
	in := testInstance(t)
	fallback := &core.Schedule{Assign: []int{0, 0}}
	bus := boundtest.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	out := Search(ctx, Config{Instance: in, Lower: 1, Upper: 1000, Precision: 0.01, Fallback: fallback, Bus: bus}, func(T float64) (*core.Schedule, bool) {
		calls++
		if calls == 2 {
			cancel() // kill the search from inside the second evaluation
		}
		return nil, false
	})
	if out.Err == nil {
		t.Fatal("cancelled search reported no error")
	}
	if calls != 2 || out.Guesses != 2 {
		t.Errorf("decider ran %d times (Guesses %d), want 2: the search must stop at the cancellation", calls, out.Guesses)
	}
	if out.Schedule != fallback {
		t.Error("fallback schedule lost on cancellation")
	}
	// Only the first rejection is a certificate; the second returned after
	// the cancellation and must be neither committed nor published.
	if first := math.Sqrt(1000); out.LowerBound != first || bus.L != first {
		t.Errorf("lower bound %g, bus lower %g, want only the first guess %g certified", out.LowerBound, bus.L, first)
	}
	if out.Accepted != 1000 {
		t.Errorf("Accepted = %g, want the untouched upper edge 1000", out.Accepted)
	}
}
