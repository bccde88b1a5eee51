package engine

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestGovernorTryAcquireBounds(t *testing.T) {
	g := NewGovernor(3)
	if g.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", g.Cap())
	}
	if got := g.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire(2) = %d, want 2", got)
	}
	// Only one token left: the grant is short and counts a degradation.
	if got := g.TryAcquire(5); got != 1 {
		t.Fatalf("TryAcquire(5) = %d, want 1", got)
	}
	if got := g.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire(1) at saturation = %d, want 0", got)
	}
	st := g.Stats()
	if st.InUse != 3 || st.Peak != 3 || st.Budget != 3 {
		t.Fatalf("stats = %+v, want inUse=peak=budget=3", st)
	}
	if st.Degradations != 2 {
		t.Fatalf("degradations = %d, want 2", st.Degradations)
	}
	g.Release(3)
	if st := g.Stats(); st.InUse != 0 {
		t.Fatalf("inUse after release = %d, want 0", st.InUse)
	}
	if got := g.TryAcquire(0); got != 0 {
		t.Fatalf("TryAcquire(0) = %d, want 0", got)
	}
	if st := g.Stats(); st.Degradations != 2 {
		t.Fatalf("TryAcquire(0) must not count a degradation: %d", st.Degradations)
	}
}

func TestGovernorAcquireBlocksAndHandsOff(t *testing.T) {
	g := NewGovernor(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- g.Acquire(context.Background()) }()
	// Wait until the waiter has registered; its wait clock runs from then,
	// so every wait measured from t0 on is a lower bound on its WaitTime.
	for g.Stats().Waits != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	t0 := time.Now()
	// The waiter must be blocked, not granted.
	select {
	case err := <-got:
		t.Fatalf("second Acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	blocked := time.Since(t0)
	g.Release(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke after Release")
	}
	st := g.Stats()
	if st.InUse != 1 {
		t.Fatalf("token not transferred: inUse = %d, want 1", st.InUse)
	}
	if st.Waits != 1 {
		t.Fatalf("waits = %d, want 1", st.Waits)
	}
	// The waiter blocked at least from t0 until Release (≥ the 20ms probe
	// above), and that wait must be visible in both the cumulative and the
	// max counters.
	if blocked < 20*time.Millisecond || st.WaitTime < blocked {
		t.Fatalf("WaitTime = %v, want >= %v (t0 to Release, >= 20ms)", st.WaitTime, blocked)
	}
	if st.MaxWait < blocked || st.MaxWait > st.WaitTime {
		t.Fatalf("MaxWait = %v, want in [%v, WaitTime=%v]", st.MaxWait, blocked, st.WaitTime)
	}
	g.Release(1)
}

func TestGovernorWaitTimeAccumulates(t *testing.T) {
	g := NewGovernor(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	done := make(chan error, waiters)
	for w := 0; w < waiters; w++ {
		go func() {
			if err := g.Acquire(context.Background()); err != nil {
				done <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
			g.Release(1)
			done <- nil
		}()
	}
	time.Sleep(10 * time.Millisecond)
	g.Release(1)
	for w := 0; w < waiters; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Waits != waiters {
		t.Fatalf("waits = %d, want %d", st.Waits, waiters)
	}
	// Each waiter's blocked interval is counted in full, so the cumulative
	// wait exceeds any single max wait under FIFO hand-off chains.
	if st.WaitTime < st.MaxWait {
		t.Fatalf("WaitTime %v < MaxWait %v", st.WaitTime, st.MaxWait)
	}
	if st.MaxWait <= 0 {
		t.Fatalf("MaxWait = %v, want > 0", st.MaxWait)
	}
	// A cancelled waiter's time-in-queue is recorded too.
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := g.Stats().WaitTime
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); err == nil {
		t.Fatal("Acquire at saturation with expiring ctx succeeded")
	}
	if after := g.Stats().WaitTime; after <= before {
		t.Fatalf("cancelled wait not recorded: WaitTime %v -> %v", before, after)
	}
	g.Release(1)
}

func TestGovernorAcquireHonorsContext(t *testing.T) {
	g := NewGovernor(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- g.Acquire(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-got:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	// The abandoned waiter must not have leaked a slot.
	g.Release(1)
	if got := g.TryAcquire(1); got != 1 {
		t.Fatalf("token leaked by cancelled waiter: TryAcquire = %d, want 1", got)
	}
	g.Release(1)
}

func TestGovernorConcurrentInvariant(t *testing.T) {
	const budget = 3
	g := NewGovernor(budget)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := g.Acquire(context.Background()); err != nil {
					t.Error(err)
					return
				}
				extra := g.TryAcquire(w % 4)
				g.Release(extra + 1)
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.InUse != 0 {
		t.Fatalf("inUse after drain = %d, want 0", st.InUse)
	}
	if st.Peak > budget {
		t.Fatalf("peak %d exceeded budget %d", st.Peak, budget)
	}
}

func TestGovernorDefaultBudget(t *testing.T) {
	if got := NewGovernor(0).Cap(); got < 1 {
		t.Fatalf("default budget = %d, want >= 1", got)
	}
}
