package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
)

// Governor is the engine's global concurrency budget: a weighted semaphore
// sized in compute lanes (default GOMAXPROCS) that every parallel layer of
// a solve acquires from — batch dispatch workers, portfolio member
// launches, speculative search width. It implements core.TokenBudget for
// the acquire-or-degrade layers and adds the blocking Acquire the engine
// uses to admit solves, so the whole process never runs more concurrent
// compute lanes than the budget regardless of how batch size, portfolio
// fan-out and search width multiply.
//
// Deadlock freedom rests on the split contract (see core.TokenBudget): the
// blocking Acquire is only ever called by a goroutine holding no tokens
// (the engine admitting a solve), while in-solve layers use the
// non-blocking TryAcquire and degrade on a short grant.
type Governor struct {
	mu       sync.Mutex
	cap      int
	inUse    int
	peak     int
	waits    int64
	waitTime time.Duration
	maxWait  time.Duration
	degrade  int64
	waiters  []chan struct{} // FIFO: each is granted one token at hand-off
}

var _ core.TokenBudget = (*Governor)(nil)

// NewGovernor builds a governor with the given token budget; values < 1
// select runtime.GOMAXPROCS(0).
func NewGovernor(budget int) *Governor {
	if budget < 1 {
		budget = runtime.GOMAXPROCS(0)
	}
	return &Governor{cap: budget}
}

// Cap implements core.TokenBudget.
func (g *Governor) Cap() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cap
}

// Acquire blocks until one token is free (or ctx is done) and takes it:
// the admission path that guarantees every solve one compute lane. It must
// not be called by a goroutine already holding tokens — that is what the
// non-blocking TryAcquire is for.
func (g *Governor) Acquire(ctx context.Context) error {
	g.mu.Lock()
	if g.inUse < g.cap {
		g.take(1)
		g.mu.Unlock()
		return nil
	}
	g.waits++
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	// The wait clock starts under the lock, as the waiter registers: anyone
	// who observes the wait in Stats then reads a clock that already runs.
	start := time.Now()
	g.mu.Unlock()
	record := func() {
		wait := time.Since(start)
		g.mu.Lock()
		g.waitTime += wait
		if wait > g.maxWait {
			g.maxWait = wait
		}
		g.mu.Unlock()
	}
	select {
	case <-ch:
		record()
		return nil // the releaser transferred its token to us
	case <-ctx.Done():
		defer record()
		g.mu.Lock()
		for i, w := range g.waiters {
			if w == ch {
				g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
				g.mu.Unlock()
				return ctx.Err()
			}
		}
		g.mu.Unlock()
		// Lost the race: a token was handed to ch between ctx firing and
		// the queue scan. Give it back so it is not leaked.
		<-ch
		g.Release(1)
		return ctx.Err()
	}
}

// TryAcquire implements core.TokenBudget: grab up to n extra tokens
// without blocking, recording a degradation when the grant falls short.
func (g *Governor) TryAcquire(n int) int {
	if n <= 0 {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	granted := g.cap - g.inUse
	if granted > n {
		granted = n
	}
	if granted < 0 {
		granted = 0
	}
	if granted > 0 {
		g.take(granted)
	}
	if granted < n {
		g.degrade++
	}
	return granted
}

// Release implements core.TokenBudget. Freed tokens are handed to blocked
// Acquire callers in FIFO order before becoming generally available.
func (g *Governor) Release(n int) {
	if n <= 0 {
		return
	}
	g.mu.Lock()
	g.inUse -= n
	if g.inUse < 0 {
		panic("engine: Governor.Release without matching acquire")
	}
	for len(g.waiters) > 0 && g.inUse < g.cap {
		ch := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.take(1)
		close(ch)
	}
	g.mu.Unlock()
}

// take grabs n tokens; the caller holds g.mu.
func (g *Governor) take(n int) {
	g.inUse += n
	if g.inUse > g.peak {
		g.peak = g.inUse
	}
}

// GovernorStats is a snapshot of the governor's live occupancy counters.
type GovernorStats struct {
	// Budget is the total token budget (WithWorkers, default GOMAXPROCS).
	Budget int
	// InUse is the number of tokens currently held.
	InUse int
	// Peak is the highest InUse observed since the engine was built.
	Peak int
	// Waits counts solve admissions that had to block for a token (the
	// batch/portfolio/solve front door queuing under load).
	Waits int64
	// WaitTime is the cumulative wall-clock time solve admissions spent
	// blocked for a token — with Waits, the admission-latency half of the
	// online workload's end-to-end latency budget (a per-event latency
	// percentile hides whether time went to solving or to queuing; this
	// separates them).
	WaitTime time.Duration
	// MaxWait is the longest single admission wait observed.
	MaxWait time.Duration
	// Degradations counts TryAcquire calls granted fewer tokens than asked:
	// portfolio races that fell back toward sequential and speculative
	// search rounds that ran narrower than their configured width.
	Degradations int64
}

// Stats returns a consistent snapshot of the occupancy counters.
func (g *Governor) Stats() GovernorStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GovernorStats{
		Budget:       g.cap,
		InUse:        g.inUse,
		Peak:         g.peak,
		Waits:        g.waits,
		WaitTime:     g.waitTime,
		MaxWait:      g.maxWait,
		Degradations: g.degrade,
	}
}
