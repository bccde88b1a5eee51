package core

// TokenBudget is the cooperative concurrency budget a portfolio race draws
// its extra member lanes from: a weighted semaphore owned by the engine
// (its governor) and shared by every compute lane in the process — batch
// dispatch and portfolio member launch. One token stands for one goroutine
// allowed to burn a core.
//
// The cooperative contract that makes a shared budget deadlock-free:
//
//   - every solve is admitted with one guaranteed token (acquired blocking
//     by the engine before the solver runs, released when the solve ends),
//     so a running solver always owns at least one lane;
//   - everything beyond that lane is acquire-or-degrade: TryAcquire never
//     blocks, and a race granted fewer tokens than it asked for runs its
//     members on fewer lanes (at the extreme, priority-sequentially)
//     instead of waiting. A solver holding its guaranteed token therefore
//     never sleeps on the budget, and budget=1 degrades every layer to
//     sequential execution rather than deadlock.
//
// Implementations must be safe for concurrent use; the engine's Governor is
// the canonical one. A nil TokenBudget in an options struct launches every
// portfolio member on its own goroutine.
type TokenBudget interface {
	// TryAcquire grabs up to n extra tokens without blocking and returns
	// how many were granted (0..n). A grant short of n counts as a
	// degradation in the budget's stats.
	TryAcquire(n int) int
	// Release returns n previously acquired tokens.
	Release(n int)
}
