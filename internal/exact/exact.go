// Package exact computes optimal makespans for small instances by
// depth-first branch-and-bound, and certified lower bounds for instances too
// large to solve exactly. The experiment harness measures approximation
// ratios of the paper's algorithms against these values.
package exact

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// MaxJobs is the default job-count guard above which BranchAndBound refuses
// to run (the search is exponential in n).
const MaxJobs = 16

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxJobs overrides the job-count guard (0 means MaxJobs).
	MaxJobs int
	// NodeLimit caps the number of explored search nodes; 0 means no cap.
	// When the cap is hit, the returned schedule is the best found so far
	// and the search is reported as not proven optimal.
	NodeLimit int64
	// UpperBound primes the search with a known feasible makespan (e.g.
	// from a heuristic); 0 means start from the trivial single-machine
	// bound.
	UpperBound float64
	// Bounds, when non-nil, connects the search to a live bound exchange
	// (e.g. the engine portfolio's incumbent bus): the pruning threshold is
	// primed with Bounds.Upper(), re-read at every node expansion so
	// incumbents found by concurrent racers cut this search too, every
	// improved schedule found here is published back, and on exhaustion the
	// final threshold is published as a certified lower bound.
	Bounds core.BoundBus
}

// StopReason says why a branch-and-bound run ended.
type StopReason int

const (
	// StopProven: the search space was exhausted; the result is optimal.
	StopProven StopReason = iota
	// StopTooLarge: the instance exceeded the MaxJobs guard and the search
	// never started.
	StopTooLarge
	// StopNodeLimit: the NodeLimit cap was hit; the result is the best
	// schedule found so far.
	StopNodeLimit
	// StopCancelled: the context was cancelled or its deadline expired.
	StopCancelled
)

// String returns a short human-readable cause, suitable for Result notes.
func (r StopReason) String() string {
	switch r {
	case StopProven:
		return "proven optimal"
	case StopTooLarge:
		return "instance exceeds job guard"
	case StopNodeLimit:
		return "node limit reached"
	case StopCancelled:
		return "context cancelled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Status reports how a branch-and-bound run ended.
type Status struct {
	// Proven is true when optimality was proven (search space exhausted).
	Proven bool
	// Reason says why the search stopped when Proven is false (and is
	// StopProven when it is true).
	Reason StopReason
	// Nodes is the number of search nodes explored.
	Nodes int64
	// Bound is the final pruning threshold: the best makespan known to the
	// search at exit, whether found locally, primed via Options.UpperBound,
	// or read from Options.Bounds. When Proven is true the search exhausted
	// every assignment with makespan below it, so Bound is a certified
	// lower bound on the optimum (and equals the optimum whenever some
	// schedule achieving it is known). +Inf when the search never started.
	Bound float64
}

// checkEvery is the node interval at which the searcher polls the context;
// a power of two so the test compiles to a mask.
const checkEvery = 1024

// BranchAndBound returns an optimal schedule and its makespan, observing
// ctx: a cancelled or expired context stops the search and returns the best
// schedule found so far (Status.Reason = StopCancelled). Instances with
// more than Options.MaxJobs jobs yield (nil, 0, Status{Reason:
// StopTooLarge}) immediately.
func BranchAndBound(ctx context.Context, in *core.Instance, opt Options) (*core.Schedule, float64, Status) {
	guard := opt.MaxJobs
	if guard == 0 {
		guard = MaxJobs
	}
	if in.N > guard {
		return nil, 0, Status{Reason: StopTooLarge, Bound: math.Inf(1)}
	}
	s := &searcher{in: in, nodeLimit: opt.NodeLimit, ctx: ctx, bounds: opt.Bounds}
	s.prepare()
	s.bound = math.Inf(1)
	if opt.UpperBound > 0 {
		s.bound = opt.UpperBound
	}
	if s.bounds != nil {
		if u := s.bounds.Upper(); u < s.bound {
			s.bound = u
		}
	}
	s.bestMs = math.Inf(1)
	s.cur = core.NewSchedule(in.N)
	s.loads = make([]float64, in.M)
	s.classOn = make([][]bool, in.M)
	for i := range s.classOn {
		s.classOn[i] = make([]bool, in.K)
	}
	s.dfs(0)
	st := Status{Proven: !s.limitHit, Reason: s.stopReason, Nodes: s.nodes, Bound: s.bound}
	if st.Proven && s.bounds != nil && core.IsFinite(s.bound) {
		// Exhausting every assignment below the threshold certifies it as a
		// lower bound on the optimum, even when the schedule achieving it
		// lives in another racer.
		s.bounds.PublishLower(s.bound)
	}
	if s.best == nil {
		return nil, 0, st
	}
	return s.best, s.bestMs, st
}

type searcher struct {
	in         *core.Instance
	ctx        context.Context
	bounds     core.BoundBus // optional live bound exchange; nil when standalone
	order      []int         // jobs sorted by decreasing min processing time
	sufMin     []float64     // suffix sums of min_i p_{ij} over the order
	sameRows   [][]bool      // sameRows[a][b]: machines a and b fully identical
	cur        *core.Schedule
	best       *core.Schedule
	bestMs     float64 // makespan of best (+Inf while none found locally)
	bound      float64 // pruning threshold: min of bestMs, priming, live incumbent
	loads      []float64
	classOn    [][]bool
	nodes      int64
	nodeLimit  int64
	limitHit   bool
	stopReason StopReason
}

func (s *searcher) prepare() {
	in := s.in
	s.order = make([]int, in.N)
	minP := make([]float64, in.N)
	for j := 0; j < in.N; j++ {
		s.order[j] = j
		m := math.Inf(1)
		for i := 0; i < in.M; i++ {
			if in.Eligibility(i, j, math.Inf(1)) && in.P[i][j] < m {
				m = in.P[i][j]
			}
		}
		minP[j] = m
	}
	sort.Slice(s.order, func(a, b int) bool { return minP[s.order[a]] > minP[s.order[b]] })
	s.sufMin = make([]float64, in.N+1)
	for idx := in.N - 1; idx >= 0; idx-- {
		s.sufMin[idx] = s.sufMin[idx+1] + minP[s.order[idx]]
	}
	// Machines with identical processing and setup rows are interchangeable;
	// record the relation once for symmetry pruning.
	s.sameRows = make([][]bool, in.M)
	for a := 0; a < in.M; a++ {
		s.sameRows[a] = make([]bool, in.M)
		for b := 0; b < in.M; b++ {
			s.sameRows[a][b] = equalRows(in, a, b)
		}
	}
}

func equalRows(in *core.Instance, a, b int) bool {
	for j := 0; j < in.N; j++ {
		if in.P[a][j] != in.P[b][j] {
			return false
		}
	}
	for k := 0; k < in.K; k++ {
		if in.S[a][k] != in.S[b][k] {
			return false
		}
	}
	return true
}

// lower bound for the partial assignment: max of the current max load and
// the average of (current total load + cheapest completion of the rest).
func (s *searcher) lowerBound(idx int) float64 {
	maxLoad, sumLoad := 0.0, 0.0
	for _, l := range s.loads {
		sumLoad += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	avg := (sumLoad + s.sufMin[idx]) / float64(s.in.M)
	if avg > maxLoad {
		return avg
	}
	return maxLoad
}

func (s *searcher) dfs(idx int) {
	if s.limitHit {
		return
	}
	s.nodes++
	if s.nodeLimit > 0 && s.nodes > s.nodeLimit {
		s.limitHit = true
		s.stopReason = StopNodeLimit
		return
	}
	if s.nodes%checkEvery == 0 && s.ctx.Err() != nil {
		s.limitHit = true
		s.stopReason = StopCancelled
		return
	}
	if s.bounds != nil {
		// Re-read the live incumbent at every expansion: a better schedule
		// published by a concurrent racer tightens this search immediately.
		if u := s.bounds.Upper(); u < s.bound {
			s.bound = u
		}
	}
	if s.lowerBound(idx) >= s.bound-core.Eps {
		return
	}
	in := s.in
	if idx == in.N {
		ms := 0.0
		for _, l := range s.loads {
			if l > ms {
				ms = l
			}
		}
		if ms < s.bound-core.Eps {
			s.bound = ms
			s.bestMs = ms
			s.best = s.cur.Clone()
			if s.bounds != nil {
				s.bounds.PublishUpper(ms)
			}
		}
		return
	}
	j := s.order[idx]
	k := in.Class[j]
	// Symmetry breaking: if an earlier machine i2 is fully interchangeable
	// with i (identical processing and setup rows) and currently has the
	// same load and class profile, the subtree rooted at "j → i" is
	// isomorphic to "j → i2", so only the first is explored.
	for i := 0; i < in.M; i++ {
		if !in.Eligibility(i, j, math.Inf(1)) {
			continue
		}
		delta := in.P[i][j]
		addedSetup := false
		if !s.classOn[i][k] {
			delta += in.S[i][k]
			addedSetup = true
		}
		if s.loads[i]+delta >= s.bound-core.Eps {
			continue
		}
		skip := false
		for i2 := 0; i2 < i; i2++ {
			if s.sameRows[i][i2] && math.Abs(s.loads[i2]-s.loads[i]) < core.Eps &&
				sameProfile(s, i, i2) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		s.loads[i] += delta
		if addedSetup {
			s.classOn[i][k] = true
		}
		s.cur.Assign[j] = i
		s.dfs(idx + 1)
		s.cur.Assign[j] = -1
		if addedSetup {
			s.classOn[i][k] = false
		}
		s.loads[i] -= delta
	}
}

// sameProfile reports whether machines a and b currently host exactly the
// same set of classes (used for symmetry pruning; only sound when the two
// machines also agree on loads and on the job's processing/setup times).
func sameProfile(s *searcher, a, b int) bool {
	for k := range s.classOn[a] {
		if s.classOn[a][k] != s.classOn[b][k] {
			return false
		}
	}
	return true
}

// VolumeLowerBound returns a certified lower bound on the optimal makespan:
// the maximum of
//
//   - the cheapest single placement max_j min_i (p_{ij} + s_{i,k_j}),
//   - total volume: (Σ_j min_i p_{ij} + Σ_k min_i s_{ik}) / m for identical
//     machines, and the speed-weighted analogue for uniform machines
//     (every class pays its setup at least once somewhere).
//
// For unrelated machines the volume term uses per-job minima, which remains
// valid (any schedule processes j somewhere at cost ≥ min_i p_{ij}).
func VolumeLowerBound(in *core.Instance) float64 {
	// Cheapest single placement. P is scanned row by row; best[j] is the
	// running minimum over the machines seen so far.
	best := make([]float64, in.N)
	for j := range best {
		best[j] = math.Inf(1)
	}
	// An Inf sum never beats the +Inf start, and Validate rules out NaN
	// and negative entries, so no finiteness test is needed.
	for i, row := range in.P {
		srow := in.S[i]
		for j, p := range row {
			if v := p + srow[in.Class[j]]; v < best[j] {
				best[j] = v
			}
		}
	}
	lb := 0.0
	for _, v := range best {
		if v > lb {
			lb = v
		}
	}
	// The classes with at least one job, summed in class order so that
	// the float sum is the same on every call.
	used := make([]bool, in.K)
	for _, k := range in.Class {
		used[k] = true
	}
	// Volume: total minimal work plus one minimal setup per class, spread
	// over the machines. For uniform machines, "capacity" per unit time is
	// Σ v_i and job j consumes p_j capacity; for identical, v_i = 1; for
	// unrelated we use min_i p_{ij} over m machines (weaker but valid).
	switch in.Kind {
	case core.Uniform:
		totalSpeed := 0.0
		for _, v := range in.Speed {
			totalSpeed += v
		}
		vol := 0.0
		for _, pj := range in.JobSize {
			vol += pj
		}
		for k, u := range used {
			if u {
				vol += in.SetupSize[k]
			}
		}
		if v := vol / totalSpeed; v > lb {
			lb = v
		}
	default:
		for j := range best {
			best[j] = math.Inf(1)
		}
		for _, row := range in.P {
			for j, p := range row {
				if p < best[j] {
					best[j] = p
				}
			}
		}
		vol := 0.0
		for _, v := range best {
			vol += v
		}
		for k, u := range used {
			if !u {
				continue
			}
			minS := math.Inf(1)
			for i := 0; i < in.M; i++ {
				if in.S[i][k] < minS {
					minS = in.S[i][k]
				}
			}
			vol += minS
		}
		if v := vol / float64(in.M); v > lb {
			lb = v
		}
	}
	return lb
}
