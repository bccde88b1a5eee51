package ptas

import (
	"repro/internal/baseline"
	"repro/internal/core"
)

// baselineLPT returns the makespan of the Lemma 2.1 LPT schedule, shared by
// tests comparing against the PTAS bootstrap.
func baselineLPT(in *core.Instance) (float64, error) {
	sched, err := baseline.Lemma21LPT(in)
	if err != nil {
		return 0, err
	}
	return sched.Makespan(in), nil
}

// newDP builds the DP context for the simplified instance s of one guess.
func newDP(s *simp, nodeCap int64) *dp {
	d := newSolveDP(s.prep, nodeCap)
	d.reset(s)
	return d
}
