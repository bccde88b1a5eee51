package ptas

import (
	"math"

	"repro/internal/core"
)

// simp is the simplified instance for one makespan guess T, together with
// everything needed to map a schedule on it back to the original instance.
type simp struct {
	in *core.Instance

	eps, delta, gamma float64
	// T is the original guess; T1 is the capacity bound the DP works
	// against. The paper charges a flat (1+ε)⁵ (one (1+ε) per
	// simplification step, Lemmas 2.2–2.4); we instantiate each lemma's
	// argument with the inflation *actually incurred* on this instance —
	// machine-removal volume, lifting volume, whether placeholders were
	// created, and the realized size/speed rounding ratios — which is
	// sound for rejection (any schedule with makespan T for the original
	// instance maps to one with makespan ≤ T1 on the simplified instance)
	// and far tighter in practice. T1 ≤ (1+ε)⁵·T always holds.
	T, T1 float64

	// Machines kept after the slow-machine removal, sorted by rounded
	// speed ascending.
	speed []float64 // rounded speeds
	origM []int     // simplified machine -> original machine
	vmin  float64   // smallest rounded speed

	// Jobs of the simplified instance: the kept original jobs plus the
	// placeholders of Lemma 2.3, with rounded sizes.
	size    []float64
	class   []int
	origJob []int // -1 for placeholders

	// setup[k] is the rounded setup size; phSize[k] the (pre-rounding)
	// placeholder size ε·s_k used when mapping back; smallJobs[k] the
	// original jobs replaced by placeholders.
	setup     []float64
	phSize    []float64
	smallJobs [][]int

	// Group structure (see groups below). G is the largest group index
	// holding a machine.
	G int
}

// simplify builds the simplified instance for guess T, or returns nil when
// T is trivially infeasible (some job cannot fit anywhere even alone).
func simplify(in *core.Instance, T float64, eps float64) *simp {
	// Upfront rejection on the *original* data: every job must fit with
	// its setup on some machine.
	origSpeed := func(i int) float64 {
		if in.Kind == core.Uniform {
			return in.Speed[i]
		}
		return 1
	}
	for j := 0; j < in.N; j++ {
		fits := false
		need := in.JobSize[j] + in.SetupSize[in.Class[j]]
		for i := 0; i < in.M; i++ {
			if need <= T*origSpeed(i)+core.Eps {
				fits = true
				break
			}
		}
		if !fits {
			return nil
		}
	}

	s := &simp{
		in:    in,
		eps:   eps,
		delta: eps * eps,
		gamma: eps * eps * eps,
		T:     T,
	}

	// Step 1 (Lemma 2.2): drop machines slower than ε·vmax/m.
	vmax := 0.0
	for i := 0; i < in.M; i++ {
		if v := origSpeed(i); v > vmax {
			vmax = v
		}
	}
	minKeep := eps * vmax / float64(in.M)
	var keptSpeeds []float64
	removedSpeed := 0.0
	for i := 0; i < in.M; i++ {
		if v := origSpeed(i); v >= minKeep-core.Eps {
			s.origM = append(s.origM, i)
			keptSpeeds = append(keptSpeeds, v)
		} else {
			removedSpeed += v
		}
	}
	origVmin := math.Inf(1)
	for _, v := range keptSpeeds {
		if v < origVmin {
			origVmin = v
		}
	}
	// Lemma 2.2 charge: the removed machines' load (≤ T·Σ_removed v_i)
	// moves onto the fastest machine.
	factorRemoval := 1 + removedSpeed/vmax

	// Step 1 continued: lift negligible job and setup sizes.
	floor := eps * origVmin * T / float64(in.N+in.K)
	liftVolume := 0.0
	liftedJob := make([]float64, in.N)
	for j := range liftedJob {
		liftedJob[j] = math.Max(in.JobSize[j], floor)
		liftVolume += liftedJob[j] - in.JobSize[j]
	}
	liftedSetup := make([]float64, in.K)
	for k := range liftedSetup {
		liftedSetup[k] = math.Max(in.SetupSize[k], floor)
		liftVolume += liftedSetup[k] - in.SetupSize[k]
	}
	// Lemma 2.2 charge: the lift volume lands on some machine, costing at
	// most liftVolume/(v_min·T) relative to its capacity.
	factorLift := 1.0
	if liftVolume > 0 {
		factorLift = 1 + liftVolume/(origVmin*T)
	}

	// Step 2 (Lemma 2.3): replace jobs with p_j ≤ ε·s_k by placeholders of
	// size ε·s_k.
	s.phSize = make([]float64, in.K)
	s.smallJobs = make([][]int, in.K)
	smallTotal := make([]float64, in.K)
	for j := 0; j < in.N; j++ {
		k := in.Class[j]
		if liftedJob[j] <= eps*liftedSetup[k]+core.Eps {
			s.smallJobs[k] = append(s.smallJobs[k], j)
			smallTotal[k] += liftedJob[j]
		} else {
			s.size = append(s.size, liftedJob[j])
			s.class = append(s.class, k)
			s.origJob = append(s.origJob, j)
		}
	}
	for k := 0; k < in.K; k++ {
		s.phSize[k] = eps * liftedSetup[k]
		if len(s.smallJobs[k]) == 0 {
			continue
		}
		count := int(math.Ceil(smallTotal[k]/s.phSize[k] - core.Eps))
		if count < 1 {
			count = 1
		}
		for c := 0; c < count; c++ {
			s.size = append(s.size, s.phSize[k])
			s.class = append(s.class, k)
			s.origJob = append(s.origJob, -1)
		}
	}

	// Lemma 2.3 charge: one (1+ε) when any placeholder exists.
	factorPH := 1.0
	for k := 0; k < in.K; k++ {
		if len(s.smallJobs[k]) > 0 {
			factorPH = 1 + eps
			break
		}
	}

	// Step 3 (Lemma 2.4): round sizes up on the grid 2^e·(1+ℓε) and speeds
	// down geometrically, charging the realized rounding ratios.
	factorSize := 1.0
	for j := range s.size {
		r := roundSizeUp(s.size[j], eps)
		if s.size[j] > 0 && r/s.size[j] > factorSize {
			factorSize = r / s.size[j]
		}
		s.size[j] = r
	}
	s.setup = make([]float64, in.K)
	for k := 0; k < in.K; k++ {
		s.setup[k] = roundSizeUp(liftedSetup[k], eps)
		if liftedSetup[k] > 0 && s.setup[k]/liftedSetup[k] > factorSize {
			factorSize = s.setup[k] / liftedSetup[k]
		}
	}
	factorSpeed := 1.0
	s.speed = make([]float64, len(keptSpeeds))
	for i, v := range keptSpeeds {
		s.speed[i] = roundSpeedDown(v, origVmin, eps)
		if r := v / s.speed[i]; r > factorSpeed {
			factorSpeed = r
		}
	}
	s.T1 = T * factorRemoval * factorLift * factorPH * factorSize * factorSpeed
	// Sort machines by rounded speed ascending (stable on original index).
	order := make([]int, len(s.speed))
	for i := range order {
		order[i] = i
	}
	for a := 1; a < len(order); a++ { // insertion sort: m is small and this keeps it stable
		for b := a; b > 0 && s.speed[order[b]] < s.speed[order[b-1]]; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	speed2 := make([]float64, len(order))
	origM2 := make([]int, len(order))
	for pos, idx := range order {
		speed2[pos] = s.speed[idx]
		origM2[pos] = s.origM[idx]
	}
	s.speed, s.origM = speed2, origM2
	s.vmin = s.speed[0]

	// Group bookkeeping.
	s.G = 0
	for i := range s.speed {
		if g := s.groupHi(i); g > s.G {
			s.G = g
		}
	}
	return s
}

// roundSizeUp rounds t up to the next value of the form 2^e·(1 + ℓ·ε) with
// e = ⌊log₂ t⌋ (the rounding of Gálvez et al. used in the paper).
func roundSizeUp(t, eps float64) float64 {
	if t <= 0 {
		return 0
	}
	e := math.Floor(math.Log2(t))
	base := math.Ldexp(1, int(e)) // 2^e, bit-identical to math.Pow(2, e)
	l := math.Ceil((t - base) / (eps * base))
	return base + l*eps*base
}

// roundSpeedDown rounds v down to vmin·(1+ε)^⌊log_{1+ε}(v/vmin)⌋.
func roundSpeedDown(v, vmin, eps float64) float64 {
	k := math.Floor(math.Log(v/vmin) / math.Log(1+eps))
	if k < 0 {
		k = 0
	}
	return vmin * math.Pow(1+eps, k)
}

// --- speed groups (Section 2, "Preliminaries") -----------------------------

// vLow returns v̌_g = vmin/γ^{g−1}, the lower end of group g; the group is
// the speed interval [v̌_g, v̌_{g+2}).
func (s *simp) vLow(g int) float64 {
	return s.vmin * math.Pow(1/s.gamma, float64(g-1))
}

// groupHi returns the larger of the two groups machine i belongs to (every
// speed lies in exactly two consecutive groups). The machine "leaves" the
// DP's sliding window after group groupHi is processed.
func (s *simp) groupHi(i int) int {
	r := math.Log(s.speed[i]/s.vmin) / math.Log(1/s.gamma)
	return int(math.Floor(r+1e-9)) + 1
}

// inGroup reports whether machine i belongs to group g.
func (s *simp) inGroup(i, g int) bool {
	hi := s.groupHi(i)
	return g == hi || g == hi-1
}

// relTol is the relative tolerance for group-boundary comparisons.
const relTol = 1e-9

// nativeGroup returns the native group of a job size p: the smallest g
// whose speed range [v̌_g, v̌_{g+2}) contains the whole interval
// [p/T1, p/(ε·T1)] of speeds for which p is big. May be negative (p small
// everywhere) but never exceeds G for sizes that fit on the fastest
// machine.
func (s *simp) nativeGroup(p float64) int {
	r := math.Log(p/(s.T1*s.vmin)) / math.Log(1/s.gamma)
	g := int(math.Floor(r)) - 2
	for ; ; g++ {
		lowOK := p/s.T1 >= s.vLow(g)*(1-relTol)
		highOK := p/(s.eps*s.T1) <= s.vLow(g+2)*(1+relTol)
		if lowOK && highOK {
			return g
		}
		if g > s.G+6 {
			return g // defensive; callers reject sizes this large upfront
		}
	}
}

// coreGroup returns the core group of class k: the smallest g whose speed
// range contains the whole interval [s_k/T1, s_k/(γ·T1)) of possible
// core-machine speeds of k.
func (s *simp) coreGroup(k int) int {
	sk := s.setup[k]
	if sk <= 0 {
		return math.MinInt32 / 4 // zero setups: treat as far below all groups
	}
	r := math.Log(sk/(s.T1*s.vmin)) / math.Log(1/s.gamma)
	g := int(math.Floor(r)) - 2
	for ; ; g++ {
		lowOK := sk/s.T1 >= s.vLow(g)*(1-relTol)
		highOK := sk/(s.gamma*s.T1) <= s.vLow(g+2)*(1+relTol)
		if lowOK && highOK {
			return g
		}
		if g > s.G+6 {
			return g
		}
	}
}

// isCore reports whether simplified job j is a core job of its class
// (ε·s_k ≤ p < s_k/δ); larger jobs are fringe jobs.
func (s *simp) isCore(j int) bool {
	k := s.class[j]
	if s.setup[k] <= 0 {
		return false // zero setup: every job is a fringe job of its class
	}
	return s.size[j] < s.setup[k]/s.delta
}

// capacity returns the DP load capacity of machine i: v_i·T1.
func (s *simp) capacity(i int) float64 { return s.speed[i] * s.T1 }

// mapBack translates a complete assignment of simplified jobs to simplified
// machines into a schedule for the original instance: real jobs map
// directly, and the small jobs of each class are distributed over the
// machines that received that class's placeholders (over-packing each by at
// most one job, as in Lemma 2.3).
func (s *simp) mapBack(assign []int) *core.Schedule {
	in := s.in
	sched := core.NewSchedule(in.N)
	phCount := map[[2]int]int{} // (simplified machine, class) -> placeholders
	for j, i := range assign {
		if s.origJob[j] >= 0 {
			sched.Assign[s.origJob[j]] = s.origM[i]
		} else {
			phCount[[2]int{i, s.class[j]}]++
		}
	}
	for k := 0; k < in.K; k++ {
		jobs := s.smallJobs[k]
		if len(jobs) == 0 {
			continue
		}
		type slot struct {
			simM     int
			capacity float64
		}
		var slots []slot
		for i := range s.speed {
			if c := phCount[[2]int{i, k}]; c > 0 {
				slots = append(slots, slot{i, float64(c) * s.phSize[k]})
			}
		}
		if len(slots) == 0 {
			// Defensive: placeholders exist whenever small jobs do, so
			// this only triggers on construction bugs; use the fastest
			// machine.
			slots = append(slots, slot{len(s.speed) - 1, math.Inf(1)})
		}
		ji := 0
		for si := 0; si < len(slots) && ji < len(jobs); si++ {
			filled := 0.0
			for ji < len(jobs) && filled < slots[si].capacity-core.Eps {
				j := jobs[ji]
				sched.Assign[j] = s.origM[slots[si].simM]
				filled += in.JobSize[j]
				ji++
			}
		}
		for ; ji < len(jobs); ji++ {
			sched.Assign[jobs[ji]] = s.origM[slots[len(slots)-1].simM]
		}
	}
	return sched
}
