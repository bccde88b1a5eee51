package ptas

import (
	"math"
	"slices"

	"repro/internal/core"
)

// prep is the part of the simplification (Lemmas 2.2–2.4) that does not
// depend on the makespan guess T. It is built once per solve; simplify
// derives each guess's instance from it.
type prep struct {
	in *core.Instance

	eps, delta, gamma float64

	// maxNeed is the largest p_j + s_{k_j} and vmax the largest original
	// speed: every job fits alone with its setup on some machine exactly
	// when maxNeed ≤ T·vmax (up to core.Eps).
	maxNeed, vmax float64

	// Machines kept after the slow-machine removal, sorted by rounded
	// speed ascending (stable on original index).
	speed []float64 // rounded speeds
	origM []int     // simplified machine -> original machine
	vmin  float64   // smallest rounded speed
	// hi[i] is the larger of the two groups machine i belongs to (every
	// speed lies in exactly two consecutive groups); the machine leaves
	// the DP's sliding window after group hi[i]. G is the largest group
	// index holding a machine.
	hi []int
	G  int

	origVmin float64 // smallest original speed among the kept machines
	// The Lemma 2.2 machine-removal charge and the Lemma 2.4 speed-rounding
	// charge; neither depends on T.
	factorRemoval, factorSpeed float64

	// unlifted is the job side for every guess whose lift floor lifts no
	// size, that is, while the floor is at most minSize, the smallest job
	// or setup size.
	unlifted *jobSet
	minSize  float64
}

// jobSet is the job side of a simplified instance for one lift floor:
// sizes lifted to the floor (Lemma 2.2), small jobs replaced by
// placeholders (Lemma 2.3), sizes rounded up (Lemma 2.4).
type jobSet struct {
	// Jobs of the simplified instance: the kept original jobs plus the
	// placeholders of Lemma 2.3, with rounded sizes.
	size    []float64
	class   []int
	origJob []int // -1 for placeholders
	// order lists the simplified jobs by size descending, ties by index
	// ascending: the order of the DP's per-(group, class) job lists.
	order []int

	// setup[k] is the rounded setup size; phSize[k] the (pre-rounding)
	// placeholder size ε·s_k used when mapping back; smallJobs[k] the
	// original jobs replaced by placeholders.
	setup     []float64
	phSize    []float64
	smallJobs [][]int

	// liftVolume is the volume the lift added; factorPH and factorSize are
	// the Lemma 2.3 placeholder charge and the realized size-rounding
	// ratio.
	liftVolume           float64
	factorPH, factorSize float64
}

// simp is the simplified instance for one makespan guess T, together with
// everything needed to map a schedule on it back to the original instance.
type simp struct {
	*prep
	*jobSet

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
}

// simplify builds the simplified instance for guess T, or returns nil when
// T is trivially infeasible (some job cannot fit anywhere even alone).
func simplify(in *core.Instance, T float64, eps float64) *simp {
	return prepare(in, eps).simplify(T)
}

// prepare builds the guess-independent part of the simplification.
func prepare(in *core.Instance, eps float64) *prep {
	p := &prep{
		in:      in,
		eps:     eps,
		delta:   eps * eps,
		gamma:   eps * eps * eps,
		minSize: math.Inf(1),
	}
	origSpeed := func(i int) float64 {
		if in.Kind == core.Uniform {
			return in.Speed[i]
		}
		return 1
	}
	for j := 0; j < in.N; j++ {
		p.maxNeed = math.Max(p.maxNeed, in.JobSize[j]+in.SetupSize[in.Class[j]])
		p.minSize = math.Min(p.minSize, in.JobSize[j])
	}
	for _, sk := range in.SetupSize {
		p.minSize = math.Min(p.minSize, sk)
	}

	// Step 1 (Lemma 2.2): drop machines slower than ε·vmax/m.
	for i := 0; i < in.M; i++ {
		if v := origSpeed(i); v > p.vmax {
			p.vmax = v
		}
	}
	minKeep := eps * p.vmax / float64(in.M)
	keptSpeeds := make([]float64, 0, in.M)
	p.origM = make([]int, 0, in.M)
	removedSpeed := 0.0
	for i := 0; i < in.M; i++ {
		if v := origSpeed(i); v >= minKeep-core.Eps {
			p.origM = append(p.origM, i)
			keptSpeeds = append(keptSpeeds, v)
		} else {
			removedSpeed += v
		}
	}
	p.origVmin = math.Inf(1)
	for _, v := range keptSpeeds {
		if v < p.origVmin {
			p.origVmin = v
		}
	}
	// Lemma 2.2 charge: the removed machines' load (≤ T·Σ_removed v_i)
	// moves onto the fastest machine.
	p.factorRemoval = 1 + removedSpeed/p.vmax

	// Step 3 (Lemma 2.4), machine side: round speeds down geometrically,
	// charging the realized rounding ratio.
	p.factorSpeed = 1.0
	p.speed = make([]float64, len(keptSpeeds))
	for i, v := range keptSpeeds {
		p.speed[i] = roundSpeedDown(v, p.origVmin, eps)
		if r := v / p.speed[i]; r > p.factorSpeed {
			p.factorSpeed = r
		}
	}
	// Sort machines by rounded speed ascending (stable on original index).
	// Insertion sort: m is small and this keeps it stable.
	for a := 1; a < len(p.speed); a++ {
		for b := a; b > 0 && p.speed[b] < p.speed[b-1]; b-- {
			p.speed[b], p.speed[b-1] = p.speed[b-1], p.speed[b]
			p.origM[b], p.origM[b-1] = p.origM[b-1], p.origM[b]
		}
	}
	p.vmin = p.speed[0]

	// Group bookkeeping.
	p.hi = make([]int, len(p.speed))
	for i, v := range p.speed {
		p.hi[i] = int(math.Floor(math.Log(v/p.vmin)/math.Log(1/p.gamma)+1e-9)) + 1
		p.G = max(p.G, p.hi[i])
	}

	p.unlifted = p.jobs(0)
	return p
}

// simplify derives the simplified instance for guess T, or returns nil when
// T is trivially infeasible.
func (p *prep) simplify(T float64) *simp {
	// Upfront rejection on the *original* data: every job must fit with
	// its setup on some machine.
	if p.maxNeed > T*p.vmax+core.Eps {
		return nil
	}
	// Step 1 continued: lift negligible job and setup sizes.
	js := p.unlifted
	if floor := p.eps * p.origVmin * T / float64(p.in.N+p.in.K); floor > p.minSize {
		js = p.jobs(floor)
	}
	// Lemma 2.2 charge: the lift volume lands on some machine, costing at
	// most liftVolume/(v_min·T) relative to its capacity.
	factorLift := 1.0
	if js.liftVolume > 0 {
		factorLift = 1 + js.liftVolume/(p.origVmin*T)
	}
	s := &simp{prep: p, jobSet: js, T: T}
	s.T1 = T * p.factorRemoval * factorLift * js.factorPH * js.factorSize * p.factorSpeed
	return s
}

// jobs builds the job side for lift floor floor: floor 0 lifts nothing.
func (p *prep) jobs(floor float64) *jobSet {
	in, eps := p.in, p.eps
	js := &jobSet{}
	liftedJob := make([]float64, in.N)
	for j := range liftedJob {
		liftedJob[j] = math.Max(in.JobSize[j], floor)
		js.liftVolume += liftedJob[j] - in.JobSize[j]
	}
	liftedSetup := make([]float64, in.K)
	for k := range liftedSetup {
		liftedSetup[k] = math.Max(in.SetupSize[k], floor)
		js.liftVolume += liftedSetup[k] - in.SetupSize[k]
	}

	// Step 2 (Lemma 2.3): replace jobs with p_j ≤ ε·s_k by placeholders of
	// size ε·s_k.
	js.size = make([]float64, 0, in.N)
	js.class = make([]int, 0, in.N)
	js.origJob = make([]int, 0, in.N)
	js.phSize = make([]float64, in.K)
	js.smallJobs = make([][]int, in.K)
	smallTotal := make([]float64, in.K)
	for j := 0; j < in.N; j++ {
		k := in.Class[j]
		if liftedJob[j] <= eps*liftedSetup[k]+core.Eps {
			js.smallJobs[k] = append(js.smallJobs[k], j)
			smallTotal[k] += liftedJob[j]
		} else {
			js.size = append(js.size, liftedJob[j])
			js.class = append(js.class, k)
			js.origJob = append(js.origJob, j)
		}
	}
	// Lemma 2.3 charge: one (1+ε) when any placeholder exists.
	js.factorPH = 1.0
	for k := 0; k < in.K; k++ {
		js.phSize[k] = eps * liftedSetup[k]
		if len(js.smallJobs[k]) == 0 {
			continue
		}
		js.factorPH = 1 + eps
		count := int(math.Ceil(smallTotal[k]/js.phSize[k] - core.Eps))
		if count < 1 {
			count = 1
		}
		for c := 0; c < count; c++ {
			js.size = append(js.size, js.phSize[k])
			js.class = append(js.class, k)
			js.origJob = append(js.origJob, -1)
		}
	}

	// Step 3 (Lemma 2.4): round sizes up on the grid 2^e·(1+ℓε), charging
	// the realized rounding ratios.
	js.factorSize = 1.0
	for j := range js.size {
		r := roundSizeUp(js.size[j], eps)
		if js.size[j] > 0 && r/js.size[j] > js.factorSize {
			js.factorSize = r / js.size[j]
		}
		js.size[j] = r
	}
	js.setup = make([]float64, in.K)
	for k := 0; k < in.K; k++ {
		js.setup[k] = roundSizeUp(liftedSetup[k], eps)
		if liftedSetup[k] > 0 && js.setup[k]/liftedSetup[k] > js.factorSize {
			js.factorSize = js.setup[k] / liftedSetup[k]
		}
	}
	js.order = make([]int, len(js.size))
	for j := range js.order {
		js.order[j] = j
	}
	// A total order (index breaks ties), so the unstable sort is exact.
	// Sizes are never NaN, so plain comparisons order them.
	size := js.size
	slices.SortFunc(js.order, func(a, b int) int {
		switch pa, pb := size[a], size[b]; {
		case pa > pb:
			return -1
		case pa < pb:
			return 1
		}
		return a - b
	})
	return js
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

// inGroup reports whether machine i belongs to group g.
func (s *simp) inGroup(i, g int) bool {
	return g == s.hi[i] || g == s.hi[i]-1
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
	phCount := make([]int, len(s.speed)*in.K) // [simplified machine·K + class] -> placeholders
	for j, i := range assign {
		if s.origJob[j] >= 0 {
			sched.Assign[s.origJob[j]] = s.origM[i]
		} else {
			phCount[i*in.K+s.class[j]]++
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
			if c := phCount[i*in.K+k]; c > 0 {
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
