package core

import (
	"fmt"
	"math"
)

// Instance is a setup-time scheduling instance. All four machine
// environments materialize the full matrices P and S; the base fields
// (JobSize, SetupSize, Speed, Eligible) are populated only for the
// environments to which they apply and are retained so structure-exploiting
// algorithms (e.g. the uniform-machines PTAS) need not reverse-engineer them.
//
// Instances are treated as immutable by all algorithms in this module; use
// Clone before mutating a shared instance. NewIdentical gives all machines
// one shared row of P and of S; Clone copies every row separately.
type Instance struct {
	// Kind is the machine environment.
	Kind Kind
	// N, M and K are the number of jobs, machines and setup classes.
	N, M, K int
	// Class maps each job to its setup class in [0, K).
	Class []int

	// P is the m×n processing-time matrix; P[i][j] = p_{ij}. Inf marks an
	// ineligible pair.
	P [][]float64
	// S is the m×K setup-time matrix; S[i][k] = s_{ik}. Inf marks a class
	// that can never be set up on the machine.
	S [][]float64

	// JobSize holds p_j for identical, uniform and restricted instances
	// (nil for unrelated).
	JobSize []float64
	// SetupSize holds s_k for identical, uniform and restricted instances
	// (nil for unrelated).
	SetupSize []float64
	// Speed holds v_i for uniform instances (nil otherwise).
	Speed []float64
	// Eligible holds, for restricted-assignment instances, the per-job
	// machine eligibility: Eligible[j][i] reports whether job j may run on
	// machine i (nil otherwise).
	Eligible [][]bool
}

// NewIdentical builds an identical-machines instance from job sizes p (len
// n), job classes class (len n, values in [0,K)), setup sizes s (len K) and a
// machine count m. Every machine's row of P is p and every row of S is s, so
// all rows of each matrix share one backing row.
func NewIdentical(p []float64, class []int, s []float64, m int) (*Instance, error) {
	inst, err := NewUniform(p, class, s, []float64{1})
	if err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: no machines")
	}
	inst.Kind, inst.M, inst.Speed = Identical, m, nil
	rowP, rowS := inst.P[0], inst.S[0]
	inst.P, inst.S = make([][]float64, m), make([][]float64, m)
	for i := 0; i < m; i++ {
		inst.P[i], inst.S[i] = rowP, rowS
	}
	return inst, nil
}

// NewUniform builds a uniformly-related-machines instance from job sizes p,
// job classes class, setup sizes s and machine speeds v (len m, all > 0).
// Processing times are p_j/v_i and setup times s_k/v_i.
func NewUniform(p []float64, class []int, s []float64, v []float64) (*Instance, error) {
	n, k, m := len(p), len(s), len(v)
	if err := checkBase(p, class, s); err != nil {
		return nil, err
	}
	if m == 0 {
		return nil, fmt.Errorf("core: no machines")
	}
	for i, vi := range v {
		if !(vi > 0) || !IsFinite(vi) {
			return nil, fmt.Errorf("core: speed of machine %d is %v, want > 0", i, vi)
		}
	}
	inst := &Instance{
		Kind: Uniform, N: n, M: m, K: k,
		Class:     append([]int(nil), class...),
		JobSize:   append([]float64(nil), p...),
		SetupSize: append([]float64(nil), s...),
		Speed:     append([]float64(nil), v...),
	}
	inst.P = make([][]float64, m)
	inst.S = make([][]float64, m)
	for i := 0; i < m; i++ {
		inst.P[i] = make([]float64, n)
		inst.S[i] = make([]float64, k)
		for j := 0; j < n; j++ {
			inst.P[i][j] = p[j] / v[i]
		}
		for c := 0; c < k; c++ {
			inst.S[i][c] = s[c] / v[i]
		}
	}
	return inst, nil
}

// NewRestricted builds a restricted-assignment instance. eligible[j] lists
// the machines on which job j may run (it must be non-empty for every job).
// The setup time of class k on machine i is s_k if some job of class k is
// eligible on i, and Inf otherwise.
func NewRestricted(p []float64, class []int, s []float64, m int, eligible [][]int) (*Instance, error) {
	n, k := len(p), len(s)
	if err := checkBase(p, class, s); err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: no machines")
	}
	if len(eligible) != n {
		return nil, fmt.Errorf("core: eligibility lists for %d jobs, want %d", len(eligible), n)
	}
	inst := &Instance{
		Kind: RestrictedAssignment, N: n, M: m, K: k,
		Class:     append([]int(nil), class...),
		JobSize:   append([]float64(nil), p...),
		SetupSize: append([]float64(nil), s...),
	}
	inst.Eligible = make([][]bool, n)
	inst.P = make([][]float64, m)
	inst.S = make([][]float64, m)
	for i := 0; i < m; i++ {
		inst.P[i] = make([]float64, n)
		inst.S[i] = make([]float64, k)
		for j := 0; j < n; j++ {
			inst.P[i][j] = Inf
		}
		for c := 0; c < k; c++ {
			inst.S[i][c] = Inf
		}
	}
	for j, ms := range eligible {
		if len(ms) == 0 {
			return nil, fmt.Errorf("core: job %d has no eligible machine", j)
		}
		inst.Eligible[j] = make([]bool, m)
		for _, i := range ms {
			if i < 0 || i >= m {
				return nil, fmt.Errorf("core: job %d eligible on machine %d, want [0,%d)", j, i, m)
			}
			inst.Eligible[j][i] = true
			inst.P[i][j] = p[j]
			inst.S[i][class[j]] = s[class[j]]
		}
	}
	return inst, nil
}

// NewUnrelated builds an unrelated-machines instance from an m×n processing
// matrix, job classes, and an m×K setup matrix. Inf entries mark ineligible
// job-machine and class-machine pairs; every job needs at least one finite
// processing time.
func NewUnrelated(p [][]float64, class []int, s [][]float64) (*Instance, error) {
	m := len(p)
	if m == 0 {
		return nil, fmt.Errorf("core: no machines")
	}
	n := len(p[0])
	if len(s) != m {
		return nil, fmt.Errorf("core: setup matrix has %d rows, want %d", len(s), m)
	}
	k := len(s[0])
	if len(class) != n {
		return nil, fmt.Errorf("core: %d class labels, want %d", len(class), n)
	}
	inst := &Instance{
		Kind: Unrelated, N: n, M: m, K: k,
		Class: append([]int(nil), class...),
		P:     make([][]float64, m),
		S:     make([][]float64, m),
	}
	for i := 0; i < m; i++ {
		if len(p[i]) != n || len(s[i]) != k {
			return nil, fmt.Errorf("core: ragged matrix row %d", i)
		}
		inst.P[i] = append([]float64(nil), p[i]...)
		inst.S[i] = append([]float64(nil), s[i]...)
		for j := 0; j < n; j++ {
			if pv := p[i][j]; pv < 0 || math.IsNaN(pv) {
				return nil, fmt.Errorf("core: p[%d][%d] = %v, want >= 0", i, j, pv)
			}
		}
		for c := 0; c < k; c++ {
			if sv := s[i][c]; sv < 0 || math.IsNaN(sv) {
				return nil, fmt.Errorf("core: s[%d][%d] = %v, want >= 0", i, c, sv)
			}
		}
	}
	for j := 0; j < n; j++ {
		if class[j] < 0 || class[j] >= k {
			return nil, fmt.Errorf("core: job %d has class %d, want [0,%d)", j, class[j], k)
		}
		ok := false
		for i := 0; i < m; i++ {
			if IsFinite(p[i][j]) && IsFinite(s[i][class[j]]) {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("core: job %d has no machine with finite processing and setup time", j)
		}
	}
	return inst, nil
}

func checkBase(p []float64, class []int, s []float64) error {
	if len(p) == 0 {
		return fmt.Errorf("core: no jobs")
	}
	if len(class) != len(p) {
		return fmt.Errorf("core: %d class labels, want %d", len(class), len(p))
	}
	if len(s) == 0 {
		return fmt.Errorf("core: no setup classes")
	}
	for j, pj := range p {
		if pj < 0 || !IsFinite(pj) {
			return fmt.Errorf("core: job %d has size %v, want finite >= 0", j, pj)
		}
	}
	for k, sk := range s {
		if sk < 0 || !IsFinite(sk) {
			return fmt.Errorf("core: class %d has setup size %v, want finite >= 0", k, sk)
		}
	}
	for j, c := range class {
		if c < 0 || c >= len(s) {
			return fmt.Errorf("core: job %d has class %d, want [0,%d)", j, c, len(s))
		}
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Kind: in.Kind, N: in.N, M: in.M, K: in.K}
	out.Class = append([]int(nil), in.Class...)
	out.JobSize = append([]float64(nil), in.JobSize...)
	out.SetupSize = append([]float64(nil), in.SetupSize...)
	out.Speed = append([]float64(nil), in.Speed...)
	if in.P != nil {
		out.P = make([][]float64, len(in.P))
		for i := range in.P {
			out.P[i] = append([]float64(nil), in.P[i]...)
		}
	}
	if in.S != nil {
		out.S = make([][]float64, len(in.S))
		for i := range in.S {
			out.S[i] = append([]float64(nil), in.S[i]...)
		}
	}
	if in.Eligible != nil {
		out.Eligible = make([][]bool, len(in.Eligible))
		for j := range in.Eligible {
			out.Eligible[j] = append([]bool(nil), in.Eligible[j]...)
		}
	}
	return out
}

// JobsOfClass returns, for each class k, the (sorted) list of jobs with
// Class[j] == k.
func (in *Instance) JobsOfClass() [][]int {
	byClass := make([][]int, in.K)
	for j, k := range in.Class {
		byClass[k] = append(byClass[k], j)
	}
	return byClass
}

// ClassWork returns, for each machine i and class k, the total workload
// Σ_{j: class j = k} p_{ij} (the quantity written p̄_{ik} in Section 3.3 of
// the paper). The result is Inf if any job of the class is ineligible on i.
func (in *Instance) ClassWork() [][]float64 {
	w := make([][]float64, in.M)
	for i := 0; i < in.M; i++ {
		w[i] = make([]float64, in.K)
		for j := 0; j < in.N; j++ {
			w[i][in.Class[j]] += in.P[i][j]
		}
	}
	return w
}

// Eligibility reports whether job j may be processed on machine i within
// makespan bound t (finite processing time, finite setup, and p_{ij} +
// s_{i,class(j)} fits under t when t is finite; pass Inf for no bound).
func (in *Instance) Eligibility(i, j int, t float64) bool {
	p := in.P[i][j]
	s := in.S[i][in.Class[j]]
	if !IsFinite(p) || !IsFinite(s) {
		return false
	}
	return p+s <= t+Eps
}

// TotalWork returns Σ_j min_i p_{ij}, a crude volume measure used by lower
// bounds and sanity checks.
func (in *Instance) TotalWork() float64 {
	total := 0.0
	for j := 0; j < in.N; j++ {
		best := Inf
		for i := 0; i < in.M; i++ {
			if in.P[i][j] < best {
				best = in.P[i][j]
			}
		}
		total += best
	}
	return total
}

// Validate checks internal consistency of the instance (matrix shapes, class
// ranges, environment-specific invariants). Constructors always produce
// valid instances; Validate is for instances deserialized from files.
func (in *Instance) Validate() error {
	if in.N <= 0 || in.M <= 0 || in.K <= 0 {
		return fmt.Errorf("core: non-positive dimension n=%d m=%d K=%d", in.N, in.M, in.K)
	}
	if len(in.Class) != in.N {
		return fmt.Errorf("core: %d class labels, want %d", len(in.Class), in.N)
	}
	for j, c := range in.Class {
		if c < 0 || c >= in.K {
			return fmt.Errorf("core: job %d has class %d, want [0,%d)", j, c, in.K)
		}
	}
	if len(in.P) != in.M || len(in.S) != in.M {
		return fmt.Errorf("core: matrices have %d/%d rows, want %d", len(in.P), len(in.S), in.M)
	}
	for i := 0; i < in.M; i++ {
		if len(in.P[i]) != in.N {
			return fmt.Errorf("core: P row %d has %d entries, want %d", i, len(in.P[i]), in.N)
		}
		if len(in.S[i]) != in.K {
			return fmt.Errorf("core: S row %d has %d entries, want %d", i, len(in.S[i]), in.K)
		}
		for j, pv := range in.P[i] {
			if pv < 0 || math.IsNaN(pv) {
				return fmt.Errorf("core: p[%d][%d] = %v", i, j, pv)
			}
		}
		for k, sv := range in.S[i] {
			if sv < 0 || math.IsNaN(sv) {
				return fmt.Errorf("core: s[%d][%d] = %v", i, k, sv)
			}
		}
	}
	if in.Kind == Uniform {
		if len(in.Speed) != in.M {
			return fmt.Errorf("core: %d speeds, want %d", len(in.Speed), in.M)
		}
		for i, v := range in.Speed {
			if !(v > 0) || !IsFinite(v) {
				return fmt.Errorf("core: speed of machine %d is %v", i, v)
			}
		}
	}
	if in.Kind != Unrelated {
		if len(in.JobSize) != in.N || len(in.SetupSize) != in.K {
			return fmt.Errorf("core: base sizes missing for %v instance", in.Kind)
		}
	}
	// The PTAS, Lemma 2.1 LPT, RA-2 and the volume bound read the base
	// fields, every other algorithm reads P and S: they must agree.
	switch in.Kind {
	case Identical, Uniform:
		if err := in.checkDerived(); err != nil {
			return err
		}
	case RestrictedAssignment:
		if err := in.checkRestricted(); err != nil {
			return err
		}
	}
	for j := 0; j < in.N; j++ {
		ok := false
		for i := 0; i < in.M; i++ {
			if in.Eligibility(i, j, Inf) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: job %d has no feasible machine", j)
		}
	}
	return nil
}

// checkDerived reports whether an identical or uniform instance's P and S
// are exactly what NewIdentical and NewUniform derive from its base fields:
// P[i][j] = JobSize[j]/v_i and S[i][k] = SetupSize[k]/v_i bit for bit, with
// v_i = Speed[i] on uniform machines and 1 on identical ones. It returns
// nil when they are, and otherwise an error naming the first entry (or base
// field length) that disagrees. Rows that NewIdentical shares are checked
// once.
func (in *Instance) checkDerived() error {
	if len(in.JobSize) != in.N || len(in.SetupSize) != in.K {
		return fmt.Errorf("core: base sizes missing for %v instance", in.Kind)
	}
	if len(in.P) != in.M || len(in.S) != in.M {
		return fmt.Errorf("core: matrices have %d/%d rows, want %d", len(in.P), len(in.S), in.M)
	}
	if in.Kind == Uniform && len(in.Speed) != in.M {
		return fmt.Errorf("core: %d speeds, want %d", len(in.Speed), in.M)
	}
	var prevP, prevS []float64
	for i := 0; i < in.M; i++ {
		rowP, rowS := in.P[i], in.S[i]
		if len(rowP) != in.N || len(rowS) != in.K {
			return fmt.Errorf("core: P/S row %d has %d/%d entries, want %d/%d", i, len(rowP), len(rowS), in.N, in.K)
		}
		v := 1.0
		if in.Kind == Uniform {
			v = in.Speed[i]
		} else if i > 0 && in.N > 0 && in.K > 0 && &rowP[0] == &prevP[0] && &rowS[0] == &prevS[0] {
			continue // a shared row, already checked
		}
		prevP, prevS = rowP, rowS
		for j, p := range rowP {
			if want := in.JobSize[j] / v; math.Float64bits(p) != math.Float64bits(want) {
				return fmt.Errorf("core: p[%d][%d] = %v disagrees with jobSize[%d] (want %v)", i, j, p, j, want)
			}
		}
		for k, s := range rowS {
			if want := in.SetupSize[k] / v; math.Float64bits(s) != math.Float64bits(want) {
				return fmt.Errorf("core: s[%d][%d] = %v disagrees with setupSize[%d] (want %v)", i, k, s, k, want)
			}
		}
	}
	return nil
}

// checkRestricted reports whether a restricted-assignment instance's
// Eligible, P and S are what NewRestricted derives from its base fields:
// one eligibility row of length M per job, P[i][j] = JobSize[j] where job j
// is eligible on machine i and +Inf elsewhere, and S[i][k] = SetupSize[k]
// where some job of class k is eligible on machine i and +Inf elsewhere,
// bit for bit. It assumes the shapes Validate checks before it.
func (in *Instance) checkRestricted() error {
	if len(in.Eligible) != in.N {
		return fmt.Errorf("core: eligibility rows for %d jobs, want %d", len(in.Eligible), in.N)
	}
	setup := make([]bool, in.M*in.K) // setup[i*K+k]: a job of class k may run on i
	for j, row := range in.Eligible {
		if len(row) != in.M {
			return fmt.Errorf("core: eligibility row %d has %d entries, want %d", j, len(row), in.M)
		}
		for i, ok := range row {
			want := Inf
			if ok {
				want = in.JobSize[j]
				setup[i*in.K+in.Class[j]] = true
			}
			if p := in.P[i][j]; math.Float64bits(p) != math.Float64bits(want) {
				return fmt.Errorf("core: p[%d][%d] = %v disagrees with jobSize[%d] and eligible[%d] (want %v)", i, j, p, j, j, want)
			}
		}
	}
	for i, row := range in.S {
		for k, s := range row {
			want := Inf
			if setup[i*in.K+k] {
				want = in.SetupSize[k]
			}
			if math.Float64bits(s) != math.Float64bits(want) {
				return fmt.Errorf("core: s[%d][%d] = %v disagrees with setupSize[%d] and eligible (want %v)", i, k, s, k, want)
			}
		}
	}
	return nil
}

// String returns a short human-readable summary.
func (in *Instance) String() string {
	return fmt.Sprintf("%v instance: n=%d jobs, m=%d machines, K=%d classes", in.Kind, in.N, in.M, in.K)
}
