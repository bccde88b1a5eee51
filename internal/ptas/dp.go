package ptas

import (
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
)

// fracItem describes one fractional object produced by the DP: a job whose
// volume was pushed to faster groups instead of being placed integrally.
type fracItem struct {
	job    int // simplified job index
	class  int
	group  int  // native group (fringe) or core group (core)
	isCore bool // core job of its class vs fringe job
}

// dp executes the paper's dynamic program over the state graph
// (g, k, ι, ξ, µ, λ) as a depth-first search with memoization of failed
// states. Loads are exact, machine symmetry is canonicalized by sorting
// (speed, load, flag) triples, and jobs within one (group, class) list are
// processed in fixed non-increasing size order, which makes the position
// index an exact stand-in for the multiset ι.
//
// The memo holds the canonical keys of states whose whole subtree failed.
// A key is built when a state is marked failed and, once the memo holds a
// key, on every node's lookup; before the first mark no key is built. On
// the perfbench uniform-ptas pool (n=200/m=16/K=10, ε=0.1; seeds 1 and 7)
// no guess backtracks out of a failed state, so the memo stays empty
// there; it matters on tight instances whose rejected guesses explore and
// mark some 10⁵ states.
type dp struct {
	s   *simp
	cap int64
	ctx context.Context // optional; nil means never cancelled

	nodes     int64
	capped    bool
	cancelled bool

	// static structure
	machines   [][]int // machines of group g (g in [0, G])
	leaveAt    []int   // per machine: the group after which it leaves
	dummyJobs  [][]int // per group: fringe jobs with that native group
	groupClass [][]int // per group: classes with that core group (sorted)
	coreJobs   [][]int // per class: core jobs, non-increasing size
	hasFringe  []bool  // per class: does it have at least one fringe job?

	// start-state fractional volume (groups < 0)
	startL2, startL3 float64
	preFrac          []fracItem

	// mutable search state
	mLoad  []float64
	mFlag  []bool
	assign []int // job -> machine (-1: unassigned/fractional)
	isFrac []bool

	memo    map[string]bool // failed states, keyed by their binary encoding
	keyBuf  []byte          // reused state-key scratch (grown once, then flat)
	cellBuf []memoCell      // reused machine-cell scratch for key canonicalization
	ok      bool
}

// memoCell is one (speed, load, flag) machine triple of a state key;
// sorting the cells factors out machine symmetry.
type memoCell struct {
	speed, load float64
	flag        bool
}

// newDP builds the DP context; returns a context whose solve() immediately
// fails if structural preconditions are violated (fringe job or core class
// above the last group).
func newDP(s *simp, nodeCap int64) *dp {
	d := &dp{
		s:    s,
		cap:  nodeCap,
		memo: map[string]bool{},
	}
	n := len(s.size)
	m := len(s.speed)
	d.machines = make([][]int, s.G+1)
	d.leaveAt = make([]int, m)
	for i := 0; i < m; i++ {
		d.leaveAt[i] = s.groupHi(i)
		for g := 0; g <= s.G; g++ {
			if s.inGroup(i, g) {
				d.machines[g] = append(d.machines[g], i)
			}
		}
	}
	d.dummyJobs = make([][]int, s.G+1)
	d.groupClass = make([][]int, s.G+1)
	d.coreJobs = make([][]int, s.in.K)
	d.hasFringe = make([]bool, s.in.K)
	coreGroupOf := make([]int, s.in.K)
	for k := range coreGroupOf {
		coreGroupOf[k] = s.coreGroup(k)
	}
	structuralFail := false
	for j := 0; j < n; j++ {
		if s.isCore(j) {
			d.coreJobs[s.class[j]] = append(d.coreJobs[s.class[j]], j)
			continue
		}
		d.hasFringe[s.class[j]] = true
		g := s.nativeGroup(s.size[j])
		switch {
		case g > s.G:
			structuralFail = true // cannot be placed or pushed anywhere
		case g >= 0:
			d.dummyJobs[g] = append(d.dummyJobs[g], j)
		default:
			// Small on every machine: fractional from the start.
			d.preFrac = append(d.preFrac, fracItem{job: j, class: s.class[j], group: g})
			if g == -1 {
				d.startL2 += s.size[j]
			} else {
				d.startL3 += s.size[j]
			}
		}
	}
	for k := 0; k < s.in.K; k++ {
		if len(d.coreJobs[k]) == 0 {
			continue
		}
		g := coreGroupOf[k]
		switch {
		case g > s.G:
			structuralFail = true
		case g >= 0:
			d.groupClass[g] = append(d.groupClass[g], k)
		default:
			// All core jobs of this class are fractional from the start;
			// classes without a fringe job additionally carry one setup.
			vol := 0.0
			for _, j := range d.coreJobs[k] {
				d.preFrac = append(d.preFrac, fracItem{job: j, class: k, group: g, isCore: true})
				vol += s.size[j]
			}
			if !d.hasFringe[k] {
				vol += s.setup[k]
			}
			if g == -1 {
				d.startL2 += vol
			} else {
				d.startL3 += vol
			}
		}
	}
	for g := range d.dummyJobs {
		sortDescBySize(s, d.dummyJobs[g])
	}
	for k := range d.coreJobs {
		sortDescBySize(s, d.coreJobs[k])
	}
	for g := range d.groupClass {
		sort.Ints(d.groupClass[g])
	}
	d.mLoad = make([]float64, m)
	d.mFlag = make([]bool, m)
	d.assign = make([]int, n)
	d.isFrac = make([]bool, n)
	for j := range d.assign {
		d.assign[j] = -1
	}
	for _, f := range d.preFrac {
		d.isFrac[f.job] = true
	}
	if structuralFail {
		d.cap = 0 // force immediate (capped=false) failure
		d.memo = nil
	}
	return d
}

func sortDescBySize(s *simp, jobs []int) {
	slices.SortStableFunc(jobs, func(a, b int) int { return cmp.Compare(s.size[b], s.size[a]) })
}

// solve searches for a relaxed schedule; on success the integral
// assignments are in d.assign and the fractional choices in d.isFrac.
func (d *dp) solve() bool {
	if d.memo == nil {
		return false
	}
	d.ok = d.rec(0, -1, 0, false, 0, d.startL2, d.startL3)
	return d.ok
}

// jobList returns the job list for class position ci within group g:
// ci == -1 is the dummy class (fringe jobs native to g), otherwise the
// ci-th class with core group g.
func (d *dp) jobList(g, ci int) []int {
	if ci < 0 {
		return d.dummyJobs[g]
	}
	return d.coreJobs[d.groupClass[g][ci]]
}

// rec advances the DP: place job ji of class position ci in group g, or
// transition to the next class/group. ξ records whether the current class
// already contributed a fractional setup to λ1.
func (d *dp) rec(g, ci, ji int, xi bool, l1, l2, l3 float64) bool {
	d.nodes++
	if d.nodes > d.cap {
		d.capped = true
		return false
	}
	// Poll the context every 4096 nodes: cheap relative to a node's
	// expansion, frequent enough that a deadline stops in-flight
	// expansion within milliseconds. Once cancelled, every further rec
	// call fails immediately so the whole recursion unwinds.
	if d.cancelled {
		return false
	}
	if d.ctx != nil && d.nodes%4096 == 0 && d.ctx.Err() != nil {
		d.cancelled = true
		return false
	}
	if d.failedState(g, ci, ji, xi, l1, l2, l3) {
		return false
	}
	list := d.jobList(g, ci)
	if ji >= len(list) {
		if d.advance(g, ci, l1, l2, l3) {
			return true
		}
		d.markFailed(g, ci, ji, xi, l1, l2, l3)
		return false
	}

	j := list[ji]
	p := d.s.size[j]
	isCore := ci >= 0
	var k int
	if isCore {
		k = d.groupClass[g][ci]
	}

	// Placement edges: one per distinct (speed, load, flag) cell among the
	// group's machines. A machine matching an earlier machine's cell leads
	// to an isomorphic subtree (capacity is a function of speed alone), so
	// only the first is expanded. Equal cells also agree on the setup delta
	// and the capacity test, so testing capacity before the duplicate scan
	// skips exactly the same machines.
	group := d.machines[g]
	for mi, i := range group {
		delta := p
		setFlag := false
		if isCore && !d.mFlag[i] {
			delta += d.s.setup[k]
			setFlag = true
		}
		if d.mLoad[i]+delta > d.s.capacity(i)+core.Eps {
			continue
		}
		dup := false
		for _, i2 := range group[:mi] {
			if d.s.speed[i2] == d.s.speed[i] && d.mLoad[i2] == d.mLoad[i] && d.mFlag[i2] == d.mFlag[i] {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.mLoad[i] += delta
		if setFlag {
			d.mFlag[i] = true
		}
		d.assign[j] = i
		if d.rec(g, ci, ji+1, xi, l1, l2, l3) {
			return true
		}
		d.assign[j] = -1
		if setFlag {
			d.mFlag[i] = false
		}
		d.mLoad[i] -= delta
	}

	// Fractional edge: push the job's volume up. Jobs from groups G−1 and
	// G have no group ≥ g+2 to go to, so the edge is pruned there.
	if g <= d.s.G-2 {
		nl1 := l1 + p
		nxi := xi
		if isCore && !d.hasFringe[k] && !xi {
			nl1 += d.s.setup[k]
			nxi = true
		}
		d.isFrac[j] = true
		if d.rec(g, ci, ji+1, nxi, nl1, l2, l3) {
			return true
		}
		d.isFrac[j] = false
	}

	d.markFailed(g, ci, ji, xi, l1, l2, l3)
	return false
}

// advance handles class and group transitions (edge types 1 and 2 of the
// paper) including the λ bookkeeping and the end-state test.
func (d *dp) advance(g, ci int, l1, l2, l3 float64) bool {
	if ci+1 < len(d.groupClass[g]) {
		// Class transition: merge the flag dimension (µ′ resets ζ to 0).
		saved := d.saveFlags(g)
		if d.rec(g, ci+1, 0, false, l1, l2, l3) {
			return true
		}
		d.restoreFlags(saved)
		return false
	}
	if g == d.s.G {
		// End state: W_G = W_{G−1} = 0 and the remaining pushed-up volume
		// must fit into the free space of the group-G machines.
		if l1 > core.Eps || l2 > core.Eps {
			return false
		}
		free := 0.0
		for _, i := range d.machines[g] {
			if f := d.s.capacity(i) - d.mLoad[i]; f > 0 {
				free += f
			}
		}
		return l3 <= free+core.Eps
	}
	// Group transition: machines leaving the window absorb λ3.
	free := 0.0
	for i, at := range d.leaveAt {
		if at == g {
			if f := d.s.capacity(i) - d.mLoad[i]; f > 0 {
				free += f
			}
		}
	}
	nl3 := l2 + maxf(0, l3-free)
	saved := d.saveFlags(g)
	if d.rec(g+1, -1, 0, false, 0, l1, nl3) {
		return true
	}
	d.restoreFlags(saved)
	return false
}

type flagSave struct {
	idx []int
	val []bool
}

func (d *dp) saveFlags(g int) flagSave {
	var fs flagSave
	for _, i := range d.machines[g] {
		if d.mFlag[i] {
			fs.idx = append(fs.idx, i)
			fs.val = append(fs.val, true)
			d.mFlag[i] = false
		}
	}
	return fs
}

func (d *dp) restoreFlags(fs flagSave) {
	for n, i := range fs.idx {
		d.mFlag[i] = fs.val[n]
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// encodeState writes the canonical binary state key into d.keyBuf (reused
// across calls, so it stays allocation-free once grown). It runs for every
// markFailed and, once the memo is non-empty, for every failedState lookup;
// with an empty memo no key is built. Machine symmetry
// is factored out by sorting the (speed, load, flag) triples of the
// *group-relevant* machines (machines of groups > g have load 0 and flag
// false; machines of earlier groups never change again but their loads
// still matter for λ absorption only through past decisions, which the λ
// values capture — they are excluded from the key only when they can no
// longer influence the future, i.e. after their leave transition). Floats
// are keyed by their IEEE bits, which agrees with value equality for every
// value the DP produces (loads are finite and never −0).
func (d *dp) encodeState(g, ci, ji int, xi bool, l1, l2, l3 float64) {
	buf := d.keyBuf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ci+1))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ji))
	buf = append(buf, boolByte(xi))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l1))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l2))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l3))
	cells := d.cellBuf[:0]
	for i := range d.mLoad {
		if d.leaveAt[i] < g {
			continue // left the window; its free space is folded into λ3
		}
		cells = append(cells, memoCell{d.s.speed[i], d.mLoad[i], d.mFlag[i]})
	}
	// Insertion sort: cell counts are at most m and typically tiny, and
	// sort.Slice would allocate its closure on every node.
	for a := 1; a < len(cells); a++ {
		for b := a; b > 0 && cellLess(cells[b], cells[b-1]); b-- {
			cells[b], cells[b-1] = cells[b-1], cells[b]
		}
	}
	for _, c := range cells {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.speed))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.load))
		buf = append(buf, boolByte(c.flag))
	}
	d.keyBuf = buf
	d.cellBuf = cells[:0]
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func cellLess(a, b memoCell) bool {
	if a.speed != b.speed {
		return a.speed < b.speed
	}
	if a.load != b.load {
		return a.load < b.load
	}
	return !a.flag && b.flag
}

// failedState reports whether the state is memoized as failed. While the
// memo is empty every key misses, so the key is not built: a search that
// never backtracks out of a failed state (as on the perfbench uniform-ptas
// pool) encodes no key at all. Once a state is marked, every
// lookup encodes its key; the string(keyBuf) map index compiles to an
// allocation-free lookup.
func (d *dp) failedState(g, ci, ji int, xi bool, l1, l2, l3 float64) bool {
	if len(d.memo) == 0 {
		return false
	}
	d.encodeState(g, ci, ji, xi, l1, l2, l3)
	return d.memo[string(d.keyBuf)]
}

// markFailed memoizes the state as failed. The key is re-encoded because
// the recursive expansion of the state's children clobbered the shared
// buffer; backtracking restored the loads and flags, so the encoding is
// identical to the one probed on entry.
func (d *dp) markFailed(g, ci, ji int, xi bool, l1, l2, l3 float64) {
	d.encodeState(g, ci, ji, xi, l1, l2, l3)
	d.memo[string(d.keyBuf)] = true
}

// integralAssign returns a copy of the integral job → machine assignment.
func (d *dp) integralAssign() []int {
	return append([]int(nil), d.assign...)
}

// fractionalItems lists all fractional objects (including the pre-start
// ones) with their class/group tags for the conversion step.
func (d *dp) fractionalItems() []fracItem {
	items := append([]fracItem(nil), d.preFrac...)
	for j, f := range d.isFrac {
		if !f || d.assign[j] >= 0 {
			continue
		}
		pre := false
		for _, p := range d.preFrac {
			if p.job == j {
				pre = true
				break
			}
		}
		if pre {
			continue
		}
		it := fracItem{job: j, class: d.s.class[j]}
		if d.s.isCore(j) {
			it.isCore = true
			it.group = d.s.coreGroup(d.s.class[j])
		} else {
			it.group = d.s.nativeGroup(d.s.size[j])
		}
		items = append(items, it)
	}
	return items
}
