package ptas

import (
	"context"
	"encoding/binary"
	"math"

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
	p   *prep // the solve's guess-independent part
	s   *simp // the current guess's instance
	cap int64
	ctx context.Context // optional; nil means never cancelled

	nodes     int64
	capped    bool
	cancelled bool
	// failed is set when a fringe job or core class lies above the last
	// group: solve then fails at once, with no node.
	failed bool

	// static structure, per solve
	machines [][]int // machines of group g (g in [0, G])

	// structure of the current guess; the slices are reused across guesses
	dummyJobs  [][]int   // per group: fringe jobs with that native group
	groupClass [][]int   // per group: classes with that core group (ascending)
	coreJobs   [][]int   // per class: core jobs, non-increasing size
	hasFringe  []bool    // per class: does it have at least one fringe job?
	coreGroup  []int     // per class: its core group
	group      []int     // per job: native group of a fringe job, or noGroup
	capacity   []float64 // per machine: v_i·T1

	// start-state fractional volume (groups < 0)
	startL2, startL3 float64
	preFrac          []fracItem

	// mutable search state
	mLoad  []float64
	mFlag  []bool
	assign []int // job -> machine (-1: unassigned/fractional)
	isFrac []bool
	// flagStack holds the machines whose flags a class or group transition
	// cleared, innermost transition last.
	flagStack []int

	memo    map[string]bool // failed states, keyed by their binary encoding
	keyBuf  []byte          // reused state-key scratch (grown once, then flat)
	cellBuf []memoCell      // reused machine-cell scratch for key canonicalization
	ok      bool
}

// noGroup marks a core job in dp.group.
const noGroup = math.MaxInt

// memoCell is one (speed, load, flag) machine triple of a state key;
// sorting the cells factors out machine symmetry.
type memoCell struct {
	speed, load float64
	flag        bool
}

// newSolveDP builds the part of the DP context that every guess of one
// solve shares; reset prepares it for one guess, after which solve()
// immediately fails if structural preconditions are violated (fringe job or
// core class above the last group).
func newSolveDP(p *prep, nodeCap int64) *dp {
	m, K := len(p.speed), p.in.K
	d := &dp{
		p:          p,
		cap:        nodeCap,
		memo:       map[string]bool{},
		machines:   make([][]int, p.G+1),
		dummyJobs:  make([][]int, p.G+1),
		groupClass: make([][]int, p.G+1),
		coreJobs:   make([][]int, K),
		hasFringe:  make([]bool, K),
		coreGroup:  make([]int, K),
		capacity:   make([]float64, m),
		mLoad:      make([]float64, m),
		mFlag:      make([]bool, m),
	}
	for i, hi := range p.hi { // machine i belongs to groups hi−1 and hi
		if hi >= 1 {
			d.machines[hi-1] = append(d.machines[hi-1], i)
		}
		d.machines[hi] = append(d.machines[hi], i)
	}
	return d
}

// reset prepares the DP context for the simplified instance s of one guess.
// The per-(group, class) job lists are filled in s.order, so they come out
// in non-increasing size order (ties by index) without a sort.
func (d *dp) reset(s *simp) {
	d.s = s
	d.nodes, d.capped, d.cancelled, d.failed, d.ok = 0, false, false, false, false
	clear(d.memo)
	for g := range d.dummyJobs {
		d.dummyJobs[g] = d.dummyJobs[g][:0]
		d.groupClass[g] = d.groupClass[g][:0]
	}
	for k := range d.coreJobs {
		d.coreJobs[k] = d.coreJobs[k][:0]
		d.hasFringe[k] = false
		d.coreGroup[k] = s.coreGroup(k)
	}
	for i := range d.capacity {
		d.capacity[i] = s.speed[i] * s.T1
		d.mLoad[i], d.mFlag[i] = 0, false
	}
	d.preFrac = d.preFrac[:0]
	d.startL2, d.startL3 = 0, 0
	d.flagStack = d.flagStack[:0]
	n := len(s.size)
	d.group = resize(d.group, n)
	d.assign = resize(d.assign, n)
	d.isFrac = resize(d.isFrac, n)

	// Job lists in s.order. Equal sizes are adjacent there, so the native
	// group is computed once per distinct size.
	lastSize, lastGroup := math.NaN(), 0
	for _, j := range s.order {
		k := s.class[j]
		if s.isCore(j) {
			d.coreJobs[k] = append(d.coreJobs[k], j)
			d.group[j] = noGroup
			continue
		}
		d.hasFringe[k] = true
		if s.size[j] != lastSize {
			lastSize, lastGroup = s.size[j], s.nativeGroup(s.size[j])
		}
		g := lastGroup
		d.group[j] = g
		switch {
		case g > s.G:
			d.failed = true // cannot be placed or pushed anywhere
		case g >= 0:
			d.dummyJobs[g] = append(d.dummyJobs[g], j)
		}
	}
	// Fringe jobs small on every machine: fractional from the start, in
	// index order.
	for j, g := range d.group {
		if g < 0 {
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
		g := d.coreGroup[k]
		switch {
		case g > s.G:
			d.failed = true
		case g >= 0:
			d.groupClass[g] = append(d.groupClass[g], k)
		default:
			// All core jobs of this class are fractional from the start
			// (in index order); classes without a fringe job additionally
			// carry one setup.
			vol := 0.0
			for j, jg := range d.group {
				if jg == noGroup && s.class[j] == k {
					d.preFrac = append(d.preFrac, fracItem{job: j, class: k, group: g, isCore: true})
					vol += s.size[j]
				}
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
	for j := range d.assign {
		d.assign[j], d.isFrac[j] = -1, false
	}
	for _, f := range d.preFrac {
		d.isFrac[f.job] = true
	}
}

// resize returns s with length n, reusing its storage when large enough.
// The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// solve searches for a relaxed schedule; on success the integral
// assignments are in d.assign and the fractional choices in d.isFrac.
func (d *dp) solve() bool {
	if d.failed {
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
		if d.mLoad[i]+delta > d.capacity[i]+core.Eps {
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
		old := d.mLoad[i]
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
		d.mLoad[i] = old // restore, not subtract: (a+b)−b need not be a
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
			if f := d.capacity[i] - d.mLoad[i]; f > 0 {
				free += f
			}
		}
		return l3 <= free+core.Eps
	}
	// Group transition: machines leaving the window absorb λ3.
	free := 0.0
	for i, at := range d.s.hi {
		if at == g {
			if f := d.capacity[i] - d.mLoad[i]; f > 0 {
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

// saveFlags clears the flags of group g's machines, pushing the machines
// whose flag was set onto flagStack, and returns the stack height to
// restore to.
func (d *dp) saveFlags(g int) int {
	top := len(d.flagStack)
	for _, i := range d.machines[g] {
		if d.mFlag[i] {
			d.flagStack = append(d.flagStack, i)
			d.mFlag[i] = false
		}
	}
	return top
}

// restoreFlags sets the flags saveFlags cleared and pops them.
func (d *dp) restoreFlags(top int) {
	for _, i := range d.flagStack[top:] {
		d.mFlag[i] = true
	}
	d.flagStack = d.flagStack[:top]
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
		if d.s.hi[i] < g {
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
		k, g := d.s.class[j], d.group[j]
		it := fracItem{job: j, class: k, group: g}
		if g == noGroup {
			it.isCore, it.group = true, d.coreGroup[k]
		}
		if it.group < 0 {
			continue // fractional from the start: already in preFrac
		}
		items = append(items, it)
	}
	return items
}
