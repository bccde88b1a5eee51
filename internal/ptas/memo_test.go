package ptas

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TestRejectedGuessHitsMemo runs the DP at a guess the PTAS rejects on a
// small tight instance (the tight/uniform/673 row of the root TestPTASPins)
// and checks that the rejection really goes through the failed-state memo.
//
// In a complete (uncapped, uncancelled) failed search every node either
// returns on a memo hit or is marked failed under a key no earlier node
// marked: a state's key differs from each of its ancestors' in (g, k, ι),
// so it cannot be marked before its own visit returns. Hence
// hits = nodes − len(memo), with no counter in the DP itself.
func TestRejectedGuessHitsMemo(t *testing.T) {
	in := gen.Uniform(rand.New(rand.NewSource(673)), gen.Params{N: 20, M: 4, K: 3})
	opt := Options{Eps: 0.1}.normalize()
	const T = 159.7032605375511 // the guess the dual search rejects
	s := simplify(in, T, opt.Eps)
	if s == nil {
		t.Fatal("guess rejected by simplification, not by the DP")
	}
	d := newDP(s, opt.NodeCap)
	if d.solve() {
		t.Fatal("DP accepted a guess the PTAS rejects")
	}
	if d.capped || d.cancelled {
		t.Fatalf("capped=%v cancelled=%v: the rejection is not a complete search", d.capped, d.cancelled)
	}
	marks := int64(len(d.memo))
	if marks == 0 {
		t.Fatal("rejected search left the memo empty")
	}
	hits := d.nodes - marks
	if hits < 1 {
		t.Fatalf("no memo hit: nodes=%d marks=%d", d.nodes, marks)
	}
	if d.nodes != 114540 || marks != 99879 {
		t.Errorf("nodes=%d marks=%d hits=%d, want nodes=114540 marks=99879 hits=14661", d.nodes, marks, hits)
	}
}
