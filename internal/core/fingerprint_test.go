package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func fpInstance(t testing.TB) *Instance {
	t.Helper()
	in, err := NewUniform(
		[]float64{5, 3, 8, 2, 7},
		[]int{0, 1, 0, 2, 1},
		[]float64{2, 4, 1},
		[]float64{1, 2},
	)
	if err != nil {
		t.Fatalf("NewUniform: %v", err)
	}
	return in
}

func TestFingerprintDeterministicAndCloneStable(t *testing.T) {
	in := fpInstance(t)
	fp := in.Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex digest", fp)
	}
	if got := in.Fingerprint(); got != fp {
		t.Errorf("fingerprint not deterministic: %q vs %q", got, fp)
	}
	if got := in.Clone().Fingerprint(); got != fp {
		t.Errorf("clone fingerprint differs: %q vs %q", got, fp)
	}
	// An independently-constructed identical instance matches too.
	if got := fpInstance(t).Fingerprint(); got != fp {
		t.Errorf("rebuilt instance fingerprint differs: %q vs %q", got, fp)
	}
}

func TestFingerprintRoundTripsThroughJSON(t *testing.T) {
	in := fpInstance(t)
	if got, want := jsonRoundTrip(t, in).Fingerprint(), in.Fingerprint(); got != want {
		t.Errorf("JSON round trip changed the fingerprint: %q vs %q", got, want)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpInstance(t).Fingerprint()

	perturbed := fpInstance(t)
	perturbed.P[1][3] += 1
	if perturbed.Fingerprint() == base {
		t.Error("changing one processing time kept the fingerprint")
	}

	setup := fpInstance(t)
	setup.S[0][2] += 1
	if setup.Fingerprint() == base {
		t.Error("changing one setup time kept the fingerprint")
	}

	class := fpInstance(t)
	class.Class[0] = 1
	if class.Fingerprint() == base {
		t.Error("changing a job class kept the fingerprint")
	}

	kind := fpInstance(t)
	kind.Kind = Identical
	if kind.Fingerprint() == base {
		t.Error("changing the machine environment kept the fingerprint")
	}
}

// fpGolden builds the identical, unrelated (with +Inf entries) and
// restricted instances of TestFingerprintGolden.
func fpGolden(t testing.TB) (ident, unrel, restr *Instance) {
	t.Helper()
	ident, err := NewIdentical([]float64{4, 9, 2, 6}, []int{1, 0, 1, 0}, []float64{3, 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	unrel, err = NewUnrelated(
		[][]float64{{3, Inf, 7.25}, {Inf, 2, 1.5}},
		[]int{0, 1, 0},
		[][]float64{{1, Inf}, {2.5, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	restr, err = NewRestricted([]float64{5, 1, 8, 3}, []int{0, 0, 1, 1}, []float64{2, 6}, 3,
		[][]int{{0, 2}, {1}, {0, 1, 2}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	return ident, unrel, restr
}

// TestFingerprintGolden pins the literal digests of five instances: the
// compact base-field encoding on uniform and identical machines, and the
// full-matrix encoding on unrelated machines with +Inf entries, on
// restricted machines and on a uniform instance with one hand-edited
// processing time (whose digest is the one the full-matrix encoding gave it
// before the compact one existed). Bound-cache snapshots persisted across
// processes are keyed by these values, so any change to the encoding must
// show up here.
func TestFingerprintGolden(t *testing.T) {
	ident, unrel, restr := fpGolden(t)
	edited := fpInstance(t)
	edited.P[1][3] += 1
	for _, c := range []struct {
		name       string
		in         *Instance
		fp, simKey string
	}{
		{"uniform", fpInstance(t),
			"3aef7615a15abce04d70c98f8d8a2f8c8d9f22dcc3adcb057f04b70d96118069",
			"03242c7a60896a02751ec0159afd46121ae901fb93f878edbe99a17f4fdf25dc"},
		{"identical", ident,
			"318ed02269b0bfd668676cb678b77c1e4fb12aa85f2b161eff3b58c076a9e202",
			"aa16d6fa24331c59379988cc2a5bb2a2d19ffed0d92e703487d0a508e19844c0"},
		{"uniform-edited", edited,
			"ba947e329f91dba0625cd5fd047ede4d6a4d87d3bb722f31df94a4ff6db308e1",
			"8052c0d290f3f878fa857a8e7215729213c409c177278b68f3563dafbc2a9383"},
		{"unrelated-inf", unrel,
			"f248fd59129475d11e290c848b599699c63af03c27ed44e69d31eedaadc06332",
			"76ba1382674ea2a8c66f1e738401acff06caf9e9e691266b0a5cd3d210f7f9a3"},
		{"restricted", restr,
			"ca8fe4f293fb7b9fe132ad060330b9e94bd303a945e26205ce846b46fedad5a4",
			"86f99381eee9b33bd272de83a7048fd3aefdfb8310b8ef3d9d95d8bd6da4ce48"},
	} {
		if got := c.in.Fingerprint(); got != c.fp {
			t.Errorf("%s: Fingerprint() = %q, want %q", c.name, got, c.fp)
		}
		if got := c.in.SimilarityKey(); got != c.simKey {
			t.Errorf("%s: SimilarityKey() = %q, want %q", c.name, got, c.simKey)
		}
	}
}

// sameProblem reports whether a and b pose the same scheduling problem:
// equal Kind, dimensions and class map, and P and S equal bit for bit.
func sameProblem(a, b *Instance) bool {
	if a.Kind != b.Kind || a.N != b.N || a.M != b.M || a.K != b.K ||
		len(a.Class) != len(b.Class) || len(a.P) != len(b.P) || len(a.S) != len(b.S) {
		return false
	}
	for j := range a.Class {
		if a.Class[j] != b.Class[j] {
			return false
		}
	}
	sameRows := func(x, y [][]float64) bool {
		for i := range x {
			if len(x[i]) != len(y[i]) {
				return false
			}
			for j := range x[i] {
				if math.Float64bits(x[i][j]) != math.Float64bits(y[i][j]) {
					return false
				}
			}
		}
		return true
	}
	return sameRows(a.P, b.P) && sameRows(a.S, b.S)
}

// tinyBase builds a small identical or uniform instance from a few-valued
// alphabet, so that different seeds often build the same problem.
func tinyBase(t *testing.T, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n, m, k := 1+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(2)
	sizes := []float64{0, 1, 2.5, 3}
	p, class, s := make([]float64, n), make([]int, n), make([]float64, k)
	for j := range p {
		p[j], class[j] = sizes[rng.Intn(len(sizes))], rng.Intn(k)
	}
	for c := range s {
		s[c] = sizes[rng.Intn(len(sizes))]
	}
	var in *Instance
	var err error
	if rng.Intn(2) == 0 {
		in, err = NewIdentical(p, class, s, m)
	} else {
		v := make([]float64, m)
		for i := range v {
			v[i] = []float64{0.5, 1, 2, 3}[rng.Intn(4)]
		}
		in, err = NewUniform(p, class, s, v)
	}
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return in
}

func jsonRoundTrip(t *testing.T, in *Instance) *Instance {
	t.Helper()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	return out
}

// TestFingerprintSoundOnIdenticalAndUniform checks, over seeded identical
// and uniform instances and their variants, that equal digests imply the
// same (Kind, N, M, K, Class, P, S). The variants are clones (identical
// rows unshared), JSON round trips, one-entry edits of P, S, JobSize,
// SetupSize, Speed and Class (on a fresh instance, where an identical P or
// S edit reaches every shared row, and on a clone, where it reaches one),
// and Delta.Apply results.
func TestFingerprintSoundOnIdenticalAndUniform(t *testing.T) {
	edits := map[string]func(*Instance){
		"p":         func(in *Instance) { in.P[in.M-1][in.N-1] += 1 },
		"s":         func(in *Instance) { in.S[0][in.K-1] += 1 },
		"jobSize":   func(in *Instance) { in.JobSize[0] += 1 },
		"setupSize": func(in *Instance) { in.SetupSize[in.K-1] += 1 },
		"speed": func(in *Instance) {
			if in.Speed != nil {
				in.Speed[in.M-1] *= 2
			}
		},
		"class": func(in *Instance) { in.Class[0] = (in.Class[0] + 1) % in.K },
	}
	type entry struct {
		name string
		in   *Instance
	}
	var pool []entry
	for seed := int64(1); seed <= 150; seed++ {
		base := tinyBase(t, seed)
		for name, in := range map[string]*Instance{
			"base": base, "clone": base.Clone(), "json": jsonRoundTrip(t, base),
		} {
			if err := in.checkDerived(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			pool = append(pool, entry{name, in})
		}
		for name, edit := range edits {
			fresh := tinyBase(t, seed)
			edit(fresh)
			clone := base.Clone()
			edit(clone)
			pool = append(pool, entry{name + "/fresh", fresh}, entry{name + "/clone", clone})
		}
		rng := rand.New(rand.NewSource(seed))
		for d := 0; d < 3; d++ {
			next, err := randDelta(rng, base).Apply(base)
			if err != nil {
				continue // e.g. departing the last job
			}
			pool = append(pool, entry{"delta", next})
		}
	}
	seen := make(map[string]entry)
	collisions := 0
	for _, e := range pool {
		fp := e.in.Fingerprint()
		if prev, ok := seen[fp]; ok {
			collisions++
			if !sameProblem(prev.in, e.in) {
				t.Fatalf("%s and %s share fingerprint %s but pose different problems", prev.name, e.name, fp)
			}
			continue
		}
		seen[fp] = e
	}
	// Clones and round trips collide with their base, and the few-valued
	// alphabet makes different seeds collide too.
	if collisions < 300 {
		t.Errorf("only %d equal-digest pairs in a pool of %d: the check is close to vacuous", collisions, len(pool))
	}
}

// inconsistentUniformJSON is a uniform instance's JSON with its jobSize
// scaled ×10, so that P no longer equals jobSize/speed.
func inconsistentUniformJSON(t *testing.T) []byte {
	t.Helper()
	in, err := NewUniform([]float64{5, 3, 8, 2, 7, 4}, []int{0, 1, 0, 2, 1, 2}, []float64{2, 4, 1}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	sizes := doc["jobSize"].([]any)
	for j := range sizes {
		sizes[j] = sizes[j].(float64) * 10
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadJSONRejectsInconsistentBaseFields: an identical, uniform or
// restricted instance whose P or S disagrees with its base fields is
// rejected, naming the first entry that disagrees. The PTAS, Lemma 2.1 LPT,
// RA-2 and the volume bound read the base fields, so accepting one would
// let them certify a lower bound for a different problem than the one P
// and S pose.
func TestReadJSONRejectsInconsistentBaseFields(t *testing.T) {
	_, err := ReadJSON(bytes.NewReader(inconsistentUniformJSON(t)))
	if err == nil || !strings.Contains(err.Error(), "p[0][0] = 5 disagrees with jobSize[0] (want 50)") {
		t.Errorf("ReadJSON of a uniform instance with scaled jobSize: err = %v, want the p[0][0] mismatch", err)
	}

	ident, err := NewIdentical([]float64{4, 9}, []int{0, 0}, []float64{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ident = ident.Clone()
	ident.S[1][0] = 2
	var buf bytes.Buffer
	if err := ident.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = ReadJSON(&buf)
	if err == nil || !strings.Contains(err.Error(), "s[1][0] = 2 disagrees with setupSize[0] (want 3)") {
		t.Errorf("ReadJSON of an identical instance with an edited setup: err = %v, want the s[1][0] mismatch", err)
	}

	// Restricted instances: RA-2 reads jobSize, setupSize and eligible.
	// Without the eligibility rows its class-uniformity test indexed past
	// them and panicked.
	_, _, restr := fpGolden(t)
	for name, c := range map[string]struct {
		edit func(*Instance)
		want string
	}{
		"no eligibility": {func(in *Instance) { in.Eligible = nil }, "eligibility rows for 0 jobs, want 4"},
		"short row":      {func(in *Instance) { in.Eligible[2] = in.Eligible[2][:2] }, "eligibility row 2 has 2 entries, want 3"},
		"job size":       {func(in *Instance) { in.JobSize[1] = 10 }, "p[1][1] = 1 disagrees with jobSize[1] and eligible[1] (want 10)"},
		"eligible":       {func(in *Instance) { in.Eligible[1][0] = true }, "p[0][1] = +Inf disagrees with jobSize[1] and eligible[1] (want 1)"},
		"setup":          {func(in *Instance) { in.S[0][1] = 7 }, "s[0][1] = 7 disagrees with setupSize[1] and eligible (want 6)"},
	} {
		in := restr.Clone()
		c.edit(in)
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJSON(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadJSON of a restricted instance (%s): err = %v, want %q", name, err, c.want)
		}
	}
}

// FuzzReadJSONFingerprint: for any input ReadJSON accepts, a
// WriteJSON→ReadJSON round trip keeps the fingerprint, and raising one
// finite processing time by one ulp changes it.
func FuzzReadJSONFingerprint(f *testing.F) {
	ident, unrel, restr := fpGolden(f)
	for _, in := range []*Instance{ident, unrel, restr, fpInstance(f)} {
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		fp := in.Fingerprint()
		out := jsonRoundTrip(t, in)
		if got := out.Fingerprint(); got != fp {
			t.Fatalf("round trip changed the fingerprint: %s → %s", fp, got)
		}
		for i, row := range out.P {
			for j, p := range row {
				if IsFinite(p) {
					out.P[i][j] = math.Nextafter(p, Inf)
					if out.Fingerprint() == fp {
						t.Fatalf("raising p[%d][%d] from %v kept the fingerprint %s", i, j, p, fp)
					}
					return
				}
			}
		}
	})
}

// BenchmarkFingerprint hashes n=200/m=16/K=10 instances, the PTAS anchor
// shape: identical and uniform ones take the base-field encoding, the
// unrelated one hashes its full matrices.
func BenchmarkFingerprint(b *testing.B) {
	const n, m, k = 200, 16, 10
	rng := rand.New(rand.NewSource(1))
	p, class, s := make([]float64, n), make([]int, n), make([]float64, k)
	for j := range p {
		p[j], class[j] = float64(1+rng.Intn(100)), rng.Intn(k)
	}
	for c := range s {
		s[c] = float64(1 + rng.Intn(50))
	}
	v := make([]float64, m)
	pm, sm := make([][]float64, m), make([][]float64, m)
	for i := range v {
		v[i] = float64(1 + rng.Intn(4))
		pm[i], sm[i] = make([]float64, n), make([]float64, k)
		for j := range pm[i] {
			pm[i][j] = float64(1 + rng.Intn(100))
		}
		for c := range sm[i] {
			sm[i][c] = float64(1 + rng.Intn(50))
		}
	}
	ident, err := NewIdentical(p, class, s, m)
	if err != nil {
		b.Fatal(err)
	}
	uni, err := NewUniform(p, class, s, v)
	if err != nil {
		b.Fatal(err)
	}
	unrel, err := NewUnrelated(pm, class, sm)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   *Instance
	}{{"identical", ident}, {"uniform", uni}, {"unrelated", unrel}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.in.Fingerprint()
			}
		})
	}
}
