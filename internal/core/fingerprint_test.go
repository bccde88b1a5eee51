package core

import (
	"bytes"
	"testing"
)

func fpInstance(t *testing.T) *Instance {
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
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got, want := out.Fingerprint(), in.Fingerprint(); got != want {
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

// TestFingerprintGolden pins the literal digests of four instances, one per
// encoding path (uniform, identical, unrelated with +Inf entries,
// restricted). Bound-cache snapshots persisted across processes are keyed
// by these values, so any change to the encoding must show up here.
func TestFingerprintGolden(t *testing.T) {
	ident, err := NewIdentical([]float64{4, 9, 2, 6}, []int{1, 0, 1, 0}, []float64{3, 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	unrel, err := NewUnrelated(
		[][]float64{{3, Inf, 7.25}, {Inf, 2, 1.5}},
		[]int{0, 1, 0},
		[][]float64{{1, Inf}, {2.5, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	restr, err := NewRestricted([]float64{5, 1, 8, 3}, []int{0, 0, 1, 1}, []float64{2, 6}, 3,
		[][]int{{0, 2}, {1}, {0, 1, 2}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		in         *Instance
		fp, simKey string
	}{
		{"uniform", fpInstance(t),
			"f5004e488ed273715f1e605783af3f23f73a221036bb48a52d0a072002275c12",
			"03242c7a60896a02751ec0159afd46121ae901fb93f878edbe99a17f4fdf25dc"},
		{"identical", ident,
			"8128b934f8a2a60e4c53a3a32b12444444242da40e412886cac5b0d78478cc45",
			"aa16d6fa24331c59379988cc2a5bb2a2d19ffed0d92e703487d0a508e19844c0"},
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
