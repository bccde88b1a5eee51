package serve

import (
	"encoding/json"
	"testing"
	"time"
)

func TestDurationUnmarshal(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		bad  bool
	}{
		{in: `"1.5s"`, want: 1500 * time.Millisecond},
		{in: `"250ms"`, want: 250 * time.Millisecond},
		{in: `2000000000`, want: 2 * time.Second}, // time.Duration's native shape
		{in: `"soon"`, bad: true},
		{in: `true`, bad: true},
	} {
		var d Duration
		err := json.Unmarshal([]byte(tc.in), &d)
		if tc.bad {
			if err == nil {
				t.Errorf("%s: unmarshalled to %v, want error", tc.in, time.Duration(d))
			}
			continue
		}
		if err != nil || time.Duration(d) != tc.want {
			t.Errorf("%s: got %v, %v; want %v", tc.in, time.Duration(d), err, tc.want)
		}
	}
	// Round trip through the marshalled form.
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(b) != `"1m30s"` {
		t.Errorf("marshal = %s, %v", b, err)
	}
}

func TestOptionDigest(t *testing.T) {
	base := SolveOptions{Algorithm: "ptas", Eps: 0.25}
	if base.digest() != (SolveOptions{Algorithm: "ptas", Eps: 0.25}).digest() {
		t.Error("identical options produced different digests")
	}
	// Every result-relevant field must split the digest…
	for name, other := range map[string]SolveOptions{
		"algorithm":   {Algorithm: "lpt", Eps: 0.25},
		"portfolio":   {Algorithm: "ptas", Eps: 0.25, Portfolio: true},
		"eps":         {Algorithm: "ptas", Eps: 0.5},
		"gap":         {Algorithm: "ptas", Eps: 0.25, Gap: 0.1},
		"precision":   {Algorithm: "ptas", Eps: 0.25, Precision: 0.01},
		"seed":        {Algorithm: "ptas", Eps: 0.25, Seed: 7},
		"localSearch": {Algorithm: "ptas", Eps: 0.25, LocalSearch: true},
	} {
		if base.digest() == other.digest() {
			t.Errorf("digest ignores %s", name)
		}
	}
	// …and Timeout must not: deadlines never split coalescing.
	withTimeout := base
	withTimeout.Timeout = Duration(3 * time.Second)
	if base.digest() != withTimeout.digest() {
		t.Error("digest includes Timeout — identical requests with different deadlines would stop coalescing")
	}
}
