package core

import (
	"math"
	"testing"
)

func mustUniform(t *testing.T, p []float64, class []int, s []float64, v []float64) *Instance {
	t.Helper()
	in, err := NewUniform(p, class, s, v)
	if err != nil {
		t.Fatalf("NewUniform: %v", err)
	}
	return in
}

func TestNewIdentical(t *testing.T) {
	in, err := NewIdentical([]float64{3, 5, 2}, []int{0, 1, 0}, []float64{1, 2}, 2)
	if err != nil {
		t.Fatalf("NewIdentical: %v", err)
	}
	if in.Kind != Identical {
		t.Errorf("kind = %v, want identical", in.Kind)
	}
	if in.N != 3 || in.M != 2 || in.K != 2 {
		t.Errorf("dims = %d,%d,%d, want 3,2,2", in.N, in.M, in.K)
	}
	for i := 0; i < 2; i++ {
		if in.P[i][1] != 5 {
			t.Errorf("P[%d][1] = %v, want 5", i, in.P[i][1])
		}
		if in.S[i][1] != 2 {
			t.Errorf("S[%d][1] = %v, want 2", i, in.S[i][1])
		}
	}
	if err := in.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewUniformSpeedScaling(t *testing.T) {
	in := mustUniform(t, []float64{6}, []int{0}, []float64{3}, []float64{1, 2, 3})
	want := [][]float64{{6}, {3}, {2}}
	for i := range want {
		if math.Abs(in.P[i][0]-want[i][0]) > Eps {
			t.Errorf("P[%d][0] = %v, want %v", i, in.P[i][0], want[i][0])
		}
	}
	if math.Abs(in.S[2][0]-1) > Eps {
		t.Errorf("S[2][0] = %v, want 1", in.S[2][0])
	}
}

func TestNewUniformErrors(t *testing.T) {
	cases := []struct {
		name  string
		p     []float64
		class []int
		s     []float64
		v     []float64
	}{
		{"no jobs", nil, nil, []float64{1}, []float64{1}},
		{"class mismatch", []float64{1}, []int{0, 1}, []float64{1}, []float64{1}},
		{"no classes", []float64{1}, []int{0}, nil, []float64{1}},
		{"negative size", []float64{-1}, []int{0}, []float64{1}, []float64{1}},
		{"negative setup", []float64{1}, []int{0}, []float64{-2}, []float64{1}},
		{"class out of range", []float64{1}, []int{1}, []float64{1}, []float64{1}},
		{"no machines", []float64{1}, []int{0}, []float64{1}, nil},
		{"zero speed", []float64{1}, []int{0}, []float64{1}, []float64{0}},
		{"negative speed", []float64{1}, []int{0}, []float64{1}, []float64{-1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewUniform(tc.p, tc.class, tc.s, tc.v); err == nil {
				t.Errorf("NewUniform(%s) succeeded, want error", tc.name)
			}
		})
	}
}

func TestNewRestricted(t *testing.T) {
	in, err := NewRestricted(
		[]float64{4, 4, 7}, []int{0, 0, 1}, []float64{2, 1}, 3,
		[][]int{{0, 1}, {1}, {2}},
	)
	if err != nil {
		t.Fatalf("NewRestricted: %v", err)
	}
	if got := in.P[0][0]; got != 4 {
		t.Errorf("P[0][0] = %v, want 4", got)
	}
	if got := in.P[2][0]; !math.IsInf(got, 1) {
		t.Errorf("P[2][0] = %v, want Inf", got)
	}
	// Class 0 has jobs eligible on machines 0 and 1 only.
	if got := in.S[0][0]; got != 2 {
		t.Errorf("S[0][0] = %v, want 2", got)
	}
	if got := in.S[2][0]; !math.IsInf(got, 1) {
		t.Errorf("S[2][0] = %v, want Inf", got)
	}
	if err := in.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewRestrictedErrors(t *testing.T) {
	if _, err := NewRestricted([]float64{1}, []int{0}, []float64{1}, 2, [][]int{{}}); err == nil {
		t.Error("empty eligibility accepted")
	}
	if _, err := NewRestricted([]float64{1}, []int{0}, []float64{1}, 2, [][]int{{5}}); err == nil {
		t.Error("out-of-range machine accepted")
	}
	if _, err := NewRestricted([]float64{1}, []int{0}, []float64{1}, 2, nil); err == nil {
		t.Error("missing eligibility accepted")
	}
}

func TestNewUnrelated(t *testing.T) {
	in, err := NewUnrelated(
		[][]float64{{1, 2}, {3, Inf}},
		[]int{0, 1},
		[][]float64{{1, 1}, {1, 1}},
	)
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	if in.Kind != Unrelated || in.N != 2 || in.M != 2 || in.K != 2 {
		t.Errorf("unexpected shape: %v", in)
	}
	if err := in.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewUnrelatedNoFeasibleMachine(t *testing.T) {
	_, err := NewUnrelated(
		[][]float64{{Inf}, {Inf}},
		[]int{0},
		[][]float64{{1}, {1}},
	)
	if err == nil {
		t.Error("job with no feasible machine accepted")
	}
	// Finite processing but infinite setup everywhere is also infeasible.
	_, err = NewUnrelated(
		[][]float64{{1}, {1}},
		[]int{0},
		[][]float64{{Inf}, {Inf}},
	)
	if err == nil {
		t.Error("job with no finite setup accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	in := mustUniform(t, []float64{1, 2}, []int{0, 1}, []float64{1, 1}, []float64{1, 2})
	cp := in.Clone()
	cp.P[0][0] = 99
	cp.Class[0] = 1
	cp.Speed[1] = 7
	if in.P[0][0] == 99 || in.Class[0] == 1 || in.Speed[1] == 7 {
		t.Error("Clone shares memory with original")
	}
	// An identical instance's machines share one row; its Clone does not.
	id, err := NewIdentical([]float64{1, 2}, []int{0, 1}, []float64{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cp = id.Clone()
	cp.P[0][0], cp.S[0][0] = 99, 99
	if id.P[0][0] == 99 || id.S[0][0] == 99 || cp.P[1][0] == 99 || cp.S[1][0] == 99 {
		t.Error("Clone of an identical instance shares a row")
	}
}

func TestJobsOfClass(t *testing.T) {
	in := mustUniform(t, []float64{1, 2, 3, 4}, []int{1, 0, 1, 1}, []float64{1, 1}, []float64{1})
	by := in.JobsOfClass()
	if len(by[0]) != 1 || by[0][0] != 1 {
		t.Errorf("class 0 jobs = %v, want [1]", by[0])
	}
	if len(by[1]) != 3 {
		t.Errorf("class 1 jobs = %v, want 3 jobs", by[1])
	}
}

func TestClassWork(t *testing.T) {
	in := mustUniform(t, []float64{2, 4, 6}, []int{0, 0, 1}, []float64{1, 1}, []float64{1, 2})
	w := in.ClassWork()
	if math.Abs(w[0][0]-6) > Eps {
		t.Errorf("work[0][0] = %v, want 6", w[0][0])
	}
	if math.Abs(w[1][0]-3) > Eps {
		t.Errorf("work[1][0] = %v, want 3", w[1][0])
	}
	if math.Abs(w[1][1]-3) > Eps {
		t.Errorf("work[1][1] = %v, want 3", w[1][1])
	}
}

func TestEligibility(t *testing.T) {
	in, err := NewUnrelated(
		[][]float64{{5, Inf}, {2, 3}},
		[]int{0, 0},
		[][]float64{{1}, {1}},
	)
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	if !in.Eligibility(0, 0, 6) {
		t.Error("job 0 on machine 0 with T=6 should be eligible (5+1 <= 6)")
	}
	if in.Eligibility(0, 0, 5.5) {
		t.Error("job 0 on machine 0 with T=5.5 should not fit (5+1 > 5.5)")
	}
	if in.Eligibility(0, 1, 100) {
		t.Error("job 1 has infinite processing time on machine 0")
	}
	// A machine whose setup time is infinite is never eligible, regardless
	// of the processing time.
	in2, err := NewUnrelated(
		[][]float64{{5}, {2}},
		[]int{0},
		[][]float64{{1}, {Inf}},
	)
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	if in2.Eligibility(1, 0, 100) {
		t.Error("machine 1 has infinite setup; should be ineligible")
	}
}

func TestTotalWork(t *testing.T) {
	in, err := NewUnrelated(
		[][]float64{{4, 10}, {6, 2}},
		[]int{0, 0},
		[][]float64{{0}, {0}},
	)
	if err != nil {
		t.Fatalf("NewUnrelated: %v", err)
	}
	if got := in.TotalWork(); math.Abs(got-6) > Eps {
		t.Errorf("TotalWork = %v, want 6 (4 + 2)", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Identical: "identical", Uniform: "uniform",
		RestrictedAssignment: "restricted", Unrelated: "unrelated",
		Kind(42): "Kind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestValidateRejectsCorrupted(t *testing.T) {
	fresh := func() *Instance {
		in, err := NewUniform([]float64{1, 2}, []int{0, 1}, []float64{1, 1}, []float64{1, 2})
		if err != nil {
			t.Fatalf("NewUniform: %v", err)
		}
		return in
	}
	mutations := map[string]func(*Instance){
		"bad class":      func(in *Instance) { in.Class[0] = 9 },
		"negative p":     func(in *Instance) { in.P[0][0] = -1 },
		"nan s":          func(in *Instance) { in.S[1][0] = math.NaN() },
		"short P row":    func(in *Instance) { in.P[0] = in.P[0][:1] },
		"short speeds":   func(in *Instance) { in.Speed = in.Speed[:1] },
		"zero dimension": func(in *Instance) { in.N = 0 },
		"missing sizes":  func(in *Instance) { in.JobSize = nil },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			in := fresh()
			mutate(in)
			if err := in.Validate(); err == nil {
				t.Errorf("corrupted instance (%s) validated", name)
			}
		})
	}
}
