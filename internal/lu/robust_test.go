package lu

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func tinyDiag(n int, v float64) *sparse.Matrix {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, v)
	}
	return b.Build()
}

// TestSingularityThresholdIsFixed pins the absolute pivot tolerance
// (1e-10): pivots of 1e-8 clear it and solve, pivots of 1e-11 do not.
func TestSingularityThresholdIsFixed(t *testing.T) {
	f := New(3)
	if err := f.Factor(tinyDiag(3, 1e-8)); err != nil {
		t.Fatalf("1e-8 diagonal rejected: %v", err)
	}
	x := make([]float64, 3)
	f.Solve([]float64{1e-8, 2e-8, 3e-8}, x)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(x[i]-want) > 1e-9 {
			t.Fatalf("solve of 1e-8 diagonal: x = %v", x)
		}
	}
	if err := f.Factor(tinyDiag(3, 1e-11)); !errors.Is(err, ErrSingular) {
		t.Fatalf("1e-11 diagonal: err = %v, want ErrSingular", err)
	}
}

func TestSingularErrorNamesStepAndColumn(t *testing.T) {
	// Column 1 is 3× column 0: the elimination dies at its second step.
	bld := sparse.NewBuilder(3, 3)
	bld.Add(0, 0, 1)
	bld.Add(1, 0, 2)
	bld.Add(0, 1, 3)
	bld.Add(1, 1, 6)
	bld.Add(2, 2, 1)
	err := New(3).Factor(bld.Build())
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "step") || !strings.Contains(msg, "column") || !strings.Contains(msg, "tolerance") {
		t.Fatalf("singular error lacks elimination context: %q", msg)
	}
}

func TestSolvePanicsOnDeficientFactors(t *testing.T) {
	bld := sparse.NewBuilder(2, 2)
	bld.Add(0, 0, 1)
	bld.Add(0, 1, 2) // rank 1
	f := New(2)
	if err := f.Factor(bld.Build()); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Solve on a failed factorization did not panic")
		}
	}()
	x := make([]float64, 2)
	f.Solve([]float64{1, 1}, x)
}
