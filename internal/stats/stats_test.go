package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Sum != 10 {
		t.Fatalf("summary %+v", s)
	}
	// Sample std of 1..4 is sqrt(5/3).
	if math.Abs(s.Std-math.Sqrt(5.0/3)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	if s := Summarize([]float64{7}); s.Std != 0 || s.Mean != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestSubSeedDeterministicAndDistinct(t *testing.T) {
	a := SubSeed(42, 0)
	b := SubSeed(42, 0)
	if a != b {
		t.Fatal("SubSeed not deterministic")
	}
	if SubSeed(42, 1) == a || SubSeed(43, 0) == a {
		t.Fatal("SubSeed collisions on adjacent inputs")
	}
}
