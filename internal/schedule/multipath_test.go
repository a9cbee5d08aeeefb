package schedule

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/coflow"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

func multiPathLP(t *testing.T, slots, k int) *model.Solution {
	t.Helper()
	in := figure2LPInstance(t)
	if err := in.AssignKShortestPaths(k); err != nil {
		t.Fatal(err)
	}
	l, err := model.BuildMultiPath(in, timegrid.Uniform(slots))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// figure2LPInstance builds the running example without fixed paths.
func figure2LPInstance(t *testing.T) *coflow.Instance {
	t.Helper()
	sol := figure2LP(t, coflow.FreePath, 6) // reuse the builder
	// Strip to a fresh instance copy (paths/alt paths empty).
	return sol.LP.Inst
}

func TestMultiPathFromLPVerifies(t *testing.T) {
	sol := multiPathLP(t, 6, 3)
	s := FromLP(sol)
	if s.Route == nil {
		t.Fatal("Route not carried into schedule")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	s.Compact()
	if err := s.Verify(); err != nil {
		t.Fatalf("after compact: %v", err)
	}
	// With all 3 candidate paths this matches free path: optimum 5.
	if obj := s.WeightedCompletion(); obj < 5-1e-9 || obj > 7+1e-9 {
		t.Fatalf("objective %v outside [5, 7]", obj)
	}
}

func TestMultiPathStretchAndClone(t *testing.T) {
	sol := multiPathLP(t, 6, 2)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		lambda := SampleLambda(rng)
		s, err := Stretch(sol, lambda)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		c := s.Clone()
		if c.Route == nil {
			t.Fatal("clone lost Route")
		}
		c.Route[0][0][0] += 1
		if s.Route[0][0][0] == c.Route[0][0][0] {
			t.Fatal("clone shares Route storage")
		}
	}
}

func TestMultiPathVerifyCatchesViolations(t *testing.T) {
	{
		s := FromLP(multiPathLP(t, 6, 3))
		s.Route = nil
		if err := s.Verify(); err == nil {
			t.Error("missing Route accepted")
		}
	}
	{
		// Break the Σ_p rates = frac consistency.
		s := FromLP(multiPathLP(t, 6, 3))
	outer:
		for f := range s.Route {
			for k := range s.Route[f] {
				for p := range s.Route[f][k] {
					if s.Route[f][k][p] > 0.1 {
						s.Route[f][k][p] *= 2
						break outer
					}
				}
			}
		}
		if err := s.Verify(); err == nil {
			t.Error("inconsistent path rates accepted")
		}
	}
	{
		// Overload an edge: push the big coflow entirely through one
		// path in one slot (demand 3 > capacity 1).
		s := FromLP(multiPathLP(t, 6, 3))
		f := 3 // the s→t flow is flattened last
		for k := range s.Frac[f] {
			s.Frac[f][k] = 0
			for p := range s.Route[f][k] {
				s.Route[f][k][p] = 0
			}
		}
		s.Frac[f][0] = 1
		s.Route[f][0][0] = 1
		if err := s.Verify(); err == nil {
			t.Error("edge overload accepted")
		}
	}
	{
		// Negative path rate.
		s := FromLP(multiPathLP(t, 6, 3))
		s.Route[0][0][0] = -0.5
		if err := s.Verify(); err == nil {
			t.Error("negative path rate accepted")
		}
	}
	{
		// Paths other than the flow's AltPaths, each still an s→t path.
		s := FromLP(multiPathLP(t, 6, 3))
		s.Paths = slices.Clone(s.Paths)
		s.Paths[3] = slices.Clone(s.Paths[3])
		slices.Reverse(s.Paths[3])
		if err := s.Verify(); err == nil || !strings.Contains(err.Error(), "not its AltPaths") {
			t.Errorf("paths off the AltPaths: Verify says %v", err)
		}
	}
}

func TestMultiPathCompactionNeverWorsens(t *testing.T) {
	sol := multiPathLP(t, 8, 2)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		s, err := Stretch(sol, 0.3+0.7*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		before := s.WeightedCompletion()
		s.Compact()
		after := s.WeightedCompletion()
		if after > before+1e-9 {
			t.Fatalf("compaction worsened %v → %v", before, after)
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
		if math.IsInf(after, 1) {
			t.Fatal("lost demand during compaction")
		}
	}
}
