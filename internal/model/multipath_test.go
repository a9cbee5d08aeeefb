package model

import (
	"context"
	"math"
	"testing"

	"repro/internal/coflow"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// figure2MultiPath gives every flow of the running example its full
// k-shortest path set (each v_i→t has one 1-hop path; s→t has three
// 2-hop paths).
func figure2MultiPath(t *testing.T, k int) *coflow.Instance {
	t.Helper()
	in := figure2FreePath()
	if err := in.AssignKShortestPaths(k); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestMultiPathFigure2AllPaths(t *testing.T) {
	// With all three s→t paths available, the multi path model matches
	// the free path optimum on this instance: LP bound of the free
	// path model (every transfer here is routed on simple paths).
	in := figure2MultiPath(t, 3)
	l, err := BuildMultiPath(in, timegrid.Uniform(6))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Route == nil {
		t.Fatal("Route missing")
	}
	lf, err := BuildFreePath(figure2FreePath(), timegrid.Uniform(6))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := lf.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.LowerBound-sf.LowerBound) > 1e-5 {
		t.Fatalf("multi-path LP %v ≠ free-path LP %v (all paths given)",
			sol.LowerBound, sf.LowerBound)
	}
}

func TestMultiPathInterpolatesBetweenModels(t *testing.T) {
	// LP bounds are ordered: single path (most constrained) ≥ multi
	// path with k=3 candidates ≥ free path (least constrained).
	grid := timegrid.Uniform(6)
	ls, err := BuildSinglePath(figure2SinglePath(), grid)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ls.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := BuildMultiPath(figure2MultiPath(t, 3), grid)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := lm.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := BuildFreePath(figure2FreePath(), grid)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := lf.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sm.LowerBound > ss.LowerBound+1e-6 {
		t.Fatalf("multi %v above single %v", sm.LowerBound, ss.LowerBound)
	}
	if sf.LowerBound > sm.LowerBound+1e-6 {
		t.Fatalf("free %v above multi %v", sf.LowerBound, sm.LowerBound)
	}
}

func TestMultiPathOnePathMatchesSinglePath(t *testing.T) {
	// Candidate set = exactly the fixed path: the two LPs coincide.
	grid := timegrid.Uniform(6)
	inSingle := figure2SinglePath()
	inMulti := figure2SinglePath()
	for ci := range inMulti.Coflows {
		f := &inMulti.Coflows[ci].Flows[0]
		f.AltPaths = append(f.AltPaths, f.Path)
	}
	ls, err := BuildSinglePath(inSingle, grid)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ls.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := BuildMultiPath(inMulti, grid)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := lm.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ss.LowerBound-sm.LowerBound) > 1e-5 {
		t.Fatalf("single %v ≠ multi-with-one-path %v", ss.LowerBound, sm.LowerBound)
	}
}

func TestMultiPathRouteConsistency(t *testing.T) {
	in := figure2MultiPath(t, 3)
	l, err := BuildMultiPath(in, timegrid.Uniform(6))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := range sol.Frac {
		for k := 0; k < l.Grid.NumSlots(); k++ {
			var sum float64
			for _, v := range sol.Route[f][k] {
				sum += v
			}
			if math.Abs(sum-sol.Frac[f][k]) > 1e-6 {
				t.Fatalf("flow %d slot %d: path sum %v ≠ frac %v", f, k, sum, sol.Frac[f][k])
			}
		}
	}
}

func TestMultiPathValidation(t *testing.T) {
	in := figure2FreePath() // no AltPaths assigned
	if _, err := BuildMultiPath(in, timegrid.Uniform(6)); err == nil {
		t.Fatal("expected validation error without AltPaths")
	}
}
