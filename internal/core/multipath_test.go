package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/coflow"
	"repro/internal/timegrid"
)

// TestMultiPathEndToEnd exercises the intermediate model through the
// whole pipeline: LP, heuristic, randomized Stretch, compaction and
// verification.
func TestMultiPathEndToEnd(t *testing.T) {
	in := figure2Instance(false)
	if err := in.AssignKShortestPaths(3); err != nil {
		t.Fatal(err)
	}
	opt := Options{Grid: timegrid.Uniform(6), Trials: 10, Seed: 4}
	res, err := Run(context.Background(), in, coflow.MultiPath, opt)
	if err != nil {
		t.Fatal(err)
	}
	// With all three s→t paths available this instance behaves like
	// free path: optimum 5.
	if res.LowerBound > 5+1e-6 {
		t.Fatalf("multi-path LP bound %v above 5", res.LowerBound)
	}
	if res.Heuristic.Weighted < 5-1e-9 {
		t.Fatalf("heuristic %v beats optimum 5", res.Heuristic.Weighted)
	}
	if res.Heuristic.Weighted > 7+1e-9 {
		t.Fatalf("heuristic %v far above optimum 5", res.Heuristic.Weighted)
	}
	if res.Stretch == nil || math.IsInf(res.Stretch.BestWeighted, 1) {
		t.Fatal("stretch stats missing for multi path")
	}
	// Every sampled schedule was verified inside Run; double-check the
	// heuristic carries path rates.
	if res.Heuristic.Schedule.Route == nil {
		t.Fatal("multi-path schedule lost its path rates")
	}
}

// TestMultiPathStretchFeasibility verifies stretched multi-path
// schedules for many λ, including truncation scaling of path rates.
func TestMultiPathStretchFeasibility(t *testing.T) {
	in := figure2Instance(false)
	if err := in.AssignKShortestPaths(2); err != nil {
		t.Fatal(err)
	}
	opt := Options{Grid: timegrid.Uniform(8)}
	sol, err := SolveLP(context.Background(), in, coflow.MultiPath, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		lambda := 0.2 + 0.8*rng.Float64()
		ev, err := StretchOnce(sol, lambda, opt)
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		if ev.Weighted < sol.LowerBound-1e-6 {
			t.Fatalf("λ=%v: objective %v below LP bound %v", lambda, ev.Weighted, sol.LowerBound)
		}
	}
}
