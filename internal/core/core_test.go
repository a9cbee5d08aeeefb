package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/timegrid"
)

// figure2Instance builds the Section 2 running example with the
// Figure 3 path assignment when paths is true.
func figure2Instance(paths bool) *coflow.Instance {
	g := graph.Figure2()
	s, tt := g.MustNode("s"), g.MustNode("t")
	direct := func(from, to graph.NodeID) []graph.EdgeID {
		for _, eid := range g.OutEdges(from) {
			if g.Edge(eid).To == to {
				return []graph.EdgeID{eid}
			}
		}
		panic("no direct edge")
	}
	v := []graph.NodeID{g.MustNode("v1"), g.MustNode("v2"), g.MustNode("v3")}
	in := &coflow.Instance{Graph: g}
	for i := 0; i < 3; i++ {
		f := coflow.Flow{Source: v[i], Sink: tt, Demand: 1}
		if paths {
			f.Path = direct(v[i], tt)
		}
		in.Coflows = append(in.Coflows, coflow.Coflow{ID: i, Weight: 1, Flows: []coflow.Flow{f}})
	}
	big := coflow.Flow{Source: s, Sink: tt, Demand: 3}
	if paths {
		big.Path = append(direct(s, v[1]), direct(v[1], tt)...)
	}
	in.Coflows = append(in.Coflows, coflow.Coflow{ID: 3, Weight: 1, Flows: []coflow.Flow{big}})
	return in
}

func TestRunFigure2SinglePath(t *testing.T) {
	in := figure2Instance(true)
	opt := Options{Grid: timegrid.Uniform(6), Trials: 10, Seed: 1}
	res, err := Run(context.Background(), in, coflow.SinglePath, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Integral optimum is 7 (Figure 3). The LP bound is below it; the
	// heuristic can do no better than 7; Stretch averages stay within
	// the 2-approximation of the bound.
	if res.LowerBound > 7+1e-6 {
		t.Fatalf("LP bound %v above optimum 7", res.LowerBound)
	}
	if res.Heuristic.Weighted < 7-1e-9 {
		t.Fatalf("heuristic %v beats integral optimum 7", res.Heuristic.Weighted)
	}
	if res.Heuristic.Weighted > 9+1e-9 {
		t.Fatalf("heuristic objective %v far from optimum 7", res.Heuristic.Weighted)
	}
	if res.Stretch == nil {
		t.Fatal("stretch stats missing")
	}
	if res.Stretch.BestWeighted > res.Stretch.AvgWeighted+1e-9 {
		t.Fatal("best λ worse than average")
	}
	if res.Stretch.AvgWeighted > 2.5*res.LowerBound {
		t.Fatalf("average stretch %v suspiciously above 2×LP %v",
			res.Stretch.AvgWeighted, 2*res.LowerBound)
	}
}

func TestRunFigure2FreePath(t *testing.T) {
	in := figure2Instance(false)
	opt := Options{Grid: timegrid.Uniform(6), Trials: 5, Seed: 2}
	res, err := Run(context.Background(), in, coflow.FreePath, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Free-path optimum is 5 (Figure 4).
	if res.LowerBound > 5+1e-6 {
		t.Fatalf("LP bound %v above optimum 5", res.LowerBound)
	}
	if res.Heuristic.Weighted < 5-1e-9 {
		t.Fatalf("heuristic %v beats optimum 5", res.Heuristic.Weighted)
	}
	// The LP heuristic is near-optimal here.
	if res.Heuristic.Weighted > 7+1e-9 {
		t.Fatalf("heuristic %v far above optimum 5", res.Heuristic.Weighted)
	}
}

func TestHeuristicDominatesLowerBound(t *testing.T) {
	// Random small instances on SWAN, both models.
	rng := rand.New(rand.NewSource(11))
	g := graph.SWAN(2)
	for trial := 0; trial < 4; trial++ {
		in := &coflow.Instance{Graph: g}
		nc := 2 + rng.Intn(3)
		for j := 0; j < nc; j++ {
			c := coflow.Coflow{ID: j, Weight: 1 + rng.Float64()*9, Release: float64(rng.Intn(3))}
			nf := 1 + rng.Intn(2)
			for i := 0; i < nf; i++ {
				src := graph.NodeID(rng.Intn(g.NumNodes()))
				dst := graph.NodeID(rng.Intn(g.NumNodes()))
				for dst == src {
					dst = graph.NodeID(rng.Intn(g.NumNodes()))
				}
				c.Flows = append(c.Flows, coflow.Flow{
					Source: src, Sink: dst, Demand: 1 + rng.Float64()*5,
				})
			}
			in.Coflows = append(in.Coflows, c)
		}
		if err := in.AssignRandomShortestPaths(rng); err != nil {
			t.Fatal(err)
		}
		opt := Options{Grid: DefaultGrid(in, coflow.SinglePath, 30), Trials: 3, Seed: int64(trial)}
		for _, mode := range []coflow.Model{coflow.SinglePath, coflow.FreePath} {
			res, err := Run(context.Background(), in, mode, opt)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, mode, err)
			}
			if res.Heuristic.Weighted < res.LowerBound-1e-6 {
				t.Fatalf("trial %d %v: heuristic %v below LP bound %v",
					trial, mode, res.Heuristic.Weighted, res.LowerBound)
			}
			if res.Stretch != nil && res.Stretch.BestWeighted < res.LowerBound-1e-6 {
				t.Fatalf("trial %d %v: stretch best %v below LP bound %v",
					trial, mode, res.Stretch.BestWeighted, res.LowerBound)
			}
		}
	}
}

func TestStretchTrialsValidation(t *testing.T) {
	in := figure2Instance(true)
	opt := Options{Grid: timegrid.Uniform(6)}
	sol, err := SolveLP(context.Background(), in, coflow.SinglePath, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StretchTrials(context.Background(), sol, 0, opt); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestRunUnknownModel(t *testing.T) {
	in := figure2Instance(true)
	opt := Options{Grid: timegrid.Uniform(6)}
	if _, err := SolveLP(context.Background(), in, coflow.Model(9), opt); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestGeometricGridHeuristicOnly(t *testing.T) {
	in := figure2Instance(true)
	opt := Options{Grid: timegrid.Geometric(8, 0.5), Trials: 5, Seed: 3}
	res, err := Run(context.Background(), in, coflow.SinglePath, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stretch != nil {
		t.Fatal("stretch should be skipped on geometric grids")
	}
	if res.Heuristic == nil || res.Heuristic.Weighted < res.LowerBound-1e-6 {
		t.Fatalf("heuristic %+v vs bound %v", res.Heuristic, res.LowerBound)
	}
}

func TestCompactionAblation(t *testing.T) {
	in := figure2Instance(true)
	grid := timegrid.Uniform(8)
	solved, err := SolveLP(context.Background(), in, coflow.SinglePath, Options{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		lambda := 0.3 + 0.69*rng.Float64()
		with, err := StretchOnce(solved, lambda, Options{Grid: grid})
		if err != nil {
			t.Fatal(err)
		}
		without, err := StretchOnce(solved, lambda, Options{Grid: grid, DisableCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		if with.Weighted > without.Weighted+1e-9 {
			t.Fatalf("λ=%v: compaction hurt: %v → %v", lambda, without.Weighted, with.Weighted)
		}
	}
}

func TestDefaultGrid(t *testing.T) {
	in := figure2Instance(true)
	g := DefaultGrid(in, coflow.SinglePath, 100)
	if !g.IsUniform() {
		t.Fatal("default grid must be uniform")
	}
	// Horizon must cover the sequential bound (total demand 6 at unit
	// rate, plus slack).
	if g.Horizon() < 6 {
		t.Fatalf("horizon %v too small", g.Horizon())
	}
	capped := DefaultGrid(in, coflow.SinglePath, 4)
	if capped.NumSlots() != 4 {
		t.Fatalf("cap not applied: %d slots", capped.NumSlots())
	}
}

func TestTheorem44EmpiricalTwoApprox(t *testing.T) {
	// Average of many Stretch samples stays ≤ 2×LP (Theorem 4.4), on
	// an instance with nontrivial congestion.
	in := figure2Instance(true)
	opt := Options{Grid: timegrid.Uniform(8), Seed: 5}
	sol, err := SolveLP(context.Background(), in, coflow.SinglePath, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := StretchTrials(context.Background(), sol, 300, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgWeighted > 2*sol.LowerBound*(1+0.05) {
		t.Fatalf("E[obj]=%v > 2×LP=%v", st.AvgWeighted, 2*sol.LowerBound)
	}
	if math.IsInf(st.BestWeighted, 1) {
		t.Fatal("no finite best objective")
	}
}

// TestStretchTrialsDeterministicAcrossWorkers: a fixed seed must give
// bit-identical Best/Average λ stats at any worker count, because each
// trial's RNG is derived from (seed, index) and aggregation happens in
// trial order.
func TestStretchTrialsDeterministicAcrossWorkers(t *testing.T) {
	in := figure2Instance(true)
	base := Options{Grid: timegrid.Uniform(8), Seed: 99}
	sol, err := SolveLP(context.Background(), in, coflow.SinglePath, base)
	if err != nil {
		t.Fatal(err)
	}
	var ref *StretchStats
	for _, workers := range []int{1, 4, 8} {
		opt := base
		opt.Workers = workers
		st, err := StretchTrials(context.Background(), sol, 12, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = st
			continue
		}
		if st.BestWeighted != ref.BestWeighted || st.AvgWeighted != ref.AvgWeighted ||
			st.BestLambda != ref.BestLambda || st.BestTotal != ref.BestTotal ||
			st.AvgTotal != ref.AvgTotal || st.BestTotalLmbda != ref.BestTotalLmbda {
			t.Fatalf("workers=%d: stats diverge from serial:\n%+v\nvs\n%+v", workers, st, ref)
		}
		for i := range st.Samples {
			if st.Samples[i].Lambda != ref.Samples[i].Lambda ||
				st.Samples[i].Weighted != ref.Samples[i].Weighted ||
				st.Samples[i].Total != ref.Samples[i].Total {
				t.Fatalf("workers=%d: sample %d diverges", workers, i)
			}
		}
	}
}

// TestTrialLambdaPureFunction: λ for a trial depends only on (seed,
// index), never on evaluation order.
func TestTrialLambdaPureFunction(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, b := TrialLambda(3, i), TrialLambda(3, i)
		if a != b {
			t.Fatalf("trial %d: %v != %v", i, a, b)
		}
		if a <= 0 || a >= 1 {
			t.Fatalf("trial %d: λ=%v outside (0,1)", i, a)
		}
	}
	if TrialLambda(3, 0) == TrialLambda(4, 0) {
		t.Fatal("different seeds gave the same λ")
	}
}

// TestStretchTrialsDrawTrialLambda: every trial of StretchTrials rounds
// with exactly TrialLambda(seed, i), at one worker and at four, so a
// replay that calls TrialLambda per trial sees the same λs. k covers
// the trial counts the workloads use: 1 (the online re-plans), 2 and
// 20 (the paper's).
func TestStretchTrialsDrawTrialLambda(t *testing.T) {
	sol := trialLambdaLP(t)
	for _, k := range []int{1, 2, 20} {
		for seed := int64(1); seed <= 50; seed++ {
			for _, workers := range []int{1, 4} {
				checkTrialLambdas(t, sol, k, seed, workers)
			}
		}
	}
}

// TestStretchTrialsDrawTrialLambdaConcurrent: four goroutines calling
// StretchTrials at once, which pass trial schedules between them
// through the shared free list, each still draw TrialLambda's λs.
func TestStretchTrialsDrawTrialLambdaConcurrent(t *testing.T) {
	sol := trialLambdaLP(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := int64(1); seed <= 25; seed++ {
				for _, k := range []int{1, 2, 20} {
					checkTrialLambdas(t, sol, k, seed+int64(100*g), 1)
				}
			}
		}()
	}
	wg.Wait()
}

// trialLambdaLP solves the small LP the λ draw tests round.
func trialLambdaLP(t *testing.T) *model.Solution {
	t.Helper()
	sol, err := SolveLP(context.Background(), figure2Instance(true), coflow.SinglePath, Options{Grid: timegrid.Uniform(6)})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// checkTrialLambdas runs k trials and reports, with t.Error so that it
// may run off the test's goroutine, any trial whose λ is not
// TrialLambda(seed, i).
func checkTrialLambdas(t *testing.T, sol *model.Solution, k int, seed int64, workers int) {
	st, err := StretchTrials(context.Background(), sol, k, Options{Grid: timegrid.Uniform(6), Seed: seed, Workers: workers})
	if err != nil {
		t.Error(err)
		return
	}
	if len(st.Samples) != k {
		t.Errorf("k %d, seed %d: %d samples", k, seed, len(st.Samples))
		return
	}
	for i, ev := range st.Samples {
		if want := TrialLambda(seed, i); math.Float64bits(ev.Lambda) != math.Float64bits(want) {
			t.Errorf("k %d, seed %d, workers %d: trial %d rounded with λ = %v, TrialLambda gives %v",
				k, seed, workers, i, ev.Lambda, want)
			return
		}
	}
}
