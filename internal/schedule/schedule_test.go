package schedule

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// lineLP builds and solves the single-flow unit-line LP.
func lineLP(t *testing.T, demand, release float64, slots int) *model.Solution {
	t.Helper()
	g := graph.Line(2, 1)
	in := &coflow.Instance{Graph: g, Coflows: []coflow.Coflow{{
		ID: 0, Weight: 1, Release: release,
		Flows: []coflow.Flow{{
			Source: g.MustNode("v0"), Sink: g.MustNode("v1"),
			Demand: demand, Path: []graph.EdgeID{0},
		}},
	}}}
	l, err := model.BuildSinglePath(in, timegrid.Uniform(slots))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// figure2LP builds and solves the Section 2 running example.
func figure2LP(t *testing.T, mode coflow.Model, slots int) *model.Solution {
	t.Helper()
	g := graph.Figure2()
	s, tt := g.MustNode("s"), g.MustNode("t")
	direct := func(from, to graph.NodeID) []graph.EdgeID {
		for _, eid := range g.OutEdges(from) {
			if g.Edge(eid).To == to {
				return []graph.EdgeID{eid}
			}
		}
		t.Fatalf("no direct edge")
		return nil
	}
	v := []graph.NodeID{g.MustNode("v1"), g.MustNode("v2"), g.MustNode("v3")}
	in := &coflow.Instance{Graph: g}
	for i := 0; i < 3; i++ {
		in.Coflows = append(in.Coflows, coflow.Coflow{
			ID: i, Weight: 1,
			Flows: []coflow.Flow{{Source: v[i], Sink: tt, Demand: 1, Path: direct(v[i], tt)}},
		})
	}
	in.Coflows = append(in.Coflows, coflow.Coflow{
		ID: 3, Weight: 1,
		Flows: []coflow.Flow{{Source: s, Sink: tt, Demand: 3,
			Path: append(direct(s, v[1]), direct(v[1], tt)...)}},
	})
	if mode == coflow.FreePath {
		for ci := range in.Coflows {
			in.Coflows[ci].Flows[0].Path = nil
		}
		l, err := model.BuildFreePath(in, timegrid.Uniform(slots))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := l.Solve(context.Background(), simplex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	l, err := model.BuildSinglePath(in, timegrid.Uniform(slots))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestFromLPLine(t *testing.T) {
	sol := lineLP(t, 2, 0, 4)
	s := FromLP(sol)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	ct := s.CompletionTimes()
	if math.Abs(ct[0]-2) > 1e-9 {
		t.Fatalf("completion = %v, want 2", ct[0])
	}
	if math.Abs(s.WeightedCompletion()-2) > 1e-9 {
		t.Fatalf("weighted completion = %v", s.WeightedCompletion())
	}
	// The schedule objective is never below the LP bound.
	if s.WeightedCompletion() < sol.LowerBound-1e-9 {
		t.Fatalf("schedule %v below LP bound %v", s.WeightedCompletion(), sol.LowerBound)
	}
}

func TestHeuristicRespectsReleases(t *testing.T) {
	sol := lineLP(t, 1, 2, 6)
	s := FromLP(sol)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if ct := s.CompletionTimes(); ct[0] < 3-1e-9 {
		t.Fatalf("completion %v before release+1", ct[0])
	}
}

func TestFigure2SinglePathHeuristic(t *testing.T) {
	sol := figure2LP(t, coflow.SinglePath, 6)
	s := FromLP(sol)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	s.Compact()
	if err := s.Verify(); err != nil {
		t.Fatalf("after compaction: %v", err)
	}
	obj := s.WeightedCompletion()
	// The integral optimum is 7 (Figure 3); any feasible schedule is ≥ 7,
	// and the LP bound is below.
	if obj < 7-1e-9 {
		t.Fatalf("schedule objective %v below integral optimum 7", obj)
	}
	if sol.LowerBound > obj+1e-9 {
		t.Fatalf("LP bound %v above schedule %v", sol.LowerBound, obj)
	}
}

func TestFigure2FreePathHeuristic(t *testing.T) {
	sol := figure2LP(t, coflow.FreePath, 6)
	s := FromLP(sol)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	s.Compact()
	if err := s.Verify(); err != nil {
		t.Fatalf("after compaction: %v", err)
	}
	if obj := s.WeightedCompletion(); obj < 5-1e-9 {
		t.Fatalf("free-path schedule %v below optimum 5", obj)
	}
}

func TestStretchIdentityAtLambdaOne(t *testing.T) {
	for _, mode := range []coflow.Model{coflow.SinglePath, coflow.FreePath} {
		sol := figure2LP(t, mode, 6)
		direct := FromLP(sol)
		stretched, err := Stretch(sol, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if err := stretched.Verify(); err != nil {
			t.Fatal(err)
		}
		a := direct.CompletionTimes()
		b := stretched.CompletionTimes()
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-6 {
				t.Fatalf("%v: coflow %d completion %v (direct) vs %v (stretch λ=1)", mode, j, a[j], b[j])
			}
		}
	}
}

func TestStretchFeasibleForRandomLambda(t *testing.T) {
	solSP := figure2LP(t, coflow.SinglePath, 6)
	solFP := figure2LP(t, coflow.FreePath, 6)
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		lambda := SampleLambda(rng)
		for _, sol := range []*model.Solution{solSP, solFP} {
			s, err := Stretch(sol, lambda)
			if err != nil {
				t.Fatalf("λ=%v: %v", lambda, err)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("λ=%v: %v", lambda, err)
			}
			// Compaction preserves feasibility and never hurts.
			before := s.WeightedCompletion()
			s.Compact()
			if err := s.Verify(); err != nil {
				t.Fatalf("λ=%v after compact: %v", lambda, err)
			}
			if after := s.WeightedCompletion(); after > before+1e-9 {
				t.Fatalf("λ=%v: compaction increased objective %v → %v", lambda, before, after)
			}
		}
	}
}

func TestStretchExpectationWithinTwiceLP(t *testing.T) {
	// Empirical check of Theorem 4.4: E[obj(Stretch)] ≤ 2·LP bound.
	// 200 samples with a fixed seed keeps the noise well below the gap.
	sol := figure2LP(t, coflow.SinglePath, 6)
	rng := rand.New(rand.NewSource(7))
	var sum float64
	const n = 200
	for i := 0; i < n; i++ {
		s, err := Stretch(sol, SampleLambda(rng))
		if err != nil {
			t.Fatal(err)
		}
		sum += s.WeightedCompletion()
	}
	avg := sum / n
	if avg > 2*sol.LowerBound*1.05 {
		t.Fatalf("empirical E[obj] = %v exceeds 2×LP = %v", avg, 2*sol.LowerBound)
	}
}

func TestStretchParameterValidation(t *testing.T) {
	sol := lineLP(t, 2, 0, 4)
	if _, err := Stretch(sol, 0); err == nil {
		t.Fatal("λ=0 accepted")
	}
	if _, err := Stretch(sol, 1.5); err == nil {
		t.Fatal("λ>1 accepted")
	}
	// Geometric grids are rejected.
	g := graph.Line(2, 1)
	in := &coflow.Instance{Graph: g, Coflows: []coflow.Coflow{{
		ID: 0, Weight: 1,
		Flows: []coflow.Flow{{Source: g.MustNode("v0"), Sink: g.MustNode("v1"),
			Demand: 2, Path: []graph.EdgeID{0}}},
	}}}
	l, err := model.BuildSinglePath(in, timegrid.Geometric(6, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	gsol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stretch(gsol, 0.5); err == nil {
		t.Fatal("geometric grid accepted by Stretch")
	}
}

func TestCompactMovesStretchGaps(t *testing.T) {
	// λ = 0.5 doubles the schedule span, leaving idle slots that
	// compaction should reclaim.
	sol := lineLP(t, 2, 0, 4)
	s, err := Stretch(sol, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	before := s.CompletionTimes()[0]
	moves := s.Compact()
	after := s.CompletionTimes()[0]
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("compaction worsened completion %v → %v", before, after)
	}
	if moves == 0 && after == before && before > 2 {
		t.Fatalf("no moves and completion %v still above optimum 2", before)
	}
	if after > 2+1e-9 {
		t.Fatalf("compacted completion %v, want 2 (contiguous prefix)", after)
	}
}

func TestCompactRespectsReleases(t *testing.T) {
	sol := lineLP(t, 1, 3, 8)
	s := FromLP(sol)
	s.Compact()
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if ct := s.CompletionTimes()[0]; ct < 4-1e-9 {
		t.Fatalf("compaction moved flow before its release: completion %v", ct)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	base := func() *Schedule { return FromLP(figure2LP(t, coflow.SinglePath, 6)) }
	{
		s := base()
		s.Frac[0][0] = -0.5
		if err := s.Verify(); err == nil {
			t.Error("negative fraction accepted")
		}
	}
	{
		s := base()
		s.Frac[0][s.Grid.NumSlots()-1] += 1 // overshoot total
		if err := s.Verify(); err == nil {
			t.Error("total > 1 accepted")
		}
	}
	{
		s := base()
		for k := range s.Frac[3] {
			s.Frac[3][k] = 0
		}
		if err := s.Verify(); err == nil {
			t.Error("unscheduled flow accepted")
		}
	}
	{
		// Capacity: cram the big coflow into one slot (demand 3 > cap 1).
		s := base()
		for k := range s.Frac[3] {
			s.Frac[3][k] = 0
		}
		s.Frac[3][0] = 1
		if err := s.Verify(); err == nil {
			t.Error("capacity violation accepted")
		}
	}
	{
		// Release: move transmission before release.
		g := graph.Line(2, 1)
		in := &coflow.Instance{Graph: g, Coflows: []coflow.Coflow{{
			ID: 0, Weight: 1, Release: 2,
			Flows: []coflow.Flow{{Source: g.MustNode("v0"), Sink: g.MustNode("v1"),
				Demand: 1, Path: []graph.EdgeID{0}}},
		}}}
		l, err := model.BuildSinglePath(in, timegrid.Uniform(5))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := l.Solve(context.Background(), simplex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := FromLP(sol)
		s.Frac[0] = []float64{1, 0, 0, 0, 0}
		if err := s.Verify(); err == nil {
			t.Error("pre-release transmission accepted")
		}
	}
	{
		// Free path: break conservation.
		s := FromLP(figure2LP(t, coflow.FreePath, 6))
		for k := range s.Route[0] {
			for e := range s.Route[0][k] {
				if s.Route[0][k][e] > 0 {
					s.Route[0][k][e] *= 2
					if err := s.Verify(); err == nil {
						t.Error("conservation violation accepted")
					}
					return
				}
			}
		}
		t.Fatal("no positive edge fraction found")
	}
}

func TestVerifyMissingEdgeRouting(t *testing.T) {
	s := FromLP(figure2LP(t, coflow.FreePath, 6))
	s.Route = nil
	if err := s.Verify(); err == nil {
		t.Fatal("free-path schedule without routing accepted")
	}
}

func TestSampleLambdaDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		l := SampleLambda(rng)
		if l <= 0 || l > 1 {
			t.Fatalf("λ=%v out of range", l)
		}
		sum += l
	}
	// E[λ] = ∫ 2v² dv = 2/3.
	if mean := sum / n; math.Abs(mean-2.0/3) > 0.01 {
		t.Fatalf("mean λ = %v, want ≈ 2/3", mean)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := FromLP(figure2LP(t, coflow.FreePath, 6))
	c := s.Clone()
	c.Frac[0][0] += 0.25
	if s.Frac[0][0] == c.Frac[0][0] {
		t.Fatal("clone shares Frac")
	}
	c.Route[0][0][0] += 0.25
	if s.Route[0][0][0] == c.Route[0][0][0] {
		t.Fatal("clone shares Route")
	}
}
