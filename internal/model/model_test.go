package model

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// lineInstance: one coflow, one flow of the given demand over a
// 2-node unit-capacity line.
func lineInstance(demand, release float64) *coflow.Instance {
	g := graph.Line(2, 1)
	in := &coflow.Instance{Graph: g, Coflows: []coflow.Coflow{{
		ID: 0, Weight: 1, Release: release,
		Flows: []coflow.Flow{{
			Source: g.MustNode("v0"), Sink: g.MustNode("v1"), Demand: demand,
			Path: []graph.EdgeID{0},
		}},
	}}}
	return in
}

// figure2SinglePath builds the Section 2 running example with the
// paper's Figure 3 path assignment (green shares v2→t with blue).
func figure2SinglePath() *coflow.Instance {
	g := graph.Figure2()
	s, t := g.MustNode("s"), g.MustNode("t")
	v1, v2, v3 := g.MustNode("v1"), g.MustNode("v2"), g.MustNode("v3")
	pathTo := func(from, to graph.NodeID) []graph.EdgeID {
		// direct edge
		for _, eid := range g.OutEdges(from) {
			if g.Edge(eid).To == to {
				return []graph.EdgeID{eid}
			}
		}
		panic("no direct edge")
	}
	in := &coflow.Instance{Graph: g}
	in.Coflows = []coflow.Coflow{
		{ID: 0, Weight: 1, Flows: []coflow.Flow{{Source: v1, Sink: t, Demand: 1, Path: pathTo(v1, t)}}},
		{ID: 1, Weight: 1, Flows: []coflow.Flow{{Source: v2, Sink: t, Demand: 1, Path: pathTo(v2, t)}}},
		{ID: 2, Weight: 1, Flows: []coflow.Flow{{Source: v3, Sink: t, Demand: 1, Path: pathTo(v3, t)}}},
		{ID: 3, Weight: 1, Flows: []coflow.Flow{{Source: s, Sink: t, Demand: 3,
			Path: append(pathTo(s, v2), pathTo(v2, t)...)}}},
	}
	return in
}

func figure2FreePath() *coflow.Instance {
	in := figure2SinglePath()
	for ci := range in.Coflows {
		for fi := range in.Coflows[ci].Flows {
			in.Coflows[ci].Flows[fi].Path = nil
		}
	}
	return in
}

func TestSinglePathTinyExactLP(t *testing.T) {
	// Demand 2 on a unit line with 4 slots: C* = 1.5 (x = ½, ½).
	in := lineInstance(2, 0)
	l, err := BuildSinglePath(in, timegrid.Uniform(4))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.LowerBound-1.5) > 1e-6 {
		t.Fatalf("LP bound = %v, want 1.5", sol.LowerBound)
	}
	if math.Abs(sol.CStar[0]-1.5) > 1e-6 {
		t.Fatalf("C* = %v, want 1.5", sol.CStar[0])
	}
	// The schedule must place ½ in each of the first two slots.
	if math.Abs(sol.Frac[0][0]-0.5) > 1e-6 || math.Abs(sol.Frac[0][1]-0.5) > 1e-6 {
		t.Fatalf("frac = %v", sol.Frac[0])
	}
}

func TestSinglePathReleaseTime(t *testing.T) {
	// Unit demand released at time 2 on a 5-slot grid: C* = 3.
	in := lineInstance(1, 2)
	l, err := BuildSinglePath(in, timegrid.Uniform(5))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.LowerBound-3) > 1e-6 {
		t.Fatalf("LP bound = %v, want 3", sol.LowerBound)
	}
	// Slots before the release must be empty.
	if sol.Frac[0][0] != 0 || sol.Frac[0][1] != 0 {
		t.Fatalf("scheduled before release: %v", sol.Frac[0])
	}
}

func TestSinglePathGeometricGrid(t *testing.T) {
	// Demand 3 on a unit line; geometric grid ε=1 (bounds 0,1,2,4):
	// interval capacities 1,1,2 → x=(1/3,1/3,1/3), C* = 2.
	in := lineInstance(3, 0)
	l, err := BuildSinglePath(in, timegrid.Geometric(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.LowerBound-2) > 1e-6 {
		t.Fatalf("LP bound = %v, want 2", sol.LowerBound)
	}
}

func TestSinglePathFigure2Bounds(t *testing.T) {
	in := figure2SinglePath()
	l, err := BuildSinglePath(in, timegrid.Uniform(6))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The optimal integral schedule has value 7 (Figure 3); the LP is a
	// lower bound, and cannot be below the free-path optimum 5.
	if sol.LowerBound > 7+1e-6 {
		t.Fatalf("LP bound %v exceeds integral optimum 7", sol.LowerBound)
	}
	if sol.LowerBound < 5-1e-6 {
		t.Fatalf("LP bound %v below free-path optimum 5", sol.LowerBound)
	}
	// Every flow fully scheduled.
	for f := range sol.Frac {
		var sum float64
		for _, v := range sol.Frac[f] {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("flow %d total fraction %v", f, sum)
		}
	}
}

func TestFreePathFigure2Bounds(t *testing.T) {
	in := figure2FreePath()
	l, err := BuildFreePath(in, timegrid.Uniform(6))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: free-path optimum is 5. LP must be ≤ 5.
	if sol.LowerBound > 5+1e-6 {
		t.Fatalf("free-path LP bound %v exceeds optimum 5", sol.LowerBound)
	}
	if sol.LowerBound < 4-1e-6 {
		// All four coflows need ≥ 1 each.
		t.Fatalf("free-path LP bound %v is implausibly small", sol.LowerBound)
	}
	// Free path is a relaxation of single path: its bound is no larger.
	ls, err := BuildSinglePath(figure2SinglePath(), timegrid.Uniform(6))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ls.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.LowerBound > ss.LowerBound+1e-6 {
		t.Fatalf("free-path LP %v > single-path LP %v", sol.LowerBound, ss.LowerBound)
	}
}

func TestFreePathConservationInExtraction(t *testing.T) {
	in := figure2FreePath()
	l, err := BuildFreePath(in, timegrid.Uniform(6))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := in.Graph
	for f, ref := range l.Flows() {
		fl := in.FlowAt(ref)
		for k := 0; k < l.Grid.NumSlots(); k++ {
			// Net flow out of source equals Frac.
			var net float64
			for _, eid := range g.OutEdges(fl.Source) {
				net += sol.Route[f][k][eid]
			}
			for _, eid := range g.InEdges(fl.Source) {
				net -= sol.Route[f][k][eid]
			}
			if math.Abs(net-sol.Frac[f][k]) > 1e-6 {
				t.Fatalf("flow %d slot %d: net source flow %v ≠ frac %v", f, k, net, sol.Frac[f][k])
			}
			// Conservation elsewhere.
			for v := graph.NodeID(0); v < graph.NodeID(g.NumNodes()); v++ {
				if v == fl.Source || v == fl.Sink {
					continue
				}
				var bal float64
				for _, eid := range g.InEdges(v) {
					bal += sol.Route[f][k][eid]
				}
				for _, eid := range g.OutEdges(v) {
					bal -= sol.Route[f][k][eid]
				}
				if math.Abs(bal) > 1e-6 {
					t.Fatalf("flow %d slot %d node %d: conservation violated by %v", f, k, v, bal)
				}
			}
		}
	}
	// Edge capacities respected per slot.
	for k := 0; k < l.Grid.NumSlots(); k++ {
		for _, e := range g.Edges() {
			var load float64
			for f, ref := range l.Flows() {
				load += in.FlowAt(ref).Demand * sol.Route[f][k][e.ID]
			}
			if load > e.Capacity*l.Grid.Len(k)+1e-6 {
				t.Fatalf("slot %d edge %d: load %v > cap %v", k, e.ID, load, e.Capacity*l.Grid.Len(k))
			}
		}
	}
}

func TestFreePathBeatsSinglePathOnFigure1(t *testing.T) {
	// The paper's Figure 1: free path finishes the coflow in 2 slots,
	// single path needs 3.
	g := graph.Figure1()
	ny, ba := g.MustNode("NY"), g.MustNode("BA")
	hk, fl := g.MustNode("HK"), g.MustNode("FL")
	pathNYBA := g.ShortestPath(ny, ba) // direct, capacity 6
	la := g.MustNode("LA")
	var hkla, lafl graph.EdgeID = -1, -1
	for _, eid := range g.OutEdges(hk) {
		if g.Edge(eid).To == la {
			hkla = eid
		}
	}
	for _, eid := range g.OutEdges(la) {
		if g.Edge(eid).To == fl {
			lafl = eid
		}
	}
	inst := &coflow.Instance{Graph: g, Coflows: []coflow.Coflow{{
		ID: 0, Weight: 1,
		Flows: []coflow.Flow{
			{Source: ny, Sink: ba, Demand: 18, Path: pathNYBA},
			{Source: hk, Sink: fl, Demand: 12, Path: []graph.EdgeID{hkla, lafl}},
		},
	}}}
	lsp, err := BuildSinglePath(inst, timegrid.Uniform(5))
	if err != nil {
		t.Fatal(err)
	}
	ssp, err := lsp.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Single path: NY→BA at rate 6 → 3 slots; C* fractional bound is
	// 1 + (1-1/3) + (1-2/3) = 2 for that flow alone. Both flows need
	// 3 slots → C* = 2. (Fractional completion-time bound.)
	if math.Abs(ssp.LowerBound-2) > 1e-5 {
		t.Fatalf("single-path LP = %v, want 2", ssp.LowerBound)
	}

	inFree := &coflow.Instance{Graph: g, Coflows: []coflow.Coflow{{
		ID: 0, Weight: 1,
		Flows: []coflow.Flow{
			{Source: ny, Sink: ba, Demand: 18},
			{Source: hk, Sink: fl, Demand: 12},
		},
	}}}
	lfp, err := BuildFreePath(inFree, timegrid.Uniform(5))
	if err != nil {
		t.Fatal(err)
	}
	sfp, err := lfp.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Free path: both finish in 2 slots → C* = 1 + (1-1/2) = 1.5.
	if sfp.LowerBound > ssp.LowerBound+1e-6 {
		t.Fatalf("free-path LP %v > single-path LP %v", sfp.LowerBound, ssp.LowerBound)
	}
	if math.Abs(sfp.LowerBound-1.5) > 1e-5 {
		t.Fatalf("free-path LP = %v, want 1.5", sfp.LowerBound)
	}
}

func TestHorizonTooSmallRejected(t *testing.T) {
	in := lineInstance(1, 10)
	if _, err := BuildSinglePath(in, timegrid.Uniform(5)); err == nil {
		t.Fatal("expected error: release beyond horizon")
	}
}

func TestInvalidInstanceRejected(t *testing.T) {
	in := lineInstance(1, 0)
	in.Coflows[0].Flows[0].Path = nil
	if _, err := BuildSinglePath(in, timegrid.Uniform(5)); err == nil {
		t.Fatal("expected validation error for missing path")
	}
	if _, err := BuildFreePath(&coflow.Instance{}, timegrid.Uniform(5)); err == nil {
		t.Fatal("expected validation error for empty instance")
	}
}

func TestWeightsScaleObjective(t *testing.T) {
	in := lineInstance(2, 0)
	in.Coflows[0].Weight = 10
	l, err := BuildSinglePath(in, timegrid.Uniform(4))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.LowerBound-15) > 1e-6 {
		t.Fatalf("weighted LP bound = %v, want 15", sol.LowerBound)
	}
}

func TestFirstSlotAccessors(t *testing.T) {
	in := lineInstance(1, 2)
	l, err := BuildSinglePath(in, timegrid.Uniform(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Flows()) != 1 {
		t.Fatalf("Flows() len %d", len(l.Flows()))
	}
}

// TestSizeCountsTheModel holds the presizing to the builders: size
// counts exactly the variables, rows and terms a single or multi path
// relaxation gets, and bounds those of a free path one.
func TestSizeCountsTheModel(t *testing.T) {
	for _, c := range []pinCase{
		{name: "single", mode: coflow.SinglePath, coflows: 8, seed: 4, maxSlots: 48},
		{name: "free", mode: coflow.FreePath, coflows: 3, seed: 5, maxSlots: 16},
		{name: "multi", mode: coflow.MultiPath, coflows: 4, seed: 6, maxSlots: 12},
	} {
		l := pinLP(t, c)
		vars, rows, terms := l.size()
		got := [3]int{l.Model.NumVars(), l.Model.NumConstrs(), l.Model.NumNonzeros()}
		exact := c.mode != coflow.FreePath
		if (exact && got != [3]int{vars, rows, terms}) || got[0] > vars || got[1] > rows || got[2] > terms {
			t.Errorf("%s: built %v variables/rows/terms, size counts %v", c.name, got, [3]int{vars, rows, terms})
		}
	}
}

// TestUnnamedLPWritesAndParses writes a built relaxation, whose
// variables and rows carry no names, in the LP text format: the file
// names them x<id> and r<id>, and parsing it back gives a model with
// the same optimum.
func TestUnnamedLPWritesAndParses(t *testing.T) {
	l := pinLP(t, pinCase{name: "single/fb4/seed3", mode: coflow.SinglePath, coflows: 4, seed: 3, maxSlots: 16})
	var buf bytes.Buffer
	if err := lp.WriteLP(&buf, l.Model); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	last := lp.ConstrID(l.Model.NumConstrs() - 1)
	if name := l.Model.ConstrName(last); !strings.Contains(text, "\n"+name+":") {
		t.Fatalf("written model has no row %s", name)
	}
	parsed, err := lp.ParseLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumConstrs() != l.Model.NumConstrs() || parsed.ConstrName(last) != l.Model.ConstrName(last) {
		t.Fatalf("parsed %d rows (last %q), built %d (last %q)", parsed.NumConstrs(), parsed.ConstrName(last),
			l.Model.NumConstrs(), l.Model.ConstrName(last))
	}
	want, err := l.Model.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := parsed.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != simplex.Optimal || want.Status != simplex.Optimal ||
		math.Abs(got.Obj-want.Obj) > 1e-9*math.Abs(want.Obj) {
		t.Fatalf("parsed model: %v %v, built model: %v %v", got.Status, got.Obj, want.Status, want.Obj)
	}
}
