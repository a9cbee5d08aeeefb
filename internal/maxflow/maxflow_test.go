package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestMaxFlowLine(t *testing.T) {
	g := graph.Line(4, 5)
	r := Max(g, g.MustNode("v0"), g.MustNode("v3"))
	if math.Abs(r.Value-5) > 1e-9 {
		t.Fatalf("value = %v, want 5", r.Value)
	}
	for _, e := range g.Edges() {
		if math.Abs(r.Flow[e.ID]-5) > 1e-9 {
			t.Fatalf("edge %d flow = %v, want 5", e.ID, r.Flow[e.ID])
		}
	}
}

func TestMaxFlowParallelPaths(t *testing.T) {
	// Figure2: three disjoint 2-hop paths of capacity 1 → max flow 3.
	g := graph.Figure2()
	r := Max(g, g.MustNode("s"), g.MustNode("t"))
	if math.Abs(r.Value-3) > 1e-9 {
		t.Fatalf("value = %v, want 3", r.Value)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// Classic CLRS-style network with known max flow 23.
	g := graph.New()
	s := g.AddNode("s")
	v1 := g.AddNode("v1")
	v2 := g.AddNode("v2")
	v3 := g.AddNode("v3")
	v4 := g.AddNode("v4")
	tt := g.AddNode("t")
	g.AddEdge(s, v1, 16)
	g.AddEdge(s, v2, 13)
	g.AddEdge(v1, v3, 12)
	g.AddEdge(v2, v1, 4)
	g.AddEdge(v2, v4, 14)
	g.AddEdge(v3, v2, 9)
	g.AddEdge(v3, tt, 20)
	g.AddEdge(v4, v3, 7)
	g.AddEdge(v4, tt, 4)
	r := Max(g, s, tt)
	if math.Abs(r.Value-23) > 1e-9 {
		t.Fatalf("value = %v, want 23", r.Value)
	}
}

func TestMaxFlowUnreachable(t *testing.T) {
	g := graph.Gadget(2)
	x0, _ := graph.GadgetPair(g, 0)
	_, y1 := graph.GadgetPair(g, 1)
	r := Max(g, x0, y1)
	if r.Value != 0 {
		t.Fatalf("value = %v, want 0", r.Value)
	}
}

func TestFlowConservation(t *testing.T) {
	g := graph.GScale(3)
	s, d := g.MustNode("DC1"), g.MustNode("DC12")
	r := Max(g, s, d)
	// Conservation at every internal node; net outflow at s equals value.
	for v := graph.NodeID(0); v < graph.NodeID(g.NumNodes()); v++ {
		var net float64
		for _, eid := range g.OutEdges(v) {
			net += r.Flow[eid]
		}
		for _, eid := range g.InEdges(v) {
			net -= r.Flow[eid]
		}
		switch v {
		case s:
			if math.Abs(net-r.Value) > 1e-9 {
				t.Fatalf("source net %v, value %v", net, r.Value)
			}
		case d:
			if math.Abs(net+r.Value) > 1e-9 {
				t.Fatalf("sink net %v, value %v", net, r.Value)
			}
		default:
			if math.Abs(net) > 1e-9 {
				t.Fatalf("node %d violates conservation: %v", v, net)
			}
		}
	}
	// Capacity respected.
	for _, e := range g.Edges() {
		if r.Flow[e.ID] > e.Capacity+1e-9 {
			t.Fatalf("edge %d over capacity", e.ID)
		}
	}
}

func TestMaxFlowEqualsMinCutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(8)
		g := graph.New()
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			nodes[i] = g.AddNode(string(rune('a' + i)))
		}
		// Random edges.
		for k := 0; k < 3*n; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			g.AddEdge(nodes[u], nodes[v], 1+float64(r.Intn(9)))
		}
		s, d := nodes[0], nodes[n-1]
		mf := Max(g, s, d)
		cutVal, cutEdges, side := MinCut(g, s, d)
		if math.Abs(mf.Value-cutVal) > 1e-6 {
			return false
		}
		// The cut edges' capacities sum to the cut value.
		var sum float64
		for _, eid := range cutEdges {
			sum += g.Edge(eid).Capacity
		}
		if math.Abs(sum-cutVal) > 1e-6 {
			return false
		}
		return side[s] && (cutVal == 0 || !side[d])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWithCapacitiesOverride(t *testing.T) {
	g := graph.Line(3, 10)
	caps := []float64{10, 2}
	r := MaxWithCapacities(g, g.MustNode("v0"), g.MustNode("v2"), caps)
	if math.Abs(r.Value-2) > 1e-9 {
		t.Fatalf("value = %v, want 2", r.Value)
	}
	// Zero capacity removes the edge.
	caps = []float64{10, 0}
	r = MaxWithCapacities(g, g.MustNode("v0"), g.MustNode("v2"), caps)
	if r.Value != 0 {
		t.Fatalf("value = %v, want 0", r.Value)
	}
}

func BenchmarkMaxFlowGScale(b *testing.B) {
	g := graph.GScale(10)
	s, d := g.MustNode("DC1"), g.MustNode("DC12")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Max(g, s, d)
	}
}
