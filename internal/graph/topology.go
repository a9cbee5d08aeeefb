package graph

import "fmt"

// This file encodes the topologies used in the paper's evaluation
// (Section 6) plus the illustrative networks from Sections 1–2 and the
// hardness gadget from Section 5.
//
// SWAN and G-Scale adjacency is encoded from the published figures of
// Hong et al. (SIGCOMM '13) and Jain et al. (SIGCOMM '13). Exact
// adjacency of the commercial WANs is approximated from those figures
// — the paper itself works from the same public descriptions. Links
// are full duplex: one physical link becomes two directed edges, each
// carrying the full link bandwidth.

// SWAN returns Microsoft's inter-datacenter WAN: 5 datacenters and 7
// inter-datacenter links. unit is the bandwidth of one link-capacity
// unit (use 1 for abstract units).
func SWAN(unit float64) *Graph {
	g := New()
	dc := make([]NodeID, 5)
	for i := range dc {
		dc[i] = g.AddNode(fmt.Sprintf("DC%d", i+1))
	}
	links := [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4},
	}
	for _, l := range links {
		g.AddLink(dc[l[0]], dc[l[1]], unit)
	}
	return g
}

// GScale returns Google's inter-datacenter WAN (B4): 12 datacenters
// and 19 inter-datacenter links. unit is the bandwidth of one
// link-capacity unit.
func GScale(unit float64) *Graph {
	g := New()
	dc := make([]NodeID, 12)
	for i := range dc {
		dc[i] = g.AddNode(fmt.Sprintf("DC%d", i+1))
	}
	links := [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {1, 4},
		{2, 3}, {3, 4}, {3, 5}, {4, 6},
		{5, 6}, {5, 7}, {6, 8}, {7, 8},
		{7, 9}, {8, 10}, {9, 10}, {9, 11},
		{10, 11}, {2, 5}, {6, 9},
	}
	for _, l := range links {
		g.AddLink(dc[l[0]], dc[l[1]], unit)
	}
	return g
}

// Figure1 returns the 5-node WAN from Figure 1 of the paper (nodes HK,
// LA, NY, FL, BA with seven links whose capacities are
// {2,4,4,4,4,5,6}), arranged so that the paper's two flows — NY→BA of
// demand 18 and HK→FL of demand 12 — finish in 3 time units in the
// single path model (paths NY→BA and HK→LA→FL) and in 2 time units in
// the free path model.
func Figure1() *Graph {
	g := New()
	hk := g.AddNode("HK")
	la := g.AddNode("LA")
	ny := g.AddNode("NY")
	fl := g.AddNode("FL")
	ba := g.AddNode("BA")
	g.AddLink(hk, la, 4)
	g.AddLink(hk, ny, 2)
	g.AddLink(ny, la, 4)
	g.AddLink(ny, fl, 5)
	g.AddLink(ny, ba, 6)
	g.AddLink(la, fl, 4)
	g.AddLink(fl, ba, 4)
	return g
}

// Figure2 returns the example network of Figure 2: nodes s, v1, v2,
// v3, t with bidirected unit-capacity edges s—v_i and v_i—t for each i.
func Figure2() *Graph {
	g := New()
	s := g.AddNode("s")
	v1 := g.AddNode("v1")
	v2 := g.AddNode("v2")
	v3 := g.AddNode("v3")
	t := g.AddNode("t")
	for _, v := range []NodeID{v1, v2, v3} {
		g.AddLink(s, v, 1)
		g.AddLink(v, t, 1)
	}
	return g
}

// Gadget returns the Section 5 hardness-reduction graph for m
// machines: for every machine i an isolated pair x_i → y_i joined by a
// single directed edge of unit bandwidth.
func Gadget(m int) *Graph {
	g := New()
	for i := 0; i < m; i++ {
		x := g.AddNode(fmt.Sprintf("x%d", i))
		y := g.AddNode(fmt.Sprintf("y%d", i))
		g.AddEdge(x, y, 1)
	}
	return g
}

// GadgetPair returns the node ids (x_i, y_i) of machine i in a Gadget
// graph.
func GadgetPair(g *Graph, i int) (NodeID, NodeID) {
	return g.MustNode(fmt.Sprintf("x%d", i)), g.MustNode(fmt.Sprintf("y%d", i))
}

// Line returns a directed path v0 → v1 → … → v_{n-1} with the given
// uniform capacity.
func Line(n int, capacity float64) *Graph {
	g := New()
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprintf("v%d", i))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(nodes[i], nodes[i+1], capacity)
	}
	return g
}
