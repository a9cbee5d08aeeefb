package model

import (
	"math"
	"slices"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/timegrid"
)

// BuildMultiPath constructs the LP for the intermediate transmission
// model sketched in Section 2 of the paper: each flow carries a fixed
// candidate path set and the scheduler chooses, per time slot, what
// fraction to send down each path. The completion-time structure
// ((1)–(5)) is shared with the other models; routing is expressed with
// per-path variables
//
//	x_{f,p}(t) ≥ 0,   Σ_p x_{f,p}(t) = x_f(t),
//	Σ_{(f,p): e ∈ p} σ_f · x_{f,p}(t) ≤ c(e)·len(t)   ∀e, t.
//
// Single path is the special case of one candidate path; free path is
// the limit of all paths (BuildFreePath). Solutions route each slot's
// fraction over the candidate paths in Solution.Route.
func BuildMultiPath(inst *coflow.Instance, grid timegrid.Grid) (*LP, error) {
	return buildRouted(inst, grid, coflow.MultiPath)
}

// BuildFreePath constructs the Section 3.1.2 relaxation, constraints
// (1)–(5) and (7)–(10) with interval-scaled capacities for non-uniform
// grids (20)–(23), in path form (see the package doc): the restricted
// master, the multi path LP over per-flow path pools seeded with each
// flow's hop-shortest path, which SolveWarm grows by column generation
// until its optimum is the free path optimum.
func BuildFreePath(inst *coflow.Instance, grid timegrid.Grid) (*LP, error) {
	return buildRouted(inst, grid, coflow.FreePath)
}

// buildRouted builds the path LP of a routed model over the paths
// buildCommon pools per flow: one link row per (flow, slot) tying the
// path rates to x_f(t), then one column per pooled path.
func buildRouted(inst *coflow.Instance, grid timegrid.Grid, mode coflow.Model) (*LP, error) {
	l, err := buildCommon(inst, grid, mode)
	if err != nil {
		return nil, err
	}
	k := grid.NumSlots()
	l.xr = make([][][]lp.VarID, len(l.flows))
	l.link = idTable[lp.ConstrID](len(l.flows), k)
	l.capRow = idTable[lp.ConstrID](inst.Graph.NumEdges(), k)
	for f := range l.flows {
		l.xr[f] = make([][]lp.VarID, k)
		for t := l.first[f]; t < k; t++ {
			l.link[f][t] = l.Model.AddConstr("", lp.EQ, 0)
			l.Model.AddTerm(l.link[f][t], l.x[f][t], -1)
			for _, path := range l.paths[f] {
				l.addPath(f, t, path)
			}
		}
	}
	return l, nil
}

// addPath adds the column of flow f's next pooled path in slot t: rate
// x_{f,p}(t) on the link row and σ_f on the capacity row of every edge
// of path p.
func (l *LP) addPath(f, t int, path []graph.EdgeID) {
	m := l.Model
	v := m.AddVar("", 0, 1, 0)
	m.AddTerm(l.link[f][t], v, 1)
	d := l.Inst.FlowAt(l.flows[f]).Demand
	for _, e := range path {
		m.AddTerm(l.capacityRow(e, t), v, d)
	}
	l.xr[f][t] = append(l.xr[f][t], v)
}

// priceTol is the margin by which a path's reduced cost must fall
// below zero before column generation adds it.
const priceTol = 1e-9

// price adds to the restricted master every path that prices out under
// raw's duals (the optimum's, or phase 1's on an infeasible master) and
// reports whether it added any. Flow f's path P in slot t has reduced
// cost σ_f·Σ_{e∈P} w(e,t) − π(f,t), where w(e,t) = max(0, −dual of the
// capacity row (e,t)), 0 where that row did not exist in the solve,
// and π(f,t) is the dual of f's link row. One cheapest-path search per
// (source, slot) prices every flow from that source. A path that
// prices out and is new to f's pool joins it, as a column in every
// slot f can use: pooling a path across slots takes fewer rounds than
// adding it where it priced out.
func (l *LP) price(raw *lp.Solution) bool {
	g, k := l.Inst.Graph, l.Grid.NumSlots()
	w := make([]float64, g.NumEdges())
	solved := lp.ConstrID(l.Model.NumConstrs()) // rows added below have no dual
	added := false
	for t := 0; t < k; t++ {
		for e := range w {
			w[e] = 0
			if row := l.capRow[e][t]; row >= 0 && row < solved {
				w[e] = max(0, -raw.Dual(row))
			}
		}
		dist, pred := make([][]float64, g.NumNodes()), make([][]graph.EdgeID, g.NumNodes())
		for f, ref := range l.flows {
			if t < l.first[f] {
				continue
			}
			fl := l.Inst.FlowAt(ref)
			s := fl.Source
			if dist[s] == nil {
				dist[s], pred[s] = cheapest(g, s, w)
			}
			if fl.Demand*dist[s][fl.Sink] >= raw.Dual(l.link[f][t])-priceTol {
				continue
			}
			var path []graph.EdgeID
			for v := fl.Sink; v != s; v = g.Edge(path[len(path)-1]).From {
				path = append(path, pred[s][v])
			}
			slices.Reverse(path)
			if slices.ContainsFunc(l.paths[f], func(p []graph.EdgeID) bool { return slices.Equal(p, path) }) {
				continue
			}
			l.paths[f] = append(l.paths[f], path)
			for u := l.first[f]; u < k; u++ {
				l.addPath(f, u, path)
			}
			added = true
		}
	}
	return added
}

// cheapest runs Dijkstra from s under the non-negative edge weights w
// in O(V²). It returns each node's cost (+Inf when unreachable) and the
// last edge of a cheapest path to it, of those the one with the fewest
// hops.
func cheapest(g *graph.Graph, s graph.NodeID, w []float64) ([]float64, []graph.EdgeID) {
	n := g.NumNodes()
	dist, hops, pred, done := make([]float64, n), make([]int, n), make([]graph.EdgeID, n), make([]bool, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[s] = 0
	for {
		u := graph.NodeID(-1)
		for v := range graph.NodeID(n) {
			if !done[v] && (u < 0 || dist[v] < dist[u] || dist[v] == dist[u] && hops[v] < hops[u]) {
				u = v
			}
		}
		if u < 0 || math.IsInf(dist[u], 1) {
			return dist, pred
		}
		done[u] = true
		for _, e := range g.OutEdges(u) {
			if v, d := g.Edge(e).To, dist[u]+w[e]; d < dist[v] || d == dist[v] && hops[u]+1 < hops[v] {
				dist[v], hops[v], pred[v] = d, hops[u]+1, e
			}
		}
	}
}
