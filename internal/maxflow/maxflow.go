// Package maxflow implements Dinic's maximum-flow algorithm with
// real-valued capacities on top of internal/graph. It is used for
// standalone flow completion-time bounds, for the Terra baseline's
// residual-capacity scheduling, and as an independent oracle in tests
// (max-flow = min-cut).
package maxflow

import (
	"math"

	"repro/internal/graph"
)

const eps = 1e-9

// Result holds a maximum flow.
type Result struct {
	Value float64
	// Flow[e] is the flow on graph edge e (same indexing as g.Edges()).
	Flow []float64
}

type arc struct {
	to    int
	cap   float64 // remaining capacity
	rev   int     // index of reverse arc in adj[to]
	edge  int     // originating graph edge id, or -1 for residual arcs
	isRev bool
}

type dinic struct {
	n     int
	adj   [][]arc
	level []int
	iter  []int
}

func newDinic(n int) *dinic {
	return &dinic{
		n:     n,
		adj:   make([][]arc, n),
		level: make([]int, n),
		iter:  make([]int, n),
	}
}

func (d *dinic) addEdge(from, to int, capacity float64, edgeID int) {
	d.adj[from] = append(d.adj[from], arc{to: to, cap: capacity, rev: len(d.adj[to]), edge: edgeID})
	d.adj[to] = append(d.adj[to], arc{to: from, cap: 0, rev: len(d.adj[from]) - 1, edge: edgeID, isRev: true})
}

func (d *dinic) bfs(s, t int) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	queue := make([]int, 0, d.n)
	d.level[s] = 0
	queue = append(queue, s)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for i := range d.adj[v] {
			a := &d.adj[v][i]
			if a.cap > eps && d.level[a.to] < 0 {
				d.level[a.to] = d.level[v] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return d.level[t] >= 0
}

func (d *dinic) dfs(v, t int, f float64) float64 {
	if v == t {
		return f
	}
	for ; d.iter[v] < len(d.adj[v]); d.iter[v]++ {
		a := &d.adj[v][d.iter[v]]
		if a.cap > eps && d.level[v] < d.level[a.to] {
			got := d.dfs(a.to, t, math.Min(f, a.cap))
			if got > eps {
				a.cap -= got
				d.adj[a.to][a.rev].cap += got
				return got
			}
		}
	}
	return 0
}

func (d *dinic) run(s, t int) float64 {
	var total float64
	for d.bfs(s, t) {
		for i := range d.iter {
			d.iter[i] = 0
		}
		for {
			f := d.dfs(s, t, math.Inf(1))
			if f <= eps {
				break
			}
			total += f
		}
	}
	return total
}

// Max computes a maximum s→t flow using the graph's edge capacities.
func Max(g *graph.Graph, s, t graph.NodeID) Result {
	caps := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		caps[e.ID] = e.Capacity
	}
	return MaxWithCapacities(g, s, t, caps)
}

// MaxWithCapacities computes a maximum s→t flow with the per-edge
// capacity overrides in caps (indexed by EdgeID). Edges with capacity
// ≤ 0 are treated as absent.
func MaxWithCapacities(g *graph.Graph, s, t graph.NodeID, caps []float64) Result {
	d := newDinic(g.NumNodes())
	for _, e := range g.Edges() {
		if caps[e.ID] > eps {
			d.addEdge(int(e.From), int(e.To), caps[e.ID], int(e.ID))
		}
	}
	value := d.run(int(s), int(t))
	flow := make([]float64, g.NumEdges())
	for v := range d.adj {
		for _, a := range d.adj[v] {
			if !a.isRev && a.edge >= 0 {
				flow[a.edge] += caps[a.edge] - a.cap
			}
		}
	}
	// Clamp tiny negatives from float arithmetic.
	for i, f := range flow {
		if f < 0 {
			flow[i] = 0
		}
	}
	return Result{Value: value, Flow: flow}
}

// MinCut returns the value of the minimum s→t cut, the cut edges, and
// the source-side membership mask. By max-flow/min-cut duality the
// value equals Max(g, s, t).Value.
func MinCut(g *graph.Graph, s, t graph.NodeID) (float64, []graph.EdgeID, []bool) {
	caps := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		caps[e.ID] = e.Capacity
	}
	d := newDinic(g.NumNodes())
	for _, e := range g.Edges() {
		if caps[e.ID] > eps {
			d.addEdge(int(e.From), int(e.To), caps[e.ID], int(e.ID))
		}
	}
	value := d.run(int(s), int(t))
	// Source side: reachable in the residual graph.
	side := make([]bool, g.NumNodes())
	queue := []int{int(s)}
	side[s] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range d.adj[v] {
			if a.cap > eps && !side[a.to] {
				side[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	var cut []graph.EdgeID
	for _, e := range g.Edges() {
		if side[e.From] && !side[e.To] {
			cut = append(cut, e.ID)
		}
	}
	return value, cut, side
}
