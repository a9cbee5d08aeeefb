// Package graph provides the directed capacitated network model that
// coflow scheduling operates on: nodes are datacenters or exchange
// points, directed edges are links with bandwidth capacities. It
// includes the two WAN topologies used in the paper's evaluation
// (Microsoft SWAN and Google G-Scale/B4), synthetic topologies for
// tests, shortest-path machinery, and the random-shortest-path sampler
// the paper uses to assign paths in the single path model.
package graph

import (
	"fmt"
	"math/rand"
)

// NodeID identifies a node within a Graph.
type NodeID int

// EdgeID identifies a directed edge within a Graph.
type EdgeID int

// Edge is a directed capacitated link.
type Edge struct {
	ID       EdgeID
	From, To NodeID
	Capacity float64
}

// Graph is a directed multigraph with named nodes and capacitated
// edges. Construct with New, then AddNode/AddEdge.
type Graph struct {
	names   []string
	byName  map[string]NodeID
	edges   []Edge
	out, in [][]EdgeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// AddNode adds a node with the given name and returns its id. Adding a
// duplicate name panics: topology construction bugs should fail fast.
func (g *Graph) AddNode(name string) NodeID {
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("graph: duplicate node %q", name))
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.byName[name] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// Node looks a node up by name.
func (g *Graph) Node(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// MustNode looks a node up by name and panics if absent.
func (g *Graph) MustNode(name string) NodeID {
	id, ok := g.byName[name]
	if !ok {
		panic(fmt.Sprintf("graph: unknown node %q", name))
	}
	return id
}

// NodeName returns the name of node v.
func (g *Graph) NodeName(v NodeID) string { return g.names[v] }

// AddEdge adds a directed edge with the given capacity.
func (g *Graph) AddEdge(from, to NodeID, capacity float64) EdgeID {
	if capacity <= 0 {
		panic(fmt.Sprintf("graph: edge %s->%s with capacity %g", g.names[from], g.names[to], capacity))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Capacity: capacity})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddLink adds a bidirectional link as two directed edges, each with
// the full capacity (the standard WAN modeling convention: links are
// full duplex). It returns both edge ids.
func (g *Graph) AddLink(a, b NodeID, capacity float64) (EdgeID, EdgeID) {
	return g.AddEdge(a, b, capacity), g.AddEdge(b, a, capacity)
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given id.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Edges returns all edges. The slice is shared; do not modify.
func (g *Graph) Edges() []Edge { return g.edges }

// OutEdges returns the ids of edges leaving v. Shared; do not modify.
func (g *Graph) OutEdges(v NodeID) []EdgeID { return g.out[v] }

// InEdges returns the ids of edges entering v. Shared; do not modify.
func (g *Graph) InEdges(v NodeID) []EdgeID { return g.in[v] }

// MinCapacity returns the smallest edge capacity in the graph, or 0
// for an edgeless graph.
func (g *Graph) MinCapacity() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	m := g.edges[0].Capacity
	for _, e := range g.edges[1:] {
		if e.Capacity < m {
			m = e.Capacity
		}
	}
	return m
}

// PathCapacity returns the bottleneck capacity along a path of edge
// ids, or 0 for an empty path.
func (g *Graph) PathCapacity(path []EdgeID) float64 {
	if len(path) == 0 {
		return 0
	}
	m := g.edges[path[0]].Capacity
	for _, e := range path[1:] {
		if c := g.edges[e].Capacity; c < m {
			m = c
		}
	}
	return m
}

// ValidatePath checks that path is a contiguous directed walk from s
// to t.
func (g *Graph) ValidatePath(s, t NodeID, path []EdgeID) error {
	if len(path) == 0 {
		if s == t {
			return nil
		}
		return fmt.Errorf("graph: empty path from %s to %s", g.names[s], g.names[t])
	}
	cur := s
	for k, eid := range path {
		if eid < 0 || int(eid) >= len(g.edges) {
			return fmt.Errorf("graph: path hop %d names no edge (id %d)", k, eid)
		}
		e := g.edges[eid]
		if e.From != cur {
			return fmt.Errorf("graph: path hop %d starts at %s, expected %s", k, g.names[e.From], g.names[cur])
		}
		cur = e.To
	}
	if cur != t {
		return fmt.Errorf("graph: path ends at %s, expected %s", g.names[cur], g.names[t])
	}
	return nil
}

// bfs fills dist with hop distances from s (-1 when unreachable) and
// returns the reached nodes in visit order, which never decreases in
// distance. order's backing array is reused as the queue.
func (g *Graph) bfs(s NodeID, dist []int, order []NodeID) []NodeID {
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	order = append(order[:0], s)
	for k := 0; k < len(order); k++ {
		v := order[k]
		for _, eid := range g.out[v] {
			w := g.edges[eid].To
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				order = append(order, w)
			}
		}
	}
	return order
}

// bfsDist computes hop distances from s (-1 when unreachable).
func (g *Graph) bfsDist(s NodeID) []int {
	dist := make([]int, g.NumNodes())
	g.bfs(s, dist, nil)
	return dist
}

// HopDistance returns the number of hops on a shortest s→t path, or
// -1 when t is unreachable from s.
func (g *Graph) HopDistance(s, t NodeID) int {
	return g.bfsDist(s)[t]
}

// ShortestPath returns one shortest (by hop count) s→t path as edge
// ids, or nil when unreachable. Deterministic: prefers lower edge ids.
func (g *Graph) ShortestPath(s, t NodeID) []EdgeID {
	dist := g.bfsDist(s)
	if dist[t] < 0 {
		return nil
	}
	// Walk backward preferring the smallest edge id at each step.
	path := make([]EdgeID, 0, dist[t])
	cur := t
	for cur != s {
		var chosen EdgeID = -1
		for _, eid := range g.in[cur] {
			e := g.edges[eid]
			if dist[e.From] == dist[cur]-1 {
				if chosen < 0 || eid < chosen {
					chosen = eid
				}
			}
		}
		path = append(path, chosen)
		cur = g.edges[chosen].From
	}
	reverse(path)
	return path
}

// PathSampler draws uniformly random shortest paths (by hop count),
// the convention the paper uses to assign paths in the single path
// model ("we randomly select one of the shortest paths"), from
// per-source tables: a source's hop distances and shortest-path counts are computed on its first draw
// and kept, so later draws from that source only walk back from the
// sink. The tables cost 16 bytes per node for each distinct source
// drawn from. A sampler is not safe for concurrent use.
type PathSampler struct {
	g *Graph
	// dist[s] and count[s] are source s's tables, nil until its first
	// draw: dist[s][v] is the hop distance s→v (-1 when unreachable)
	// and count[s][v] the number of shortest s→v paths (float64:
	// counts can be exponential in general graphs, only ratios
	// matter here).
	dist  [][]int
	count [][]float64
	order []NodeID // BFS scratch
}

// NewPathSampler returns a sampler over g. g must not change while
// the sampler is in use.
func NewPathSampler(g *Graph) *PathSampler {
	n := g.NumNodes()
	return &PathSampler{g: g, dist: make([][]int, n), count: make([][]float64, n)}
}

// tables returns source s's distance and path-count tables, building
// them on first use. The counts accumulate in BFS visit order, which
// never decreases in distance, so every predecessor's count is final
// before it is added.
func (ps *PathSampler) tables(s NodeID) ([]int, []float64) {
	if ps.dist[s] != nil {
		return ps.dist[s], ps.count[s]
	}
	g := ps.g
	dist := make([]int, g.NumNodes())
	count := make([]float64, g.NumNodes())
	ps.order = g.bfs(s, dist, ps.order)
	count[s] = 1
	for _, v := range ps.order[1:] {
		for _, eid := range g.in[v] {
			e := g.edges[eid]
			if dist[e.From] == dist[v]-1 {
				count[v] += count[e.From]
			}
		}
	}
	ps.dist[s], ps.count[s] = dist, count
	return dist, count
}

// Sample returns a uniformly random shortest s→t path, or nil when t
// is unreachable from s. It draws one rng.Float64 per hop, walking
// back from t and picking each predecessor in proportion to its
// shortest-path count; the returned path is its only allocation once
// s's tables exist.
func (ps *PathSampler) Sample(rng *rand.Rand, s, t NodeID) []EdgeID {
	g := ps.g
	dist, count := ps.tables(s)
	if dist[t] < 0 {
		return nil
	}
	path := make([]EdgeID, dist[t])
	cur := t
	for k := len(path) - 1; k >= 0; k-- {
		var total float64
		for _, eid := range g.in[cur] {
			e := g.edges[eid]
			if dist[e.From] == dist[cur]-1 {
				total += count[e.From]
			}
		}
		r := rng.Float64() * total
		var chosen EdgeID = -1
		for _, eid := range g.in[cur] {
			e := g.edges[eid]
			if dist[e.From] == dist[cur]-1 {
				r -= count[e.From]
				chosen = eid
				if r <= 0 {
					break
				}
			}
		}
		path[k] = chosen
		cur = g.edges[chosen].From
	}
	return path
}

func reverse(p []EdgeID) {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
}
