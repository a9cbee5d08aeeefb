package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodeDuplicatePanics(t *testing.T) {
	g := New()
	g.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	g.AddNode("a")
}

func TestAddEdgeBadCapacityPanics(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero capacity")
		}
	}()
	g.AddEdge(a, b, 0)
}

func TestNodeLookup(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	if id, ok := g.Node("a"); !ok || id != a {
		t.Fatal("Node lookup failed")
	}
	if _, ok := g.Node("zz"); ok {
		t.Fatal("Node lookup found ghost")
	}
	if g.MustNode("a") != a {
		t.Fatal("MustNode failed")
	}
	if g.NodeName(a) != "a" {
		t.Fatal("NodeName failed")
	}
}

func TestMustNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().MustNode("ghost")
}

func TestLinkCreatesTwoEdges(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	e1, e2 := g.AddLink(a, b, 3)
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if g.Edge(e1).From != a || g.Edge(e1).To != b || g.Edge(e1).Capacity != 3 {
		t.Fatal("forward edge wrong")
	}
	if g.Edge(e2).From != b || g.Edge(e2).To != a {
		t.Fatal("reverse edge wrong")
	}
	if len(g.OutEdges(a)) != 1 || len(g.InEdges(a)) != 1 {
		t.Fatal("adjacency lists wrong")
	}
}

func TestShortestPathLine(t *testing.T) {
	g := Line(5, 1)
	s, tt := g.MustNode("v0"), g.MustNode("v4")
	p := g.ShortestPath(s, tt)
	if len(p) != 4 {
		t.Fatalf("path length %d, want 4", len(p))
	}
	if err := g.ValidatePath(s, tt, p); err != nil {
		t.Fatal(err)
	}
	if g.HopDistance(s, tt) != 4 {
		t.Fatal("hop distance wrong")
	}
	// Line is directed: no reverse path.
	if g.ShortestPath(tt, s) != nil {
		t.Fatal("reverse path should not exist")
	}
	if g.HopDistance(tt, s) != -1 {
		t.Fatal("reverse distance should be -1")
	}
}

func TestValidatePathErrors(t *testing.T) {
	g := Line(4, 1)
	v0, v3 := g.MustNode("v0"), g.MustNode("v3")
	p := g.ShortestPath(v0, v3)
	if err := g.ValidatePath(v0, v3, p); err != nil {
		t.Fatal(err)
	}
	if err := g.ValidatePath(v0, v3, p[:2]); err == nil {
		t.Fatal("truncated path should fail")
	}
	if err := g.ValidatePath(v0, v3, p[1:]); err == nil {
		t.Fatal("offset path should fail")
	}
	if err := g.ValidatePath(v0, v3, nil); err == nil {
		t.Fatal("empty path s≠t should fail")
	}
	if err := g.ValidatePath(v0, v0, nil); err != nil {
		t.Fatal("empty path s=t should be fine")
	}
}

func TestPathCapacity(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	e1 := g.AddEdge(a, b, 5)
	e2 := g.AddEdge(b, c, 3)
	if got := g.PathCapacity([]EdgeID{e1, e2}); got != 3 {
		t.Fatalf("PathCapacity = %v, want 3", got)
	}
	if got := g.PathCapacity(nil); got != 0 {
		t.Fatalf("PathCapacity(nil) = %v, want 0", got)
	}
}

func TestMinCapacity(t *testing.T) {
	g := Figure1()
	if got := g.MinCapacity(); got != 2 {
		t.Fatalf("MinCapacity = %v, want 2", got)
	}
	if got := New().MinCapacity(); got != 0 {
		t.Fatalf("empty MinCapacity = %v, want 0", got)
	}
}

func TestSWANShape(t *testing.T) {
	g := SWAN(10)
	if g.NumNodes() != 5 {
		t.Fatalf("SWAN nodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 14 { // 7 links × 2 directions
		t.Fatalf("SWAN edges = %d, want 14", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.Capacity != 10 {
			t.Fatalf("capacity %v, want 10", e.Capacity)
		}
	}
	// Connectivity: every pair reachable.
	for s := NodeID(0); s < 5; s++ {
		for d := NodeID(0); d < 5; d++ {
			if s != d && g.HopDistance(s, d) < 0 {
				t.Fatalf("SWAN not connected: %d→%d", s, d)
			}
		}
	}
}

func TestGScaleShape(t *testing.T) {
	g := GScale(1)
	if g.NumNodes() != 12 {
		t.Fatalf("G-Scale nodes = %d, want 12", g.NumNodes())
	}
	if g.NumEdges() != 38 { // 19 links × 2 directions
		t.Fatalf("G-Scale edges = %d, want 38", g.NumEdges())
	}
	for s := NodeID(0); s < 12; s++ {
		for d := NodeID(0); d < 12; d++ {
			if s != d && g.HopDistance(s, d) < 0 {
				t.Fatalf("G-Scale not connected: %d→%d", s, d)
			}
		}
	}
}

func TestFigure1Properties(t *testing.T) {
	g := Figure1()
	if g.NumNodes() != 5 || g.NumEdges() != 14 {
		t.Fatalf("Figure1 shape wrong: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	// Capacity multiset {2,4,4,4,4,5,6} per direction.
	caps := map[float64]int{}
	for _, e := range g.Edges() {
		caps[e.Capacity]++
	}
	want := map[float64]int{2: 2, 4: 8, 5: 2, 6: 2}
	for c, n := range want {
		if caps[c] != n {
			t.Fatalf("capacity %v count = %d, want %d (have %v)", c, caps[c], n, caps)
		}
	}
	// The motivating single-path routes: NY→BA direct has capacity 6,
	// HK→LA→FL has bottleneck 4.
	ny, ba := g.MustNode("NY"), g.MustNode("BA")
	if d := g.HopDistance(ny, ba); d != 1 {
		t.Fatalf("NY→BA hops = %d, want 1", d)
	}
	direct := g.ShortestPath(ny, ba)
	if g.PathCapacity(direct) != 6 {
		t.Fatalf("NY→BA capacity = %v, want 6", g.PathCapacity(direct))
	}
}

func TestGadget(t *testing.T) {
	g := Gadget(4)
	if g.NumNodes() != 8 || g.NumEdges() != 4 {
		t.Fatalf("gadget shape: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < 4; i++ {
		x, y := GadgetPair(g, i)
		if g.HopDistance(x, y) != 1 {
			t.Fatalf("pair %d not adjacent", i)
		}
		// Pairs are isolated from each other.
		for j := 0; j < 4; j++ {
			if j == i {
				continue
			}
			xj, _ := GadgetPair(g, j)
			if g.HopDistance(x, xj) >= 0 {
				t.Fatalf("pairs %d and %d connected", i, j)
			}
		}
	}
}

func TestRandomShortestPathIsShortestAndValid(t *testing.T) {
	g := GScale(1)
	rng := rand.New(rand.NewSource(5))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NodeID(r.Intn(g.NumNodes()))
		d := NodeID(r.Intn(g.NumNodes()))
		if s == d {
			return true
		}
		p := NewPathSampler(g).Sample(r, s, d)
		if p == nil {
			return false
		}
		if err := g.ValidatePath(s, d, p); err != nil {
			return false
		}
		return len(p) == g.HopDistance(s, d)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomShortestPathUniform(t *testing.T) {
	// Figure2 has exactly 3 shortest s→t paths (via v1, v2, v3); the
	// sampler should hit each roughly 1/3 of the time.
	g := Figure2()
	s, d := g.MustNode("s"), g.MustNode("t")
	rng := rand.New(rand.NewSource(9))
	ps := NewPathSampler(g)
	counts := map[NodeID]int{}
	const trials = 3000
	for i := 0; i < trials; i++ {
		p := ps.Sample(rng, s, d)
		mid := g.Edge(p[0]).To
		counts[mid]++
	}
	for v, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-1.0/3) > 0.05 {
			t.Fatalf("path via %s frequency %.3f, want ≈1/3", g.NodeName(v), frac)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("sampler visited %d middles, want 3", len(counts))
	}
}

func TestRandomShortestPathUnreachable(t *testing.T) {
	g := Gadget(2)
	x0, _ := GadgetPair(g, 0)
	x1, _ := GadgetPair(g, 1)
	if p := NewPathSampler(g).Sample(rand.New(rand.NewSource(1)), x0, x1); p != nil {
		t.Fatal("expected nil path for unreachable pair")
	}
}

// RandomShortestPathReference is the shortest-path sampler as it was
// before PathSampler: per call one BFS, one shortest-path count table built
// in a distance-sorted node order, a backward walk and a reverse. It
// is the oracle TestPathSamplerMatchesReference holds the sampler to,
// exported to that test because it lives in package graph_test (it
// imports internal/topo, which imports this package).
func RandomShortestPathReference(g *Graph, rng *rand.Rand, s, t NodeID) []EdgeID {
	dist := g.bfsDist(s)
	if dist[t] < 0 {
		return nil
	}
	order := make([]NodeID, 0, g.NumNodes())
	for v := NodeID(0); v < NodeID(g.NumNodes()); v++ {
		if dist[v] >= 0 {
			order = append(order, v)
		}
	}
	// Insertion sort by distance, stable in node id.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && dist[order[j-1]] > dist[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	count := make([]float64, g.NumNodes())
	count[s] = 1
	for _, v := range order {
		if v == s {
			continue
		}
		for _, eid := range g.in[v] {
			e := g.edges[eid]
			if dist[e.From] == dist[v]-1 {
				count[v] += count[e.From]
			}
		}
	}
	path := make([]EdgeID, 0, dist[t])
	cur := t
	for cur != s {
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
		path = append(path, chosen)
		cur = g.edges[chosen].From
	}
	reverse(path)
	return path
}
