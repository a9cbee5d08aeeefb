package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// TestPathSamplerMatchesReference draws every (source, sink) pair of
// every topology family's default graph, at three seeds, and of a
// disconnected gadget graph, from one PathSampler and from the
// per-call reference with an identically seeded rng: the paths,
// unreachable nils included, must be equal, and so must the rng
// streams they leave behind.
func TestPathSamplerMatchesReference(t *testing.T) {
	type network struct {
		name string
		g    *graph.Graph
		seed int64
	}
	var nets []network
	for _, fam := range topo.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			spec := fmt.Sprintf("%s:seed=%d", fam, seed)
			top, err := topo.New(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			nets = append(nets, network{spec, top.Graph, seed})
		}
	}
	nets = append(nets, network{"gadget-3", graph.Gadget(3), 4})
	nils := 0
	for _, n := range nets {
		g := n.g
		ps := graph.NewPathSampler(g)
		got, want := rand.New(rand.NewSource(n.seed)), rand.New(rand.NewSource(n.seed))
		for s := graph.NodeID(0); s < graph.NodeID(g.NumNodes()); s++ {
			for d := graph.NodeID(0); d < graph.NodeID(g.NumNodes()); d++ {
				p, ref := ps.Sample(got, s, d), graph.RandomShortestPathReference(g, want, s, d)
				if !reflect.DeepEqual(p, ref) {
					t.Fatalf("%s %d→%d: sampler %v, reference %v", n.name, s, d, p, ref)
				}
				if ref == nil {
					nils++
				}
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("%s: rng streams diverged after the draws", n.name)
		}
	}
	if nils == 0 {
		t.Fatal("no unreachable pair was drawn")
	}
}

// TestPathSamplerRepeatDrawAllocs pins the sampler's cost once a
// source's tables exist: the returned path is the only allocation.
func TestPathSamplerRepeatDrawAllocs(t *testing.T) {
	top, err := topo.New("leaf-spine:leaves=8,spines=4,hosts=4")
	if err != nil {
		t.Fatal(err)
	}
	ps := graph.NewPathSampler(top.Graph)
	rng := rand.New(rand.NewSource(1))
	s, d := top.Endpoints[0], top.Endpoints[len(top.Endpoints)-1]
	if ps.Sample(rng, s, d) == nil {
		t.Fatal("no path between the first and last host")
	}
	if n := testing.AllocsPerRun(100, func() { ps.Sample(rng, s, d) }); n != 1 {
		t.Fatalf("a repeat draw allocates %v times, want 1", n)
	}
}
