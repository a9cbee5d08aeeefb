package baselines

// Pins SincroniaOrder — sparse CSR/CSC demand, incremental per-edge
// totals, reusable scratch — to the original implementation, which
// re-summed every unscheduled coflow's demand on every edge at every
// iteration over a dense coflows × edges matrix. The re-summing variant
// is kept here verbatim as the executable spec; the property test runs
// both over seeded random instances on three networks and demands the
// identical permutation, also when one scratch orders instances of
// changing size in turn. (Float addition is order-sensitive, so the
// incremental totals could in principle flip a bottleneck choice on a
// sub-1e-12 near-tie between two edges; this sweep is the evidence no
// realistic instance gets close.)

import (
	"math"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/workload"
)

// edgeDemand returns d[j][e] = total demand coflow j places on edge e
// along its flows' fixed paths.
func edgeDemand(inst *coflow.Instance) [][]float64 {
	ne := inst.Graph.NumEdges()
	d := make([][]float64, len(inst.Coflows))
	for j := range inst.Coflows {
		d[j] = make([]float64, ne)
		for _, fl := range inst.Coflows[j].Flows {
			for _, eid := range fl.Path {
				d[j][eid] += fl.Demand
			}
		}
	}
	return d
}

// sincroniaOrderRescan is the pre-optimization SincroniaOrder.
func sincroniaOrderRescan(inst *coflow.Instance) []int {
	nc := len(inst.Coflows)
	d := edgeDemand(inst)
	ne := inst.Graph.NumEdges()

	scaled := make([]float64, nc)
	unsched := make([]bool, nc)
	for j := range inst.Coflows {
		scaled[j] = inst.Coflows[j].Weight
		unsched[j] = true
	}
	order := make([]int, nc)
	for k := nc - 1; k >= 0; k-- {
		bottleneck, load := graph.EdgeID(0), -1.0
		for e := 0; e < ne; e++ {
			var tot float64
			for j := 0; j < nc; j++ {
				if unsched[j] {
					tot += d[j][e]
				}
			}
			if tot > load+1e-12 {
				bottleneck, load = graph.EdgeID(e), tot
			}
		}
		best, bestKey := -1, math.Inf(-1)
		for j := 0; j < nc; j++ {
			if !unsched[j] || d[j][bottleneck] <= 0 {
				continue
			}
			key := math.Inf(1)
			if scaled[j] > 1e-12 {
				key = d[j][bottleneck] / scaled[j]
			}
			if key > bestKey {
				best, bestKey = j, key
			}
		}
		if best < 0 {
			for j := 0; j < nc; j++ {
				if unsched[j] {
					best = j
					break
				}
			}
		}
		order[k] = best
		unsched[best] = false
		if db := d[best][bottleneck]; db > 1e-12 {
			for j := 0; j < nc; j++ {
				if unsched[j] {
					scaled[j] -= scaled[best] * d[j][bottleneck] / db
				}
			}
		}
	}
	return order
}

func TestSincroniaOrderIncrementalMatchesRescan(t *testing.T) {
	leafSpine, err := topo.New("leaf-spine:leaves=8,spines=4,hosts=4")
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name      string
		g         *graph.Graph
		endpoints []graph.NodeID
	}{
		{"swan", graph.SWAN(1), nil},
		{"gscale", graph.GScale(1), nil},
		{"leaf-spine", leafSpine.Graph, leafSpine.Endpoints},
	}
	gen := func(t *testing.T, g *graph.Graph, endpoints []graph.NodeID, n int, seed int64) *coflow.Instance {
		t.Helper()
		in, err := workload.Generate(workload.Config{
			Kind: workload.FB, Graph: g, NumCoflows: n, Seed: seed,
			MeanInterarrival: 1, AssignPaths: true, Endpoints: endpoints,
		})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	check := func(t *testing.T, what string, got []int, in *coflow.Instance) {
		t.Helper()
		want := sincroniaOrderRescan(in)
		if len(got) != len(want) {
			t.Fatalf("%s: order has %d entries, rescan %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order diverges at position %d:\n got %v\nwant %v", what, i, got, want)
			}
		}
	}
	for _, tg := range graphs {
		for seed := int64(0); seed < 6; seed++ {
			in := gen(t, tg.g, tg.endpoints, 40, seed)
			check(t, tg.name+" fresh", SincroniaOrder(in), in)
		}
	}

	// One scratch orders instances in turn: large, small, large, across
	// networks with different edge counts, so every buffer is both
	// reused with stale contents and grown.
	var s SincroniaScratch
	for _, tg := range graphs {
		for _, n := range []int{120, 7, 90} {
			in := gen(t, tg.g, tg.endpoints, n, int64(n))
			check(t, tg.name+" reused", s.Order(in), in)
		}
	}
	// A zero-demand flow enters the totals and no toucher list; the
	// order must still match the rescan, including after reuse.
	in := gen(t, graph.SWAN(1), nil, 30, 5)
	in.Coflows[3].Flows[0].Demand = 0
	check(t, "zero-demand", s.Order(in), in)
}
