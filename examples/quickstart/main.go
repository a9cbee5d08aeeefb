// Quickstart: the paper's Figure 1 example. A 5-node WAN (HK, LA, NY,
// FL, BA) carries one coflow with two flows — NY→BA of demand 18 and
// HK→FL of demand 12. In the single path model (fixed routes) the
// coflow needs 3 time units; in the free path model (data may split
// over many routes) it finishes in 2.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"

	"repro/internal/graph"
)

func main() {
	g := graph.Figure1()
	ny, ba := g.MustNode("NY"), g.MustNode("BA")
	hk, fl, la := g.MustNode("HK"), g.MustNode("FL"), g.MustNode("LA")

	// The single-path routes from the paper: NY→BA direct (capacity 6)
	// and HK→LA→FL (bottleneck 4).
	edge := func(from, to repro.NodeID) repro.EdgeID {
		for _, eid := range g.OutEdges(from) {
			if g.Edge(eid).To == to {
				return eid
			}
		}
		log.Fatalf("no edge %s→%s", g.NodeName(from), g.NodeName(to))
		return 0
	}
	inst := &repro.Instance{Graph: g, Coflows: []repro.Coflow{{
		ID: 0, Weight: 1,
		Flows: []repro.Flow{
			{Source: ny, Sink: ba, Demand: 18, Path: []repro.EdgeID{edge(ny, ba)}},
			{Source: hk, Sink: fl, Demand: 12, Path: []repro.EdgeID{edge(hk, la), edge(la, fl)}},
		},
	}}}

	stretch := func(model string) *repro.Result {
		rep, err := repro.Run(context.Background(), repro.Spec{
			Instance: inst, Model: model, Scheduler: "stretch",
			Options: repro.SpecOptions{MaxSlots: 8, Trials: -1},
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep.Engine.Core
	}
	single, free := stretch("single"), stretch("free")

	fmt.Println("Figure 1 of the paper — one coflow, two flows (NY→BA: 18, HK→FL: 12)")
	fmt.Printf("single path completion: %.0f time units (paper: 3)\n",
		single.Heuristic.Completions[0])
	fmt.Printf("free path completion:   %.0f time units (paper: 2)\n",
		free.Heuristic.Completions[0])
	fmt.Printf("\nThe free path model wins by rerouting around the bottleneck:\n")
	fmt.Printf("LP lower bounds — single: %.2f, free: %.2f\n",
		single.LowerBound, free.LowerBound)
}
