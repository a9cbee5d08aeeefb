// Figure 2 example: the paper's running example from Section 2. Four
// unit-weight coflows on the s/v1/v2/v3/t network: three unit demands
// v_i→t and one demand of 3 from s→t. With the Figure 3 path
// assignment the single path optimum is 7; the free path optimum
// (Figure 4) is 5. This program reproduces both with the LP-based
// pipeline and prints the schedules.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"

	"repro/internal/graph"
)

func main() {
	g := graph.Figure2()
	s, t := g.MustNode("s"), g.MustNode("t")
	edge := func(from, to repro.NodeID) repro.EdgeID {
		for _, eid := range g.OutEdges(from) {
			if g.Edge(eid).To == to {
				return eid
			}
		}
		log.Fatalf("no edge")
		return 0
	}
	v := []repro.NodeID{g.MustNode("v1"), g.MustNode("v2"), g.MustNode("v3")}

	inst := &repro.Instance{Graph: g}
	names := []string{"red (v1→t)", "green (v2→t)", "orange (v3→t)"}
	for i := 0; i < 3; i++ {
		inst.Coflows = append(inst.Coflows, repro.Coflow{
			ID: i, Weight: 1,
			Flows: []repro.Flow{{Source: v[i], Sink: t, Demand: 1,
				Path: []repro.EdgeID{edge(v[i], t)}}},
		})
	}
	// Blue routes s→v2→t, sharing the v2→t edge with green (Figure 3).
	inst.Coflows = append(inst.Coflows, repro.Coflow{
		ID: 3, Weight: 1,
		Flows: []repro.Flow{{Source: s, Sink: t, Demand: 3,
			Path: []repro.EdgeID{edge(s, v[1]), edge(v[1], t)}}},
	})
	names = append(names, "blue (s→t, demand 3)")

	stretch := func(model string) *repro.Result {
		rep, err := repro.Run(context.Background(), repro.Spec{
			Instance: inst, Model: model, Scheduler: "stretch",
			Options: repro.SpecOptions{MaxSlots: 8, Trials: 20, Seed: 1},
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep.Engine.Core
	}
	single, free := stretch("single"), stretch("free")

	fmt.Println("Section 2 running example (Figures 2–4)")
	fmt.Println()
	fmt.Println("Single path model (paper optimum: 1+1+1+4 = 7):")
	fmt.Printf("  LP lower bound:    %.3f\n", single.LowerBound)
	fmt.Printf("  heuristic λ=1.0:   %.0f\n", single.Heuristic.Weighted)
	fmt.Printf("  best λ over 20:    %.0f\n", single.Stretch.BestWeighted)
	for j, c := range single.Heuristic.Completions {
		fmt.Printf("    %-22s completes at %.0f\n", names[j], c)
	}
	fmt.Println()
	fmt.Println("Free path model (paper optimum: 1+1+1+2 = 5):")
	fmt.Printf("  LP lower bound:    %.3f\n", free.LowerBound)
	fmt.Printf("  heuristic λ=1.0:   %.0f\n", free.Heuristic.Weighted)
	fmt.Printf("  best λ over 20:    %.0f\n", free.Stretch.BestWeighted)
	for j, c := range free.Heuristic.Completions {
		fmt.Printf("    %-22s completes at %.0f\n", names[j], c)
	}
}
