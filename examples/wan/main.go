// WAN scheduling example: a Facebook-style workload over Google's
// G-Scale topology, scheduled with every algorithm in the repository —
// the paper's LP+Stretch pipeline in both transmission models, the
// Jahanjou et al. single path baseline, the Terra free path baseline,
// and the LP-free weighted-SJF greedy.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	repro "repro"

	"repro/internal/baselines"
	"repro/internal/coflow"
)

func main() {
	inst, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind:             repro.FB,
		Graph:            repro.NewGScale(1),
		NumCoflows:       6,
		Seed:             42,
		MeanInterarrival: 1.5,
		AssignPaths:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FB-style workload on G-Scale: %d coflows, %d flows, total demand %.1f\n\n",
		len(inst.Coflows), inst.NumFlows(), inst.TotalDemand())

	// Single path model.
	sp := stretch(inst, "single", 32)
	horizon := inst.HorizonUpperBound(coflow.SinglePath) + 1
	jr, err := baselines.Jahanjou(context.Background(), inst, horizon, baselines.JahanjouEpsilon, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := baselines.GreedyWSJF(inst, int(math.Ceil(horizon))+1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Single path model (weighted completion time, slot units):")
	fmt.Printf("  %-28s %10.1f\n", "LP lower bound", sp.LowerBound)
	fmt.Printf("  %-28s %10.1f\n", "heuristic (λ=1.0)", sp.Heuristic.Weighted)
	fmt.Printf("  %-28s %10.1f\n", "best λ", sp.Stretch.BestWeighted)
	fmt.Printf("  %-28s %10.1f\n", "average λ", sp.Stretch.AvgWeighted)
	fmt.Printf("  %-28s %10.1f\n", "Jahanjou et al. (ε=0.5436)", jr.Weighted)
	fmt.Printf("  %-28s %10.1f\n", "greedy weighted-SJF (no LP)", greedy.WeightedCompletion())
	fmt.Println()

	// Free path model (unweighted comparison against Terra).
	unweighted, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind: repro.FB, Graph: repro.NewGScale(1), NumCoflows: 5, Seed: 42,
		MeanInterarrival: 1.5, WeightMin: 1, WeightMax: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fp := stretch(unweighted, "free", 24)
	tr, err := baselines.Terra(context.Background(), unweighted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Free path model, unit weights (total completion time, slot units):")
	lpTotal := 0.0
	for _, c := range fp.CStar {
		lpTotal += c
	}
	fmt.Printf("  %-28s %10.1f\n", "LP lower bound", lpTotal)
	fmt.Printf("  %-28s %10.1f\n", "heuristic (λ=1.0)", fp.Heuristic.Total)
	fmt.Printf("  %-28s %10.1f\n", "best λ", fp.Stretch.BestTotal)
	fmt.Printf("  %-28s %10.1f\n", "average λ", fp.Stretch.AvgTotal)
	fmt.Printf("  %-28s %10.1f  (%d LP solves, continuous time)\n",
		"Terra (SRTF)", tr.Total, tr.LPSolves)
}

// stretch runs the paper's LP+Stretch pipeline (10 λ samples) in the
// given transmission model with a grid of at most maxSlots slots.
func stretch(inst *repro.Instance, model string, maxSlots int) *repro.Result {
	rep, err := repro.Run(context.Background(), repro.Spec{
		Instance: inst, Model: model, Scheduler: "stretch",
		Options: repro.SpecOptions{MaxSlots: maxSlots, Trials: 10, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	return rep.Engine.Core
}
