// Multi-path example: the intermediate transmission model the paper
// sketches in Section 2 — each flow carries a fixed set of candidate
// paths (k shortest) and the scheduler splits traffic across them.
// This sits between single path (k=1) and free path (all routes): the
// example sweeps k and shows the LP bound and schedule improving
// monotonically toward the free path value.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	repro "repro"

	"repro/internal/coflow"
)

func main() {
	base, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind: repro.TPCDS, Graph: repro.NewSWAN(1), NumCoflows: 5, Seed: 8,
		MeanInterarrival: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-DS-style workload on SWAN: %d coflows, %d flows\n\n",
		len(base.Coflows), base.NumFlows())
	fmt.Printf("%-22s %14s %14s\n", "model", "LP bound", "heuristic λ=1")

	free := heuristic(base, "free")
	for _, k := range []int{1, 2, 4} {
		inst := cloneViaJSON(base)
		if err := inst.AssignKShortestPaths(k); err != nil {
			log.Fatal(err)
		}
		res := heuristic(inst, "multi")
		fmt.Printf("%-22s %14.1f %14.1f\n",
			fmt.Sprintf("multi-path (k=%d)", k), res.LowerBound, res.Heuristic.Weighted)
	}
	fmt.Printf("%-22s %14.1f %14.1f\n", "free path (k=∞)", free.LowerBound, free.Heuristic.Weighted)
	fmt.Println("\nMore candidate paths → tighter bound and better schedule;")
	fmt.Println("free path is the limit of the sweep.")
}

// heuristic runs the LP and the λ=1 rounding (Trials: -1 skips the
// randomized ones) in the given transmission model.
func heuristic(inst *repro.Instance, model string) *repro.Result {
	rep, err := repro.Run(context.Background(), repro.Spec{
		Instance: inst, Model: model, Scheduler: "stretch",
		Options: repro.SpecOptions{MaxSlots: 28, Trials: -1},
	})
	if err != nil {
		log.Fatal(err)
	}
	return rep.Engine.Core
}

// cloneViaJSON deep-copies an instance through its serialization so
// each sweep point gets an independent path assignment.
func cloneViaJSON(in *repro.Instance) *repro.Instance {
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	out, err := coflow.ReadJSON(&buf)
	if err != nil {
		log.Fatal(err)
	}
	return out
}
