// Command online demonstrates the online discrete-event simulator:
// an FB-like workload arrives over time on the SWAN WAN, and four
// online policies — from the blind FIFO baseline to epoch re-planning
// with the offline Stretch pipeline — are compared against the
// clairvoyant schedule that sees every coflow upfront.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
)

func main() {
	// 10 coflows, Poisson releases at one coflow per slot on average.
	inst, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind: repro.FB, Graph: repro.NewSWAN(1), NumCoflows: 10, Seed: 7,
		MeanInterarrival: 1, AssignPaths: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The clairvoyant reference: the same simulator, but with every
	// coflow revealed at t=0 (service still honors releases), so it
	// differs from the online runs only in what the planner knows.
	ctx := context.Background()
	offline, err := repro.Run(ctx, repro.Spec{
		Instance: inst, Policy: "epoch:stretch",
		Options: repro.SpecOptions{Clairvoyant: true, Trials: 5, Seed: 42},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clairvoyant epoch:stretch: ΣwC = %.1f\n\n", offline.Weighted)

	// Online: coflows are revealed at their release times. The
	// epoch:stretch policy re-plans with the same pipeline at every
	// arrival and every 2-slot epoch tick, but only ever sees what has
	// arrived so far.
	fmt.Printf("%-18s %12s %9s %9s %8s\n", "policy", "ΣwC", "avg CCT", "makespan", "replans")
	for _, name := range []string{"fifo", "las", "fair", "sincronia-online", "epoch:stretch"} {
		rep, err := repro.Run(ctx, repro.Spec{
			Instance: inst, Policy: name,
			Options: repro.SpecOptions{Epoch: 2, Trials: 5, Seed: 42},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %12.1f %9.2f %9.2f %8d\n",
			rep.Policy, rep.Weighted, rep.AvgCCT, rep.Makespan, rep.Replans)
	}
}
