// Command topologies walks through the topology generator subsystem:
// it builds one network per family from a spec string, generates a
// workload restricted to each topology's endpoints, schedules it with
// the LP-free Sincronia-style greedy, and replays every result through
// the independent validity oracle — the same scheduler × topology
// conformance sweep the test suite runs, in miniature.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
)

func main() {
	fmt.Println("topology generator families:", repro.Topologies())
	fmt.Println()

	specs := []string{
		"big-switch:n=6",
		"fat-tree:k=4",
		"leaf-spine:leaves=4,spines=2,hosts=2,up=0.5", // oversubscribed uplinks
		"ring:n=8",
		"erdos-renyi:n=10,p=0.3,seed=7,hetero=1",
	}

	ctx := context.Background()
	fmt.Printf("%-44s %6s %6s %6s %12s %9s\n", "spec", "nodes", "links", "hosts", "ΣwC", "validate")
	for _, spec := range specs {
		// A spec string fully determines its network: same spec, same
		// graph, same capacities — across runs and machines.
		top, err := repro.NewTopology(spec)
		if err != nil {
			log.Fatal(err)
		}

		// Restricting endpoints keeps traffic on hosts: in the fat-tree
		// and leaf-spine fabrics, cores/spines only forward.
		inst, err := repro.GenerateWorkload(repro.WorkloadConfig{
			Kind: repro.FB, Graph: top.Graph, NumCoflows: 8, Seed: 42,
			MeanInterarrival: 1, AssignPaths: true, Endpoints: top.Endpoints,
		})
		if err != nil {
			log.Fatal(err)
		}

		rep, err := repro.Run(ctx, repro.Spec{
			Instance: inst, Scheduler: "sincronia-greedy",
			Options: repro.SpecOptions{MaxSlots: 24},
		})
		if err != nil {
			log.Fatal(err)
		}

		// The oracle replays the schedule slot by slot: capacities,
		// releases, demands, routes, and reported completions.
		verdict := "ok"
		if err := repro.Validate(inst, rep.Engine); err != nil {
			verdict = err.Error()
		}
		fmt.Printf("%-44s %6d %6d %6d %12.1f %9s\n",
			spec, top.Graph.NumNodes(), top.Graph.NumEdges()/2, len(top.Endpoints),
			rep.Weighted, verdict)
	}

	fmt.Println("\nonline trace validation on a generated fabric:")
	top, err := repro.NewTopology("leaf-spine:leaves=4,spines=2,hosts=2")
	if err != nil {
		log.Fatal(err)
	}
	inst, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind: repro.FB, Graph: top.Graph, NumCoflows: 10, Seed: 7,
		MeanInterarrival: 1, AssignPaths: true, Endpoints: top.Endpoints,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, policy := range []string{"fifo", "las", "epoch:sincronia-greedy"} {
		// Validate: true replays the event trace through the oracle
		// inside Run; a violation fails the run.
		rep, err := repro.Run(ctx, repro.Spec{
			Instance: inst, Policy: policy, Validate: true,
			Options: repro.SpecOptions{Epoch: 2, Seed: 1},
		})
		if err != nil {
			log.Fatalf("%s: %v", policy, err)
		}
		fmt.Printf("  %-24s ΣwC %8.1f  makespan %6.2f  events %3d  trace valid\n",
			policy, rep.Weighted, rep.Makespan, rep.Events)
	}
}
