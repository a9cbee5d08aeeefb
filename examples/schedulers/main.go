// Command schedulers demonstrates the unified scheduler engine: one
// instance, every registered algorithm, one result table. This is the
// comparison loop the figure harnesses run at scale — and the shape a
// new scheduler variant plugs into (implement engine.Scheduler,
// call engine.Register, and it appears here with no other changes).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	repro "repro"
)

func main() {
	// A small FB-like workload on the SWAN WAN, with fixed shortest
	// paths so the single path algorithms can run too.
	inst, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind:             repro.FB,
		Graph:            repro.NewSWAN(1),
		NumCoflows:       6,
		Seed:             1,
		MeanInterarrival: 1.5,
		AssignPaths:      true,
	})
	if err != nil {
		log.Fatal(err)
	}

	opt := repro.SpecOptions{
		MaxSlots: 32,
		Trials:   10,
		Seed:     2019,
		Workers:  0, // 0 = GOMAXPROCS; results are identical at any count
	}

	for _, model := range []string{"single", "free"} {
		fmt.Printf("— %s-path —\n", model)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "scheduler\tΣwC\tΣC\tLP bound")
		for _, name := range repro.Schedulers() {
			rep, err := repro.Run(context.Background(), repro.Spec{
				Instance: inst, Model: model, Scheduler: name, Options: opt,
			})
			if err != nil {
				// Not every algorithm supports every model (Terra is
				// free path only, Jahanjou/Sincronia single path only).
				continue
			}
			bound := "-"
			if rep.HasLowerBound {
				bound = fmt.Sprintf("%.2f", rep.LowerBound)
			}
			fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%s\n", name, rep.Weighted, rep.Total, bound)
		}
		if err := tw.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
