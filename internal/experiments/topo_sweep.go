package experiments

import (
	"context"
	"fmt"

	"repro/internal/coflow"
	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Topology sweep ("Figure T1"): the paper's headline claim is
// approximating coflow completion time in *general* networks, but its
// own evaluation runs only the SWAN and G-Scale WANs. This figure
// measures how far each single-path scheduler lands from the LP lower
// bound across the generated topology families of internal/topo — the
// big-switch abstraction the Sincronia-style greedy was designed for,
// oversubscribed datacenter fabrics, and the adversarial flat families.

// T1Specs are the topology specs swept, one row each. All are sized so
// the time-indexed LP stays laptop-friendly at default scale.
var T1Specs = []string{
	"big-switch:n=6",
	"star:n=6",
	"line:n=6",
	"ring:n=6",
	"fat-tree:k=4",
	"leaf-spine:leaves=4,spines=2,hosts=2",
	"random-regular:n=8,d=3,seed=3",
	"erdos-renyi:n=8,p=0.3,seed=5,hetero=1",
}

// T1Schedulers are the engine schedulers compared, one series each;
// all support the single path model the sweep runs in.
var T1Schedulers = []string{
	engine.NameHeuristic,
	engine.NameStretch,
	engine.NameJahanjou,
	engine.NameSincronia,
}

// FigureT1 runs the topology sweep: one streamed spec cell per
// (topology spec, scheduler) pair, each generating an FB workload
// restricted to the topology's endpoints and running in the single
// path model. Reported values are the CCT ratio — weighted completion
// over the topology's time-indexed LP lower bound (from its heuristic
// cell) — so 1.0 is LP-optimal and families where an algorithm's
// big-switch assumptions break show up as inflated ratios. Cells fan
// out over internal/spec's streaming executor; per-cell seeds derive
// from Config.Seed, so the table is identical at any Config.Workers.
func FigureT1(ctx context.Context, c Config) (*FigureResult, error) {
	c = c.withDefaults()
	res := &FigureResult{
		Name:   "Figure T1: topology sweep, single path FB workload (ΣwC / LP bound)",
		Series: append([]string(nil), T1Schedulers...),
	}
	ns := len(T1Schedulers)
	// Materialize each topology's instance once; its scheduler cells
	// share it inline instead of rebuilding topology + workload per
	// cell.
	instances := make([]*coflow.Instance, len(T1Specs))
	for ti, topoSpec := range T1Specs {
		c.logf("Figure T1: topology %s", topoSpec)
		in, err := spec.Spec{
			Topology:  topoSpec,
			Scheduler: T1Schedulers[0], // never run; Materialize only needs the model
			Model:     spec.ModelSingle,
			Workload: &spec.Workload{
				Kind:             specKind(workload.FB),
				Coflows:          c.SingleCoflows,
				Seed:             stats.SubSeed(c.Seed, 0x701+uint64(ti)),
				MeanInterarrival: c.MeanInterarrival,
			},
		}.Materialize()
		if err != nil {
			return nil, fmt.Errorf("T1 %s: %w", topoSpec, err)
		}
		instances[ti] = in
	}
	at := func(i int) spec.Spec {
		ti, si := i/ns, i%ns
		return spec.Spec{
			Instance:  instances[ti],
			Model:     spec.ModelSingle,
			Scheduler: T1Schedulers[si],
			Options: spec.Options{
				MaxSlots: c.MaxSlots,
				Trials:   c.Trials,
				Seed:     stats.SubSeed(c.Seed, 0x71A+uint64(ti)),
				Workers:  1, // cells already fan out; keep trials serial
			},
		}
	}
	reports, err := c.cells(ctx, len(T1Specs)*ns, at, func(i int) string {
		return fmt.Sprintf("T1 %s (%s)", T1Specs[i/ns], T1Schedulers[i%ns])
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(T1Specs))
	for ti, topoSpec := range T1Specs {
		row := Row{Label: topoSpec, Values: map[string]float64{}}
		var bound float64
		for si, name := range T1Schedulers {
			r := reports[ti*ns+si]
			// The heuristic's time-indexed LP bound is the common
			// denominator; Jahanjou's interval bound differs.
			if name == engine.NameHeuristic && r.HasLowerBound {
				bound = r.LowerBound
			}
			row.Values[name] = r.Weighted
		}
		if bound <= 0 {
			return nil, fmt.Errorf("T1 %s: no LP lower bound", topoSpec)
		}
		for name, v := range row.Values {
			row.Values[name] = v / bound
		}
		rows[ti] = row
	}
	res.Rows = rows
	return res, nil
}
