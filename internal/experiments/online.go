package experiments

import (
	"context"
	"fmt"

	"repro/internal/coflow"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Online evaluation ("Figure O1"): the paper's workloads carry Poisson
// release times that the offline figures reveal to the scheduler
// upfront; here the internal/sim simulator reveals them at arrival and
// measures the price of being online. See the figure index in the
// package comment.

// O1Policies are the policies the load sweep compares: the three
// non-clairvoyant baselines, the online Sincronia re-ordering, and the
// epoch re-planning adapter over the LP-free offline greedy (so the
// sweep stays LP-free and fast at default scale).
var O1Policies = []string{
	sim.NameFIFO,
	sim.NameLAS,
	sim.NameFair,
	sim.NameSincroniaOnline,
	"epoch:sincronia-greedy",
}

// O1Offline is the clairvoyant reference scheduler slowdowns are
// measured against in the load sweep.
const O1Offline = "sincronia-greedy"

// SeriesOffline labels the clairvoyant reference column.
const SeriesOffline = "Offline ΣwC"

// OnlineComparison runs each named sim policy on one instance and
// tabulates absolute weighted CCT, average CCT (response time),
// makespan, and — when offline names an engine scheduler — the average
// per-coflow slowdown against a clairvoyant run of that scheduler's
// epoch adapter. The reference runs through the same continuous-time
// simulator (Options.Clairvoyant) so the slowdown isolates the cost of
// not knowing the future instead of mixing in the slot quantization of
// offline schedules; the engine's slotted ΣwC is reported alongside
// for scale.
//
// Every row is a spec cell run through spec.RunWith with reg: base
// carries the shared inline Instance, the Options and Validate, and
// each row sets its Policy or Scheduler (the slotted reference drops
// the online-only options).
func OnlineComparison(ctx context.Context, base spec.Spec, policies []string, offline string, reg *obs.Registry) (*FigureResult, error) {
	// The slotted reference takes sim's lighter trial default (5)
	// rather than the engine's offline default (20).
	if base.Options.Trials == 0 {
		base.Options.Trials = sim.Options{}.Normalize().Trials
	}
	in := base.Instance
	res := &FigureResult{
		Name:   fmt.Sprintf("Online comparison: %d coflows (%d flows), epoch=%g", len(in.Coflows), in.NumFlows(), base.Options.Epoch),
		Series: []string{"Weighted ΣwC", "Avg CCT", "Makespan", "Replans"},
	}
	run := func(label string, s spec.Spec) (*spec.RunReport, error) {
		rep, err := spec.RunWith(ctx, s, reg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", label, err)
		}
		return rep, nil
	}
	var offCompletions []float64
	if offline != "" {
		slotted := base
		slotted.Scheduler = offline
		o := &slotted.Options
		o.Epoch, o.Clairvoyant, o.CheckEvery, o.MaxEvents, o.WarmLP = 0, false, 0, 0, false
		off, err := run("offline reference "+offline, slotted)
		if err != nil {
			return nil, err
		}
		clair := base
		clair.Policy = "epoch:" + offline
		clair.Options.Clairvoyant = true
		ref, err := run("clairvoyant reference "+offline, clair)
		if err != nil {
			return nil, err
		}
		offCompletions = ref.Completions
		res.Series = append(res.Series, "Slowdown")
		res.Rows = append(res.Rows, Row{
			Label: "offline:" + offline,
			Values: map[string]float64{
				"Weighted ΣwC": ref.Weighted,
				"Avg CCT":      ref.AvgCCT,
				"Makespan":     ref.Makespan,
				"Slowdown":     1,
			},
		})
		res.Rows = append(res.Rows, Row{
			Label: "offline:" + offline + " (slotted)",
			Values: map[string]float64{
				"Weighted ΣwC": off.Weighted,
				"Makespan":     off.Makespan,
			},
		})
	}
	for _, name := range policies {
		cell := base
		cell.Policy = name
		r, err := run("policy "+name, cell)
		if err != nil {
			return nil, err
		}
		row := Row{Label: name, Values: map[string]float64{
			"Weighted ΣwC": r.Weighted,
			"Avg CCT":      r.AvgCCT,
			"Makespan":     r.Makespan,
			"Replans":      float64(r.Replans),
		}}
		if offCompletions != nil {
			s, err := sim.Slowdown(r.Sim, offCompletions)
			if err != nil {
				return nil, err
			}
			row.Values["Slowdown"] = s
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FigureO1 is the online load sweep: one streamed spec cell per
// (workload, arrival-rate, run) triple on SWAN in the single path
// model — runs are the clairvoyant reference (the O1Offline
// scheduler's epoch adapter with every coflow revealed at t=0) plus
// each O1Policies member. The table reports the average per-coflow
// slowdown of every policy against its instance point's reference,
// next to the reference's weighted CCT for scale. Cells fan out over
// internal/spec's streaming executor with per-cell derived seeds, so
// the table is bit-identical at any Config.Workers.
func FigureO1(ctx context.Context, c Config) (*FigureResult, error) {
	c = c.withDefaults()
	res := &FigureResult{
		Name:   "Figure O1: online load sweep on SWAN (avg slowdown vs clairvoyant " + O1Offline + ")",
		Series: append([]string{SeriesOffline}, O1Policies...),
	}
	type point struct {
		kind workload.Kind
		load float64
	}
	var points []point
	for _, kind := range workload.Kinds {
		for _, load := range c.Loads {
			points = append(points, point{kind, load})
		}
	}
	// Materialize each grid point's instance once — the reference and
	// every policy run share it inline instead of regenerating it per
	// cell. Seeds reproduce the original per-point derivation exactly,
	// so the sweep-backed figure matches the legacy implementation bit
	// for bit.
	runs := 1 + len(O1Policies)
	instances := make([]*coflow.Instance, len(points))
	for pi, p := range points {
		c.logf("Figure O1: %s λ=%.2g", p.kind, p.load)
		in, err := spec.Spec{
			// Any online policy makes Materialize assign single-path
			// routes; nothing runs here.
			Policy: sim.NameFIFO,
			Workload: &spec.Workload{
				Kind:             specKind(p.kind),
				Coflows:          c.SingleCoflows,
				Seed:             stats.SubSeed(c.Seed, 0xC0F*uint64(pi)+1),
				MeanInterarrival: 1 / p.load,
			},
		}.Materialize()
		if err != nil {
			return nil, fmt.Errorf("O1 %s λ=%.2g: %w", p.kind, p.load, err)
		}
		instances[pi] = in
	}
	at := func(i int) spec.Spec {
		pi, r := i/runs, i%runs
		s := spec.Spec{
			Instance: instances[pi],
			Options:  spec.Options{MaxSlots: c.MaxSlots, Workers: 1},
		}
		if r == 0 {
			s.Policy = "epoch:" + O1Offline
			s.Options.Clairvoyant = true
			s.Options.Seed = c.Seed
		} else {
			s.Policy = O1Policies[r-1]
			s.Options.Seed = stats.SubSeed(c.Seed, uint64(pi))
		}
		return s
	}
	reports := make([]*spec.RunReport, len(points)*runs)
	for i, cell := range spec.Stream(ctx, len(reports), c.Workers, at) {
		if cell.Err != nil {
			pi := i / runs
			return nil, fmt.Errorf("O1 %s λ=%.2g (%s): %w",
				points[pi].kind, points[pi].load, cell.Spec.Policy, cell.Err)
		}
		reports[i] = cell.Report
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows := make([]Row, len(points))
	for pi, p := range points {
		off := reports[pi*runs]
		row := Row{
			Label:  fmt.Sprintf("%s λ=%.2g", p.kind, p.load),
			Values: map[string]float64{SeriesOffline: off.Weighted},
		}
		for r, name := range O1Policies {
			s, err := sim.Slowdown(reports[pi*runs+1+r].Sim, off.Sim.Completions)
			if err != nil {
				return nil, err
			}
			row.Values[name] = s
		}
		rows[pi] = row
	}
	res.Rows = rows
	return res, nil
}
