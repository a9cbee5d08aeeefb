package engine

import (
	"context"

	"repro/internal/baselines"
	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// Registry names of the built-in schedulers.
const (
	NameStretch   = "stretch"
	NameHeuristic = "heuristic"
	NameTerra     = "terra"
	NameJahanjou  = "jahanjou"
	NameSincronia = "sincronia-greedy"
)

func init() {
	Register(stretchScheduler{})
	Register(heuristicScheduler{})
	Register(terraScheduler{})
	Register(jahanjouScheduler{})
	Register(sincroniaScheduler{})
}

// runCore executes the Stretch pipeline with the shared adaptive
// grid policy (core.RunAdaptive doubles the slot count when the
// horizon proves too short) and returns the grid that succeeded.
func runCore(ctx context.Context, inst *coflow.Instance, opt Options, trials int) (*core.Result, timegrid.Grid, error) {
	return core.RunAdaptive(ctx, inst, opt.Mode, opt.MaxSlots, core.Options{
		DisableCompaction: opt.DisableCompaction,
		Trials:            trials,
		Seed:              opt.Seed,
		Workers:           opt.Workers,
		WarmBasis:         opt.WarmBasis,
		Obs:               opt.Obs,
	})
}

// stretchScheduler is the paper's full pipeline: time-indexed LP,
// λ=1 heuristic, and k randomized Stretch roundings in parallel. The
// reported schedule is the best of heuristic and all roundings.
type stretchScheduler struct{}

func (stretchScheduler) Name() string                 { return NameStretch }
func (stretchScheduler) Supports(m coflow.Model) bool { return supportedCoreModel(m) }
func (s stretchScheduler) Schedule(ctx context.Context, inst *coflow.Instance, opt Options) (*Result, error) {
	cr, grid, err := runCore(ctx, inst, opt, opt.Trials)
	if err != nil {
		return nil, err
	}
	res := fromCore(cr)
	res.Extra["grid-slots"] = float64(grid.NumSlots())
	if cr.Stretch != nil {
		res.Extra["best-lambda"] = cr.Stretch.BestLambda
		res.Extra["avg-weighted"] = cr.Stretch.AvgWeighted
		res.Extra["avg-total"] = cr.Stretch.AvgTotal
		// Prefer the best rounding when it beats the heuristic.
		best := cr.Heuristic
		for i := range cr.Stretch.Samples {
			if ev := &cr.Stretch.Samples[i]; ev.Weighted < best.Weighted {
				best = ev
			}
		}
		res.Weighted = best.Weighted
		res.Total = best.Total
		res.Completions = best.Completions
		res.Schedule = best.Schedule
	}
	return res, nil
}

// heuristicScheduler is the λ=1.0 LP heuristic alone (§6.2), the
// paper's strongest variant in practice.
type heuristicScheduler struct{}

func (heuristicScheduler) Name() string                 { return NameHeuristic }
func (heuristicScheduler) Supports(m coflow.Model) bool { return supportedCoreModel(m) }
func (heuristicScheduler) Schedule(ctx context.Context, inst *coflow.Instance, opt Options) (*Result, error) {
	cr, grid, err := runCore(ctx, inst, opt, 0)
	if err != nil {
		return nil, err
	}
	res := fromCore(cr)
	// The successful grid length: harnesses that layer interval LPs or
	// horizon-parameterized baselines on top of a heuristic cell reuse
	// it as their horizon.
	res.Extra["grid-slots"] = float64(grid.NumSlots())
	return res, nil
}

// terraScheduler wraps the Terra SRTF baseline (free path only,
// unweighted objective).
type terraScheduler struct{}

func (terraScheduler) Name() string                 { return NameTerra }
func (terraScheduler) Supports(m coflow.Model) bool { return m == coflow.FreePath }
func (terraScheduler) Schedule(ctx context.Context, inst *coflow.Instance, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := baselines.Terra(ctx, inst)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Completions: tr.Completions,
		Total:       tr.Total,
		Extra:       map[string]float64{"lp-solves": float64(tr.LPSolves)},
	}
	// Terra optimizes total completion time; report the weighted sum
	// too so mixed tables stay comparable.
	for j, c := range tr.Completions {
		res.Weighted += inst.Coflows[j].Weight * c
	}
	return res, nil
}

// jahanjouScheduler wraps the Jahanjou et al. α-point baseline
// (single path only).
type jahanjouScheduler struct{}

func (jahanjouScheduler) Name() string                 { return NameJahanjou }
func (jahanjouScheduler) Supports(m coflow.Model) bool { return m == coflow.SinglePath }
func (jahanjouScheduler) Schedule(ctx context.Context, inst *coflow.Instance, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	horizon := core.DefaultGrid(inst, opt.Mode, opt.MaxSlots).Horizon()
	jr, err := baselines.JahanjouAdaptive(ctx, inst, horizon, baselines.JahanjouEpsilon, 0.5)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Weighted:      jr.Weighted,
		Completions:   jr.Completions,
		Schedule:      jr.Schedule,
		LowerBound:    jr.LowerBound,
		HasLowerBound: true,
		Extra:         map[string]float64{},
	}
	for _, c := range jr.Completions {
		res.Total += c
	}
	return res, nil
}

// sincroniaScheduler is the LP-free bottleneck-ordering greedy
// (single path only): BSSI permutation + priority water-filling.
type sincroniaScheduler struct{}

func (sincroniaScheduler) Name() string                 { return NameSincronia }
func (sincroniaScheduler) Supports(m coflow.Model) bool { return m == coflow.SinglePath }
func (sincroniaScheduler) Schedule(ctx context.Context, inst *coflow.Instance, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := baselines.SincroniaAdaptive(inst, core.DefaultGrid(inst, opt.Mode, opt.MaxSlots).Horizon())
	if err != nil {
		return nil, err
	}
	res := &Result{
		Schedule:    s,
		Completions: s.CompletionTimes(),
		Weighted:    s.WeightedCompletion(),
		Extra:       map[string]float64{},
	}
	for _, c := range res.Completions {
		res.Total += c
	}
	return res, nil
}

// fromCore builds the common Result fields from a pipeline run, using
// the λ=1 heuristic as the reported schedule. Extra["warm-start"] is
// the numeric simplex.WarmOutcome code (0 none, 1 accepted, 2+ the
// rejection reason), present only when the solve started from a basis
// (a supplied one, or the single path model's greedy seed), so
// harnesses can tell a silent cold fallback from a genuine warm solve.
func fromCore(cr *core.Result) *Result {
	extra := map[string]float64{"simplex-iterations": float64(cr.Iterations)}
	if cr.WarmStart != simplex.WarmNone {
		extra["warm-start"] = float64(cr.WarmStart)
	}
	return &Result{
		Weighted:      cr.Heuristic.Weighted,
		Total:         cr.Heuristic.Total,
		Completions:   cr.Heuristic.Completions,
		Schedule:      cr.Heuristic.Schedule,
		LowerBound:    cr.LowerBound,
		HasLowerBound: true,
		Core:          cr,
		Extra:         extra,
	}
}

func supportedCoreModel(m coflow.Model) bool {
	switch m {
	case coflow.SinglePath, coflow.FreePath, coflow.MultiPath:
		return true
	}
	return false
}
