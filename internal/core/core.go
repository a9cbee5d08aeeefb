// Package core implements the paper's primary contribution: the
// randomized 2-approximation "Stretch" pipeline for coflow scheduling
// in general networks (Sections 3–4), in both the single path and the
// free path transmission models.
//
// The pipeline is
//
//	build time-indexed LP  →  solve (internal/simplex)  →
//	round: take the LP schedule directly (λ=1 heuristic, §6.2)
//	       or stretch it by 1/λ with λ ~ f(v)=2v (§4.1)      →
//	compact idle slots (§6.1)  →  verify feasibility  →  evaluate.
//
// Every schedule this package returns has passed the feasibility
// verifier in internal/schedule.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/coflow"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/schedule"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// Options configure the pipeline.
type Options struct {
	// Grid is the time expansion. Required.
	Grid timegrid.Grid
	// DisableCompaction turns off the idle-slot optimization of
	// Section 6.1 (used by the ablation benchmarks).
	DisableCompaction bool
	// Trials is the number of randomized Stretch roundings Run
	// performs on uniform grids (0 disables Stretch).
	Trials int
	// Seed drives the λ sampling. Trial i rounds with
	// TrialLambda(Seed, i), a pure function of Seed and the trial index
	// (the first λ of a math/rand generator seeded from both), so
	// results are reproducible at any worker count.
	Seed int64
	// Workers bounds the goroutines used for Stretch trials (≤ 0 =
	// GOMAXPROCS).
	Workers int
	// WarmBasis, when non-nil, warm-starts the LP solve from a basis
	// exported by a previous solve (Result.Basis). The basis is
	// positional, so it fits only an LP of the same shape; the solver
	// validates it and falls back to a cold start when it does not
	// fit, so the computed optimum is unaffected.
	WarmBasis *lp.Basis
	// Obs, when non-nil, receives pipeline telemetry (simplex counters,
	// grid retries). Recording is observational only: results are
	// bit-identical with or without a registry.
	Obs *obs.Registry
}

// Evaluated is a feasibility-verified schedule with its metrics.
type Evaluated struct {
	// Schedule is the verified schedule. A StretchStats sample keeps it
	// only if it is the best trial (see StretchStats.Samples); the
	// other samples carry their metrics and a nil Schedule.
	Schedule    *schedule.Schedule
	Completions []float64 // per-coflow completion times (slot units)
	Weighted    float64   // Σ w_j C_j
	Total       float64   // Σ C_j
	Lambda      float64   // the λ that produced this schedule
}

// evaluate compacts (optionally), verifies and measures a schedule.
func evaluate(s *schedule.Schedule, lambda float64, compact bool) (*Evaluated, error) {
	if compact {
		s.Compact()
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("core: produced infeasible schedule: %w", err)
	}
	ct := s.CompletionTimes()
	ev := &Evaluated{Schedule: s, Completions: ct, Lambda: lambda}
	for j, c := range ct {
		ev.Weighted += s.Inst.Coflows[j].Weight * c
		ev.Total += c
	}
	return ev, nil
}

// SolveLP builds and solves the relaxation for the given model.
func SolveLP(ctx context.Context, inst *coflow.Instance, mode coflow.Model, opt Options) (*model.Solution, error) {
	var l *model.LP
	var err error
	switch mode {
	case coflow.SinglePath:
		l, err = model.BuildSinglePath(inst, opt.Grid)
	case coflow.FreePath:
		l, err = model.BuildFreePath(inst, opt.Grid)
	case coflow.MultiPath:
		l, err = model.BuildMultiPath(inst, opt.Grid)
	default:
		return nil, fmt.Errorf("core: unknown model %v", mode)
	}
	if err != nil {
		return nil, err
	}
	return l.SolveWarm(ctx, simplex.Options{Obs: opt.Obs}, opt.WarmBasis)
}

// Heuristic converts the LP solution directly into a schedule — the
// λ=1.0 LP-based heuristic the paper finds strongest in practice.
func Heuristic(sol *model.Solution, opt Options) (*Evaluated, error) {
	return evaluate(schedule.FromLP(sol), 1.0, !opt.DisableCompaction)
}

// StretchOnce applies the Stretch rounding with a fixed λ.
func StretchOnce(sol *model.Solution, lambda float64, opt Options) (*Evaluated, error) {
	s, err := schedule.Stretch(sol, lambda)
	if err != nil {
		return nil, err
	}
	return evaluate(s, lambda, !opt.DisableCompaction)
}

// StretchStats aggregates repeated randomized Stretch runs the way the
// paper reports them: "Best λ" (minimum objective over samples) and
// "Average λ" (mean objective, the empirical counterpart of the
// 2-approximation guarantee).
type StretchStats struct {
	// Samples holds the trials in order. Only the trial of least
	// Weighted, the lowest index on ties, keeps its Schedule: the one
	// the stretch scheduler reports when it beats the heuristic. The
	// other samples' Schedule is nil.
	Samples        []Evaluated
	BestWeighted   float64
	BestLambda     float64
	AvgWeighted    float64
	BestTotal      float64
	AvgTotal       float64
	BestTotalLmbda float64
}

// trialSchedules holds idle trial schedules, whose arrays StretchTrials
// stretches the next trials into.
var trialSchedules pool.FreeList[schedule.Schedule]

// StretchTrials samples k values of λ from the f(v)=2v density
// (paper: k=20), rounds with each, and aggregates. Trial i rounds with
// TrialLambda(opt.Seed, i). Trials run on a worker pool of opt.Workers
// goroutines, and aggregation happens in trial order after the pool
// drains, so a fixed seed yields bit-identical stats at any worker
// count.
//
// Every trial is stretched, compacted, verified and measured, but only
// the best one keeps its schedule: the trial of least Weighted, the
// lowest index on ties. The others give their arrays back for later
// trials to stretch into.
func StretchTrials(ctx context.Context, sol *model.Solution, k int, opt Options) (*StretchStats, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: StretchTrials needs k ≥ 1, got %d", k)
	}
	samples := make([]Evaluated, k)
	var mu sync.Mutex // guards best and the samples' schedules
	best := -1
	_, err := pool.Map(ctx, k, opt.Workers, func(i int) (struct{}, error) {
		lambda := TrialLambda(opt.Seed, i)
		s := trialSchedules.Get()
		if err := schedule.StretchInto(s, sol, lambda); err != nil {
			return struct{}{}, err
		}
		ev, err := evaluate(s, lambda, !opt.DisableCompaction)
		if err != nil {
			return struct{}{}, err
		}
		mu.Lock()
		defer mu.Unlock()
		samples[i] = *ev
		// Of this trial and the best so far, the worse one gives its
		// schedule back.
		worse := i
		if best < 0 || ev.Weighted < samples[best].Weighted || ev.Weighted == samples[best].Weighted && i < best {
			worse, best = best, i
		}
		if worse >= 0 {
			trialSchedules.Put(samples[worse].Schedule)
			samples[worse].Schedule = nil
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	st := &StretchStats{
		Samples:      samples,
		BestWeighted: math.Inf(1),
		BestTotal:    math.Inf(1),
	}
	for _, ev := range samples {
		st.AvgWeighted += ev.Weighted
		st.AvgTotal += ev.Total
		if ev.Weighted < st.BestWeighted {
			st.BestWeighted = ev.Weighted
			st.BestLambda = ev.Lambda
		}
		if ev.Total < st.BestTotal {
			st.BestTotal = ev.Total
			st.BestTotalLmbda = ev.Lambda
		}
	}
	st.AvgWeighted /= float64(k)
	st.AvgTotal /= float64(k)
	return st, nil
}

// Result bundles a full pipeline run on one instance.
type Result struct {
	Mode       coflow.Model
	LowerBound float64   // LP objective Σ w_j C*_j
	CStar      []float64 // per-coflow LP completion variables
	Heuristic  *Evaluated
	Stretch    *StretchStats // nil if trials == 0 or grid non-uniform
	Iterations int           // simplex iterations for the LP solve
	// Basis is the LP's exported optimal basis (nil when not
	// exportable); feed it to Options.WarmBasis for an LP of the same
	// shape, such as the same instance with perturbed demands.
	Basis *lp.Basis
	// WarmStart reports what became of Options.WarmBasis, or of the
	// single path model's greedy seed when no basis was supplied:
	// accepted, or the validation check that rejected it (WarmNone for
	// a free or multi path LP solved without a basis).
	WarmStart simplex.WarmOutcome
}

// Run executes the complete pipeline: solve the LP, evaluate the λ=1
// heuristic, and (on uniform grids) run opt.Trials randomized Stretch
// roundings on the worker pool.
func Run(ctx context.Context, inst *coflow.Instance, mode coflow.Model, opt Options) (*Result, error) {
	sol, err := SolveLP(ctx, inst, mode, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Mode:       mode,
		LowerBound: sol.LowerBound,
		CStar:      sol.CStar,
		Iterations: sol.Iterations,
		Basis:      sol.Basis,
		WarmStart:  sol.WarmStart,
	}
	if res.Heuristic, err = Heuristic(sol, opt); err != nil {
		return nil, err
	}
	if opt.Trials > 0 && opt.Grid.IsUniform() {
		if res.Stretch, err = StretchTrials(ctx, sol, opt.Trials, opt); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ErrHorizonTooSmall marks a schedule that left demand unshipped
// because its slot budget ran out; RetryableLP counts it as cured by a
// longer horizon.
var ErrHorizonTooSmall = errors.New("horizon too small")

// RetryableLP reports whether err is a failure cured by a longer time
// horizon: an LP that is infeasible (horizon too short for the demands)
// or over its iteration budget, a flow released after the grid's last
// slot starts, or ErrHorizonTooSmall.
func RetryableLP(err error) bool {
	var se *model.StatusError
	var re *model.ReleaseError
	return errors.Is(err, ErrHorizonTooSmall) || errors.As(err, &re) || errors.As(err, &se) &&
		(se.Status == simplex.Infeasible || se.Status == simplex.IterLimit)
}

// Grow is the horizon-growth rule of the interval LPs and the priority
// fill baselines: it calls try at h, then at 2h, 4h and 8h while the
// error is RetryableLP, and returns the first success or the last
// error. RunAdaptive's uniform grid ladder is separate.
func Grow[T any](h float64, try func(h float64) (T, error)) (T, error) {
	r, err := try(h)
	for k := 2.0; k <= 8 && RetryableLP(err); k *= 2 {
		r, err = try(k * h)
	}
	return r, err
}

// RunAdaptive runs the pipeline on a uniform grid sized by
// DefaultGrid, doubling the slot count (up to 4× maxSlots) when the
// horizon proves too short for the instance's demands. The engine's
// LP schedulers run through it.
func RunAdaptive(ctx context.Context, inst *coflow.Instance, mode coflow.Model, maxSlots int, opt Options) (*Result, timegrid.Grid, error) {
	grid := DefaultGrid(inst, mode, maxSlots)
	slots := grid.NumSlots()
	// A horizon below the certified makespan lower bound is infeasible
	// without solving: skip those grid sizes instead of burning tens of
	// thousands of simplex pivots on a doomed phase 1. The last allowed
	// size always solves, so a genuinely unschedulable instance still
	// reports its infeasibility through the LP.
	lower := inst.HorizonLowerBound(mode)
	for {
		if float64(slots) < lower-1e-9 && slots < 4*maxSlots {
			opt.Obs.Counter("core_grid_retries_total").Inc()
			opt.Obs.Counter("core_grid_preskips_total").Inc()
			slots *= 2
			continue
		}
		grid = timegrid.Uniform(slots)
		opt.Grid = grid
		res, err := Run(ctx, inst, mode, opt)
		if err == nil {
			return res, grid, nil
		}
		if RetryableLP(err) && slots < 4*maxSlots {
			opt.Obs.Counter("core_grid_retries_total").Inc()
			slots *= 2
			continue
		}
		return nil, grid, err
	}
}

// DefaultGrid returns a uniform grid sized from the instance's horizon
// upper bound, capped at maxSlots (the LP grows linearly in the slot
// count, so the cap bounds solver work; instances that genuinely need
// more slots are rejected at build time by the release-time check).
func DefaultGrid(inst *coflow.Instance, mode coflow.Model, maxSlots int) timegrid.Grid {
	h := int(math.Ceil(inst.HorizonUpperBound(mode))) + 1
	if h > maxSlots {
		h = maxSlots
	}
	// The cap must never cut the grid below the release horizon: the
	// last-released flow still needs slots to run in.
	if minH := int(math.Ceil(inst.MaxRelease())) + 2; h < minH {
		h = minH
	}
	if h < 1 {
		h = 1
	}
	return timegrid.Uniform(h)
}
