package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// span is one timed call into a layer. Spans of one op share Op; a
// span's Parent is the span it was called from (-1 for the op itself).
// Aggregated spans (sim.allocate, tens of thousands of calls per op)
// are one span per op: Start is the first call, End the last, Busy the
// summed duration of all Calls.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Busy   float64 `json:"busy_ms"`
	Calls  int     `json:"calls"`
}

// tracer records spans in memory for one run. It is used from a single
// goroutine: library ops run with one worker and the traced stretch
// scheduler runs its trials in order.
type tracer struct {
	t0    time.Time
	op    int
	first int // index of the current op's first span
	spans []span
	stack []open
	agg   map[string]int // aggregated span ids of the current op
}

type open struct {
	id    int
	start float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// beginOp starts op i's root span.
func (t *tracer) beginOp(i int) {
	t.op, t.first, t.agg = i, len(t.spans), map[string]int{}
	t.push(t.add("op"))
}

// endOp closes the root span and returns the op's layers: busy (and
// self) milliseconds and call counts by span name.
func (t *tracer) endOp() map[string]*layerTime {
	t.pop()
	child := map[int]float64{}
	for _, s := range t.spans[t.first:] {
		if s.Parent >= 0 {
			child[s.Parent] += s.Busy
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans[t.first:] {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Busy += s.Busy
		lt.Self += s.Busy - child[s.ID]
		lt.Calls += s.Calls
	}
	return out
}

// layerTime is one layer's share of an op.
type layerTime struct {
	Busy, Self float64
	Calls      int
}

func (t *tracer) add(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: -1})
	return len(t.spans) - 1
}

func (t *tracer) push(id int) {
	now := t.now()
	if s := &t.spans[id]; s.Start < 0 {
		s.Start = now
	}
	t.stack = append(t.stack, open{id, now})
}

func (t *tracer) pop() {
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	now := t.now()
	s := &t.spans[o.id]
	s.End = now
	s.Busy += now - o.start
	s.Calls++
}

// span times f as one call into the named layer.
func (t *tracer) span(name string, f func() error) error {
	t.push(t.add(name))
	defer t.pop()
	return f()
}

// aggregate times f as one more call of the op's aggregated span name.
func (t *tracer) aggregate(name string, f func() error) error {
	id, ok := t.agg[name]
	if !ok {
		id = t.add(name)
		t.agg[name] = id
	}
	t.push(id)
	defer t.pop()
	return f()
}

// workCounts are an op's deterministic work counters by per-layer
// metric name (plus the numerators and denominators of the layer
// ratios), read from the obs series the layers already record.
type workCounts map[string]float64

// workSeries maps the obs series, as /metrics exposes them, to the
// counters they feed. The traced library run reads them from private
// registries, the service from coflowd's /metrics.
var workSeries = map[string]string{
	"simplex_solves_total":                           "simplex.solves",
	"simplex_pivots_total":                           "simplex.pivots",
	"simplex_refactorizations_total":                 "simplex.refactorizations",
	"simplex_perturbations_total":                    "simplex.perturbations",
	"simplex_repairs_total":                          "simplex.repairs",
	`simplex_solve_retries_total{reason="singular"}`: "simplex.retries",
	"simplex_devex_prefilter_tested_total":           "simplex.devex_tested",
	"simplex_devex_prefilter_passed_total":           "simplex.devex_passed",
	`simplex_warm_start_total{outcome="accepted"}`:   "simplex.warm_accepted",
	"lu_factorizations_total":                        "lu.factorizations",
	"lu_fill_nnz":                                    "lu.fill_nnz",
	"core_grid_retries_total":                        "core.grid_retries",
	"core_grid_preskips_total":                       "core.grid_preskips",
	"sim_alloc_calls_total":                          "sim.alloc_calls",
	"sim_loop_events_total":                          "sim.loop_events",
	"sim_replans_total":                              "sim.replans",
	"sim_las_splice_size_sum":                        "sim.las_splice_sum",
	"sim_las_splice_size_count":                      "sim.las_splice_count",
	"sim_fair_freeze_rounds_sum":                     "sim.fair_freeze_sum",
	"sim_fair_freeze_rounds_count":                   "sim.fair_freeze_count",
}

// add folds series values (or deltas) into the counts.
func (w workCounts) add(series map[string]float64) {
	for name, v := range series {
		if key, ok := workSeries[name]; ok {
			w[key] += v
		}
		if strings.HasPrefix(name, "simplex_warm_start_total{") {
			w["simplex.warm_attempts"] += v
		}
	}
	w["sim.check_incremental_ms"] += series["sim_check_incremental_seconds_total"] * 1e3
}

// addRegistry folds everything a registry recorded into the counts.
func (w workCounts) addRegistry(reg *obs.Registry) {
	var b bytes.Buffer
	reg.WritePrometheus(&b) // writes to a bytes.Buffer do not fail
	series, err := parseMetrics(b.Bytes())
	if err != nil {
		panic(err) // the registry's own exposition always parses
	}
	w.add(series)
}

// traceState travels in the context of a traced op, so the traced
// wrappers the engine and the simulator call back into find it without
// package state.
type traceState struct {
	tr *tracer
	wc workCounts
	// regs are the op's registries, folded into wc once the op's spans
	// are closed so that reading them is not timed as a layer.
	regs []*obs.Registry
}

type traceKey struct{}

func withTrace(ctx context.Context, ts *traceState) context.Context {
	return context.WithValue(ctx, traceKey{}, ts)
}

func traceFrom(ctx context.Context) (*traceState, error) {
	ts, ok := ctx.Value(traceKey{}).(*traceState)
	if !ok {
		return nil, fmt.Errorf("coflowbench: traced wrapper called outside a traced op")
	}
	return ts, nil
}

// The traced wrappers are registered by this command only: registering
// them in a package the root module imports would change sim.Names()
// and engine.Names(), and with them the conformance matrix, for every
// binary.
const (
	tracedStretchName = "traced-stretch"
	tracedPrefix      = "traced:"
)

var registerOnce sync.Once

// registerTraced adds the traced-stretch engine scheduler and a
// traced:<policy> wrapper for every policy the library workloads use.
func registerTraced() {
	registerOnce.Do(func() {
		engine.Register(tracedStretch{})
		for _, p := range append(slices.Clone(backlogPolicies), "epoch:"+tracedStretchName) {
			sim.Register(tracedPrefix+p, func(opt sim.Options) (sim.Policy, error) {
				inner, err := sim.New(p, opt)
				if err != nil {
					return nil, err
				}
				return &tracedPolicy{inner}, nil
			})
		}
	})
}

// tracedPolicyName maps a workload policy to its traced wrapper;
// epoch:stretch re-plans with the traced stretch scheduler.
func tracedPolicyName(p string) string {
	if p == "epoch:stretch" {
		p = "epoch:" + tracedStretchName
	}
	return tracedPrefix + p
}

// tracedPolicy times every Allocate call into one aggregated span.
type tracedPolicy struct{ inner sim.Policy }

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Allocate(ctx context.Context, st *sim.State, out *sim.Alloc) error {
	ts, err := traceFrom(ctx)
	if err != nil {
		return err
	}
	return ts.tr.aggregate("sim.allocate", func() error { return p.inner.Allocate(ctx, st, out) })
}

// tracedStretch is the stretch engine scheduler with its layers called
// one by one: it replays core.RunAdaptive's grid loop and core.Run's
// pipeline (model build, warm-capable solve, λ=1 heuristic, then each
// Stretch trial's rounding, compaction and verification in trial
// order), so its result is bit-identical to the stretch scheduler's.
type tracedStretch struct{}

func (tracedStretch) Name() string                 { return tracedStretchName }
func (tracedStretch) Supports(m coflow.Model) bool { return m == coflow.SinglePath }

func (tracedStretch) Schedule(ctx context.Context, inst *coflow.Instance, opt engine.Options) (*engine.Result, error) {
	ts, err := traceFrom(ctx)
	if err != nil {
		return nil, err
	}
	var res *engine.Result
	err = ts.tr.span("engine.schedule", func() error {
		copt := core.Options{
			DisableCompaction: opt.DisableCompaction,
			Trials:            opt.Trials,
			Seed:              opt.Seed,
			Workers:           opt.Workers,
			WarmBasis:         opt.WarmBasis,
		}
		slots := core.DefaultGrid(inst, opt.Mode, opt.MaxSlots).NumSlots()
		lower := inst.HorizonLowerBound(opt.Mode)
		for {
			if float64(slots) < lower-1e-9 && slots < 4*opt.MaxSlots {
				ts.wc["core.grid_retries"]++
				ts.wc["core.grid_preskips"]++
				slots *= 2
				continue
			}
			copt.Grid = timegrid.Uniform(slots)
			cr, err := runCoreTraced(ctx, ts, inst, copt)
			if err == nil {
				res = stretchResult(cr, slots)
				return nil
			}
			if core.RetryableLP(err) && slots < 4*opt.MaxSlots {
				ts.wc["core.grid_retries"]++
				slots *= 2
				continue
			}
			return err
		}
	})
	return res, err
}

// runCoreTraced is core.Run in the single path model, one span per
// layer call.
func runCoreTraced(ctx context.Context, ts *traceState, inst *coflow.Instance, opt core.Options) (*core.Result, error) {
	tr := ts.tr
	var l *model.LP
	if err := tr.span("model.build", func() (err error) {
		l, err = model.BuildSinglePath(inst, opt.Grid)
		return err
	}); err != nil {
		return nil, err
	}
	ts.wc["model.rows"] += float64(l.Model.NumConstrs())
	ts.wc["model.nnz"] += float64(l.Model.NumNonzeros())

	reg := obs.NewRegistry()
	var sol *model.Solution
	err := tr.span("simplex.solve", func() (err error) {
		sol, err = l.SolveWarm(ctx, simplex.Options{Obs: reg}, opt.WarmBasis)
		return err
	})
	ts.regs = append(ts.regs, reg)
	if err != nil {
		return nil, err
	}
	cr := &core.Result{
		Mode:       coflow.SinglePath,
		LowerBound: sol.LowerBound,
		CStar:      sol.CStar,
		Iterations: sol.Iterations,
		Basis:      sol.Basis,
		WarmStart:  sol.WarmStart,
	}
	if err := tr.span("core.heuristic", func() (err error) {
		cr.Heuristic, err = core.Heuristic(sol, opt)
		return err
	}); err != nil {
		return nil, err
	}
	if opt.Trials <= 0 {
		return cr, nil
	}
	st := &core.StretchStats{BestWeighted: math.Inf(1), BestTotal: math.Inf(1)}
	for i := 0; i < opt.Trials; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lambda := core.TrialLambda(opt.Seed, i)
		var s *schedule.Schedule
		if err := tr.span("schedule.stretch", func() (err error) {
			s, err = schedule.Stretch(sol, lambda)
			return err
		}); err != nil {
			return nil, err
		}
		if !opt.DisableCompaction {
			tr.span("schedule.compact", func() error { s.Compact(); return nil })
		}
		if err := tr.span("schedule.verify", s.Verify); err != nil {
			return nil, fmt.Errorf("core: produced infeasible schedule: %w", err)
		}
		ev := core.Evaluated{Schedule: s, Completions: s.CompletionTimes(), Lambda: lambda}
		for j, c := range ev.Completions {
			ev.Weighted += s.Inst.Coflows[j].Weight * c
			ev.Total += c
		}
		st.Samples = append(st.Samples, ev)
		st.AvgWeighted += ev.Weighted
		st.AvgTotal += ev.Total
		if ev.Weighted < st.BestWeighted {
			st.BestWeighted, st.BestLambda = ev.Weighted, lambda
		}
		if ev.Total < st.BestTotal {
			st.BestTotal, st.BestTotalLmbda = ev.Total, lambda
		}
	}
	st.AvgWeighted /= float64(opt.Trials)
	st.AvgTotal /= float64(opt.Trials)
	cr.Stretch = st
	return cr, nil
}

// stretchResult is what the stretch engine scheduler reports for a
// pipeline run on a grid of the given size: the best of the heuristic
// and every rounding.
func stretchResult(cr *core.Result, slots int) *engine.Result {
	extra := map[string]float64{
		"simplex-iterations": float64(cr.Iterations),
		"grid-slots":         float64(slots),
	}
	if cr.WarmStart != simplex.WarmNone {
		extra["warm-start"] = float64(cr.WarmStart)
	}
	best := cr.Heuristic
	if st := cr.Stretch; st != nil {
		extra["best-lambda"] = st.BestLambda
		extra["avg-weighted"] = st.AvgWeighted
		extra["avg-total"] = st.AvgTotal
		for i := range st.Samples {
			if ev := &st.Samples[i]; ev.Weighted < best.Weighted {
				best = ev
			}
		}
	}
	return &engine.Result{
		Weighted:      best.Weighted,
		Total:         best.Total,
		Completions:   best.Completions,
		Schedule:      best.Schedule,
		LowerBound:    cr.LowerBound,
		HasLowerBound: true,
		Core:          cr,
		Extra:         extra,
	}
}
