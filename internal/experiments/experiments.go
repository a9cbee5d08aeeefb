// Package experiments regenerates the paper's evaluation (Section 6):
// one harness per figure, each producing the same data series the
// corresponding figure plots. Instances are synthetic stand-ins for
// the paper's workloads (see internal/workload), sizes are scaled to
// what the from-scratch LP solver handles on a laptop, and all results
// are in slot units (the paper plots seconds with 50-second slots; the
// shape of the comparison is unit-invariant).
//
// Each harness fans its independent cells (one per workload, or per ε
// value) out over a bounded worker pool (Config.Workers), and the
// Stretch trials inside each cell share the same bound. Tables are
// identical at any worker count: cells derive their seeds from
// Config.Seed, and rows are collected positionally. Instances come
// from spec.Spec cells, the engine schedulers run as cells through the
// spec front door, and the interval LPs of Figures 8–10 grow their
// horizon under core.Grow.
//
// Figure index:
//
//	Figure 6  — free path, SWAN, weighted: LP bound / heuristic(λ=1) /
//	            Best λ / Average λ, per workload
//	Figure 7  — as Figure 6 on G-Scale
//	Figure 8  — free path, SWAN, FB workload: geometric-interval ε
//	            sweep of LP bound and heuristic
//	Figure 9  — single path, SWAN: time-indexed LP + heuristic vs
//	            time-interval LP (ε=0.2) + heuristic vs Jahanjou et al.
//	            vs the Sincronia-style bottleneck greedy
//	Figure 10 — as Figure 9 on G-Scale
//	Figure 11 — free path, SWAN, unit weights: LP / heuristic / Best λ /
//	            Average λ / Terra (total completion time)
//	Figure 12 — as Figure 11 on G-Scale
//	Figure O1 — online load sweep (internal/sim): arrival-rate ×
//	            workload cells on SWAN, avg per-coflow slowdown of each
//	            online policy vs the clairvoyant offline greedy
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/baselines"
	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/timegrid"
	"repro/internal/workload"
)

// Config scales the experiments. Zero fields take Default values.
type Config struct {
	// SingleCoflows is the coflow count for single path figures (9, 10).
	SingleCoflows int
	// FreeCoflows is the coflow count for free path figures on SWAN
	// (6, 8, 11); G-Scale free path figures (7, 12) use half, the
	// instance size their tables and goldens were recorded at.
	FreeCoflows int
	// MaxSlots caps the uniform grid length.
	MaxSlots int
	// Trials is the number of λ samples for Best/Average λ (paper: 20).
	Trials int
	// Seed drives all randomness.
	Seed int64
	// MeanInterarrival is the release process mean gap in slots.
	MeanInterarrival float64
	// EpsSweep lists the ε values for Figure 8.
	EpsSweep []float64
	// Loads lists the coflow arrival rates (coflows per slot) for the
	// online load sweep (Figure O1).
	Loads []float64
	// Workers bounds the goroutines used to fan instances and Stretch
	// trials out (≤ 0 = GOMAXPROCS). Figure data is identical at any
	// worker count; only wall-clock time changes.
	Workers int
	// Logf, when non-nil, receives progress lines. It may be called
	// from multiple goroutines; calls are serialized by the harness.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives the telemetry of every figure cell
	// and interval LP (simplex counters, engine timings, …). The
	// Jahanjou and Sincronia baselines of Figures 9 and 10 take no
	// registry and go unrecorded. Tables are bit-identical with or
	// without it.
	Obs *obs.Registry
}

// Default returns the laptop-scale configuration used by
// cmd/coflowsim. The paper ran 200 jobs per workload on Gurobi; these
// sizes keep every figure under a few minutes with the built-in
// simplex while preserving the qualitative comparisons.
func Default() Config {
	return Config{
		SingleCoflows:    24,
		FreeCoflows:      8,
		MaxSlots:         36,
		Trials:           20,
		Seed:             2019,
		MeanInterarrival: 1.5,
		EpsSweep:         []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		Loads:            []float64{0.25, 0.5, 1.0, 2.0},
	}
}

// Small returns a quick configuration for tests and benchmarks.
func Small() Config {
	c := Default()
	c.SingleCoflows = 6
	c.FreeCoflows = 3
	c.MaxSlots = 16
	c.Trials = 5
	c.MeanInterarrival = 1
	c.EpsSweep = []float64{0.2, 0.5436, 1.0}
	c.Loads = []float64{1.0}
	return c
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.SingleCoflows == 0 {
		c.SingleCoflows = d.SingleCoflows
	}
	if c.FreeCoflows == 0 {
		c.FreeCoflows = d.FreeCoflows
	}
	if c.MaxSlots == 0 {
		c.MaxSlots = d.MaxSlots
	}
	if c.Trials == 0 {
		c.Trials = d.Trials
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.MeanInterarrival == 0 {
		c.MeanInterarrival = d.MeanInterarrival
	}
	if len(c.EpsSweep) == 0 {
		c.EpsSweep = d.EpsSweep
	}
	if len(c.Loads) == 0 {
		c.Loads = d.Loads
	}
	return c
}

// logMu serializes progress lines from concurrent figure cells so
// interleaved output stays line-atomic.
var logMu sync.Mutex

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		logMu.Lock()
		defer logMu.Unlock()
		c.Logf(format, args...)
	}
}

// Row is one bar group / x-position of a figure.
type Row struct {
	Label  string
	Values map[string]float64
}

// FigureResult is a regenerated figure as a table.
type FigureResult struct {
	Name   string
	Series []string
	Rows   []Row
}

// padLeft right-aligns s in a cell of `width` visible characters.
// fmt's %*s pads by bytes, which under-pads any header containing a
// multi-byte rune (the figure series use 'Σ', 'λ', 'ε').
func padLeft(s string, width int) string {
	if n := utf8.RuneCountInString(s); n < width {
		return strings.Repeat(" ", width-n) + s
	}
	return s
}

// padRight left-aligns s in a cell of `width` visible characters.
func padRight(s string, width int) string {
	if n := utf8.RuneCountInString(s); n < width {
		return s + strings.Repeat(" ", width-n)
	}
	return s
}

// Render writes an aligned text table.
func (r *FigureResult) Render(w io.Writer) error {
	width := 12
	for _, s := range r.Series {
		if n := utf8.RuneCountInString(s) + 2; n > width {
			width = n
		}
	}
	label := 12
	for _, row := range r.Rows {
		if n := utf8.RuneCountInString(row.Label) + 2; n > label {
			label = n
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n%s\n", r.Name, strings.Repeat("=", utf8.RuneCountInString(r.Name))); err != nil {
		return err
	}
	fmt.Fprint(w, padRight("", label))
	for _, s := range r.Series {
		fmt.Fprint(w, padLeft(s, width))
	}
	fmt.Fprintln(w)
	// Pick one format per column: counts print as integers, small
	// magnitudes (ratios like the online slowdown columns) get more
	// precision than big objectives, and no column mixes formats.
	format := make(map[string]string, len(r.Series))
	for _, s := range r.Series {
		integral, small := true, true
		for _, row := range r.Rows {
			v, ok := row.Values[s]
			if !ok || math.IsNaN(v) {
				continue
			}
			if v != math.Trunc(v) {
				integral = false
			}
			if math.Abs(v) >= 10 {
				small = false
			}
		}
		switch {
		case integral:
			format[s] = "%.0f"
		case small:
			format[s] = "%.3f"
		default:
			format[s] = "%.1f"
		}
	}
	for _, row := range r.Rows {
		fmt.Fprint(w, padRight(row.Label, label))
		for _, s := range r.Series {
			v, ok := row.Values[s]
			if !ok || math.IsNaN(v) {
				fmt.Fprint(w, padLeft("-", width))
				continue
			}
			fmt.Fprint(w, padLeft(fmt.Sprintf(format[s], v), width))
		}
		fmt.Fprintln(w)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV.
func (r *FigureResult) RenderCSV(w io.Writer) error {
	cols := append([]string{"label"}, r.Series...)
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{row.Label}
		for _, s := range r.Series {
			if v, ok := row.Values[s]; ok && !math.IsNaN(v) {
				rec = append(rec, fmt.Sprintf("%.4f", v))
			} else {
				rec = append(rec, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(rec, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Series names shared across figures (matching the paper's legends).
const (
	SeriesLP           = "LP(lower bound)"
	SeriesHeuristic    = "Heuristic(λ=1.0)"
	SeriesBestLambda   = "Best λ"
	SeriesAvgLambda    = "Average λ"
	SeriesIntervalLP   = "Interval LP(ε=0.2)"
	SeriesIntervalHeur = "Interval heuristic"
	SeriesJahanjou     = "Jahanjou et al."
	SeriesTerra        = "Terra"
	SeriesSincronia    = "Sincronia greedy"
)

// specKind is the internal/spec workload-kind name of a
// workload.Kind; ParseKind accepts the lowercased display names.
func specKind(k workload.Kind) string { return strings.ToLower(k.String()) }

// figureCell is the spec of a figure cell on one of the paper's
// workloads: n coflows of the given kind on topo. The caller sets the
// model and the scheduler.
func (c Config) figureCell(topo string, kind workload.Kind, n int) spec.Spec {
	return spec.Spec{Topology: topo, Workload: &spec.Workload{
		Kind:             specKind(kind),
		Coflows:          n,
		Seed:             stats.SubSeed(c.Seed, uint64(kind)*31+7),
		MeanInterarrival: c.MeanInterarrival,
	}}
}

// cells runs the n figure cells at(i) over internal/spec's streaming
// executor, recording into c.Obs, and returns their reports by index.
// A failed cell fails the figure, its error prefixed with name(i).
func (c Config) cells(ctx context.Context, n int, at func(i int) spec.Spec, name func(i int) string) ([]*spec.RunReport, error) {
	exec := func(ctx context.Context, i int, s spec.Spec) *spec.Cell {
		return spec.RunCellWith(ctx, i, s, c.Obs)
	}
	reports := make([]*spec.RunReport, n)
	for i, cell := range spec.StreamWith(ctx, n, c.Workers, at, exec) {
		if cell.Err != nil {
			return nil, fmt.Errorf("%s: %w", name(i), cell.Err)
		}
		reports[i] = cell.Report
	}
	return reports, ctx.Err()
}

// intervalLP solves the geometric-interval LP with growth rate eps,
// starting at horizon under core.Grow, and rounds it with the λ=1
// heuristic.
func (c Config) intervalLP(ctx context.Context, in *coflow.Instance, mode coflow.Model, horizon, eps float64) (*model.Solution, *core.Evaluated, error) {
	var grid timegrid.Grid
	sol, err := core.Grow(horizon, func(h float64) (*model.Solution, error) {
		grid = timegrid.Geometric(h, eps)
		return core.SolveLP(ctx, in, mode, core.Options{Grid: grid, Obs: c.Obs})
	})
	if err != nil {
		return nil, nil, err
	}
	heur, err := core.Heuristic(sol, core.Options{Grid: grid})
	return sol, heur, err
}

// freePath runs Figures 6, 7, 11 and 12 in the free path model: per
// workload, one stretch cell (LP bound, λ=1 heuristic, best and average
// λ) and, for the unit-weight figures, a terra cell on the same
// instance. Weighted figures report Σ w_j C_j, unit-weight ones total
// completion time. Cells stream over internal/spec's executor.
func freePath(ctx context.Context, c Config, topo string, unit bool, figure string) (*FigureResult, error) {
	c = c.withDefaults()
	n := c.FreeCoflows
	if topo == "gscale" {
		n = (n + 1) / 2
	}
	res := &FigureResult{
		Name:   figure,
		Series: []string{SeriesLP, SeriesHeuristic, SeriesBestLambda, SeriesAvgLambda},
	}
	scheds, seedBase := []string{engine.NameStretch}, uint64(100)
	if unit {
		res.Series = append(res.Series, SeriesTerra)
		scheds, seedBase = append(scheds, engine.NameTerra), 200
	}
	ns := len(scheds)
	at := func(i int) spec.Spec {
		kind := workload.Kinds[i/ns]
		if i%ns == 0 {
			c.logf("%s: workload %v (n=%d)", figure, kind, n)
		}
		s := c.figureCell(topo, kind, n)
		s.Model, s.Scheduler = spec.ModelFree, scheds[i%ns]
		if unit {
			s.Workload.WeightMin, s.Workload.WeightMax = 1, 1
		}
		s.Options = spec.Options{
			MaxSlots: c.MaxSlots,
			Trials:   c.Trials,
			Seed:     stats.SubSeed(c.Seed, uint64(kind)+seedBase),
			Workers:  c.Workers,
		}
		return s
	}
	reports, err := c.cells(ctx, len(workload.Kinds)*ns, at, func(i int) string {
		return fmt.Sprintf("%s %v (%s)", figure, workload.Kinds[i/ns], scheds[i%ns])
	})
	if err != nil {
		return nil, err
	}
	for k, kind := range workload.Kinds {
		run := reports[k*ns].Engine.Core
		v := map[string]float64{
			SeriesLP:         run.LowerBound,
			SeriesHeuristic:  run.Heuristic.Weighted,
			SeriesBestLambda: run.Stretch.BestWeighted,
			SeriesAvgLambda:  run.Stretch.AvgWeighted,
		}
		if unit {
			lpTotal := 0.0
			for _, cs := range run.CStar {
				lpTotal += cs
			}
			v = map[string]float64{
				SeriesLP:         lpTotal,
				SeriesHeuristic:  run.Heuristic.Total,
				SeriesBestLambda: run.Stretch.BestTotal,
				SeriesAvgLambda:  run.Stretch.AvgTotal,
				SeriesTerra:      reports[k*ns+1].Total,
			}
		}
		res.Rows = append(res.Rows, Row{Label: kind.String(), Values: v})
	}
	return res, nil
}

// Figure6 regenerates Figure 6 (free path, SWAN, weighted).
func Figure6(ctx context.Context, c Config) (*FigureResult, error) {
	return freePath(ctx, c, "swan", false, "Figure 6: free path on SWAN (weighted completion, slot units)")
}

// Figure7 regenerates Figure 7 (free path, G-Scale, weighted).
func Figure7(ctx context.Context, c Config) (*FigureResult, error) {
	return freePath(ctx, c, "gscale", false, "Figure 7: free path on G-Scale (weighted completion, slot units)")
}

// Figure8 regenerates Figure 8: the geometric-interval ε sweep on the
// FB workload over SWAN in the free path model. Each ε cell solves at
// the instance's horizon bound (capped at 4·MaxSlots) under core.Grow.
func Figure8(ctx context.Context, c Config) (*FigureResult, error) {
	c = c.withDefaults()
	cell := c.figureCell("swan", workload.FB, c.FreeCoflows)
	// The scheduler never runs; Materialize needs one to normalize.
	cell.Model, cell.Scheduler = spec.ModelFree, engine.NameStretch
	in, err := cell.Materialize()
	if err != nil {
		return nil, err
	}
	horizon := min(in.HorizonUpperBound(coflow.FreePath)+1, float64(4*c.MaxSlots))
	res := &FigureResult{
		Name:   "Figure 8: free path on SWAN, FB workload — effect of interval ε",
		Series: []string{"Interval LP(lower bound)", SeriesHeuristic},
	}
	eps := append([]float64(nil), c.EpsSweep...)
	sort.Float64s(eps)
	rows, err := pool.Map(ctx, len(eps), c.Workers, func(i int) (Row, error) {
		e := eps[i]
		c.logf("Figure 8: ε = %.4g", e)
		sol, heur, err := c.intervalLP(ctx, in, coflow.FreePath, horizon, e)
		if err != nil {
			return Row{}, fmt.Errorf("figure 8 ε=%g: %w", e, err)
		}
		return Row{
			Label: fmt.Sprintf("ε=%.4g", e),
			Values: map[string]float64{
				"Interval LP(lower bound)": sol.LowerBound,
				SeriesHeuristic:            heur.Weighted,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// singlePath runs Figures 9 and 10: per workload, the time-indexed LP
// and heuristic, the ε=0.2 time-interval LP and heuristic, and the
// Jahanjou et al. baseline (ε=0.5436). The LP + heuristic series run
// as one declarative spec cell per workload; the interval-LP and
// baseline series reuse that cell's adaptive horizon (reported via
// the engine's grid-slots metric), so they cannot be independent
// sweep cells of their own.
func singlePath(ctx context.Context, c Config, topo, figure string) (*FigureResult, error) {
	c = c.withDefaults()
	n := c.SingleCoflows
	if topo == "gscale" {
		n = (n*2 + 2) / 3
	}
	res := &FigureResult{
		Name: figure,
		Series: []string{SeriesLP, SeriesHeuristic, SeriesIntervalLP,
			SeriesIntervalHeur, SeriesJahanjou, SeriesSincronia},
	}
	rows, err := pool.Map(ctx, len(workload.Kinds), c.Workers, func(i int) (Row, error) {
		kind := workload.Kinds[i]
		c.logf("%s: workload %v (n=%d)", figure, kind, n)
		cell := c.figureCell(topo, kind, n)
		cell.Model, cell.Scheduler = spec.ModelSingle, engine.NameHeuristic
		cell.Options.MaxSlots = c.MaxSlots
		// Materialize the cell's instance once and run the spec cell on
		// it inline: the heuristic series and the interval-LP/baseline
		// series below then share one instance from one derivation, by
		// construction.
		in, err := cell.Materialize()
		if err != nil {
			return Row{}, err
		}
		cell.Instance, cell.Topology, cell.Workload = in, "", nil
		rep, err := spec.RunWith(ctx, cell, c.Obs)
		if err != nil {
			return Row{}, fmt.Errorf("%s %v (uniform): %w", figure, kind, err)
		}
		run := rep.Engine.Core

		// Time-interval LP (ε = 0.2) + its heuristic. The starting
		// horizon is the uniform cell's final (adaptive) grid, reported
		// by the heuristic scheduler as grid-slots; a missing or
		// degenerate value must fail loudly, not seed a 0 horizon.
		horizon, ok := rep.Extra["grid-slots"]
		if !ok || horizon < 1 {
			return Row{}, fmt.Errorf("%s %v: heuristic cell reported no usable grid-slots (%v)", figure, kind, horizon)
		}
		solInt, heurInt, err := c.intervalLP(ctx, in, coflow.SinglePath, horizon, 0.2)
		if err != nil {
			return Row{}, fmt.Errorf("%s %v (interval): %w", figure, kind, err)
		}

		// Jahanjou et al. with the ratio-optimizing ε.
		jr, err := baselines.JahanjouAdaptive(ctx, in, horizon, baselines.JahanjouEpsilon, 0.5)
		if err != nil {
			return Row{}, fmt.Errorf("%s %v (jahanjou): %w", figure, kind, err)
		}

		// Sincronia-style bottleneck greedy (LP-free ordering).
		sg, err := baselines.SincroniaAdaptive(in, horizon)
		if err != nil {
			return Row{}, fmt.Errorf("%s %v (sincronia): %w", figure, kind, err)
		}

		return Row{
			Label: kind.String(),
			Values: map[string]float64{
				SeriesLP:           run.LowerBound,
				SeriesHeuristic:    run.Heuristic.Weighted,
				SeriesIntervalLP:   solInt.LowerBound,
				SeriesIntervalHeur: heurInt.Weighted,
				SeriesJahanjou:     jr.Weighted,
				SeriesSincronia:    sg.WeightedCompletion(),
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Figure9 regenerates Figure 9 (single path, SWAN).
func Figure9(ctx context.Context, c Config) (*FigureResult, error) {
	return singlePath(ctx, c, "swan", "Figure 9: single path on SWAN (weighted completion, slot units)")
}

// Figure10 regenerates Figure 10 (single path, G-Scale).
func Figure10(ctx context.Context, c Config) (*FigureResult, error) {
	return singlePath(ctx, c, "gscale", "Figure 10: single path on G-Scale (weighted completion, slot units)")
}

// Figure11 regenerates Figure 11 (free path, SWAN, unit weights, vs Terra).
func Figure11(ctx context.Context, c Config) (*FigureResult, error) {
	return freePath(ctx, c, "swan", true, "Figure 11: free path on SWAN (total completion, unit weights, slot units)")
}

// Figure12 regenerates Figure 12 (free path, G-Scale, unit weights, vs Terra).
func Figure12(ctx context.Context, c Config) (*FigureResult, error) {
	return freePath(ctx, c, "gscale", true, "Figure 12: free path on G-Scale (total completion, unit weights, slot units)")
}

// Figures maps figure numbers to their harnesses. Every harness
// takes a context and stops between cells when it is cancelled.
var Figures = map[int]func(context.Context, Config) (*FigureResult, error){
	6: Figure6, 7: Figure7, 8: Figure8, 9: Figure9,
	10: Figure10, 11: Figure11, 12: Figure12,
}
