package spec

import (
	"context"
	"fmt"
	"iter"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/pool"
)

// SweepSpec crosses a base Spec with axis lists into a grid of cells,
// one Spec per combination. Empty axes inherit the base's value, so a
// SweepSpec with no axes is a one-cell sweep of its base. The grid is
// never materialized: cells are decoded from their index on demand
// (mixed-radix over the axis lengths) and results stream back as they
// finish, so memory stays O(workers) at any grid size.
type SweepSpec struct {
	// Base is the cell template; axis values override its fields.
	Base Spec `json:"base"`
	// Schedulers and Policies are the algorithm axes. Both may be set:
	// the sweep then runs every scheduler and every policy per point
	// of the remaining axes. Each accepts "all" to mean the respective
	// registry.
	Schedulers []string `json:"schedulers,omitempty"`
	Policies   []string `json:"policies,omitempty"`
	// Models, Topologies, Workloads (kinds), Loads, and Seeds are the
	// instance axes. Seeds set both the workload seed and the
	// algorithm seed of their cells.
	Models     []string  `json:"models,omitempty"`
	Topologies []string  `json:"topologies,omitempty"`
	Workloads  []string  `json:"workloads,omitempty"`
	Loads      []float64 `json:"loads,omitempty"`
	Seeds      []int64   `json:"seeds,omitempty"`
	// Workers bounds concurrently running cells (≤ 0 = GOMAXPROCS).
	// Cell contents are deterministic in the cell spec at any worker
	// count; only completion order varies.
	Workers int `json:"workers,omitempty"`
}

// Cell is one streamed sweep result: the cell's index in the
// deterministic expansion order, the spec it ran, and its report or
// error. Per-cell errors don't abort the sweep — a 100k-cell grid
// should survive one infeasible corner — they stream back like
// results.
type Cell struct {
	Index  int        `json:"index"`
	Spec   Spec       `json:"spec"`
	Report *RunReport `json:"report,omitempty"`
	Error  string     `json:"error,omitempty"`
	// Err is Error as a live error for library callers.
	Err error `json:"-"`
}

// sweep is the validated, expansion-ready form of a SweepSpec.
type sweep struct {
	base  Spec
	algos []algo // scheduler/policy axis, flattened
	axes  []axis
}

type algo struct {
	name   string
	online bool
}

// axis is one expansion dimension: its length and a setter applying
// value k to a cell spec.
type axis struct {
	n   int
	set func(s *Spec, k int)
}

// compile validates the sweep's axes upfront — unknown scheduler,
// policy, model, workload, or topology names and non-finite loads
// fail here, before any cell runs, with the registry listings — and
// returns the expansion plan.
func (sw SweepSpec) compile() (*sweep, error) {
	c := &sweep{base: sw.Base}

	// Algorithm axis: explicit lists win over the base's fields.
	models := sw.Models
	if len(models) == 0 {
		m := sw.Base.Model
		if m == "" {
			m = ModelSingle
		}
		models = []string{m}
	}
	for _, m := range models {
		if _, err := ParseModel(m); err != nil {
			return nil, err
		}
	}
	scheds := sw.Schedulers
	pols := sw.Policies
	if len(scheds) == 0 && len(pols) == 0 {
		if sw.Base.Scheduler != "" {
			scheds = []string{sw.Base.Scheduler}
		}
		if sw.Base.Policy != "" {
			pols = []string{sw.Base.Policy}
		}
	}
	if len(scheds) == 1 && scheds[0] == "all" {
		// "all" is model-dependent, so it is only well-defined against
		// a single model; with a models axis the caller must spell the
		// schedulers out (or accept per-cell unsupported-model errors).
		if len(models) > 1 {
			return nil, fmt.Errorf("spec: sweep schedulers \"all\" is ambiguous with a models axis (%v); list the schedulers explicitly", models)
		}
		mode, err := ParseModel(models[0])
		if err != nil {
			return nil, err
		}
		if scheds, err = ResolveSchedulers("all", mode); err != nil {
			return nil, err
		}
	}
	if len(pols) == 1 && pols[0] == "all" {
		var err error
		if pols, err = ResolvePolicies("all"); err != nil {
			return nil, err
		}
	}
	for _, name := range scheds {
		// Existence check only; model support is checked per cell,
		// since the model may itself be an axis.
		if err := CheckSchedulerExists(name); err != nil {
			return nil, err
		}
		c.algos = append(c.algos, algo{name: name})
	}
	for _, name := range pols {
		if err := CheckPolicy(name); err != nil {
			return nil, err
		}
		c.algos = append(c.algos, algo{name: name, online: true})
	}
	if len(pols) > 0 {
		// Policies simulate the single path model, so a models axis
		// that leaves it would give every policy cell at a non-single
		// grid point the same single-path result under a misleading
		// label; reject the combination upfront.
		for _, m := range models {
			if len(sw.Models) > 0 && !strings.EqualFold(m, ModelSingle) {
				return nil, fmt.Errorf("spec: sweep policies %v simulate the single path model; a models axis with %q is ambiguous — split the sweep", pols, m)
			}
		}
	}
	if len(c.algos) == 0 {
		return nil, fmt.Errorf("spec: sweep has nothing to run: set schedulers, policies, or a base scheduler/policy")
	}

	// Instance axes, outermost first so cells sharing an instance are
	// adjacent in the expansion order.
	if len(sw.Topologies) > 0 {
		for _, t := range sw.Topologies {
			if _, err := ParseTopology(t); err != nil {
				return nil, err
			}
		}
		tops := sw.Topologies
		c.axes = append(c.axes, axis{len(tops), func(s *Spec, k int) { s.Topology = tops[k] }})
	}
	if len(sw.Workloads) > 0 {
		for _, w := range sw.Workloads {
			if _, err := ParseKind(w); err != nil {
				return nil, err
			}
		}
		kinds := sw.Workloads
		c.axes = append(c.axes, axis{len(kinds), func(s *Spec, k int) { s.ensureWorkload().Kind = kinds[k] }})
	}
	if len(sw.Loads) > 0 {
		for _, l := range sw.Loads {
			if !(l > 0) || math.IsInf(l, 0) {
				return nil, fmt.Errorf("spec: sweep load %g is not a positive finite rate", l)
			}
		}
		loads := sw.Loads
		c.axes = append(c.axes, axis{len(loads), func(s *Spec, k int) {
			w := s.ensureWorkload()
			w.Load = loads[k]
			w.MeanInterarrival = 0
		}})
	}
	if len(sw.Seeds) > 0 {
		seeds := sw.Seeds
		c.axes = append(c.axes, axis{len(seeds), func(s *Spec, k int) {
			s.ensureWorkload().Seed = seeds[k]
			s.Options.Seed = seeds[k]
		}})
	}
	if len(sw.Models) > 0 {
		ms := sw.Models
		c.axes = append(c.axes, axis{len(ms), func(s *Spec, k int) { s.Model = ms[k] }})
	}
	// Innermost: the algorithm, so every algorithm on one instance
	// point is adjacent.
	algos := c.algos
	c.axes = append(c.axes, axis{len(algos), func(s *Spec, k int) {
		a := algos[k]
		if a.online {
			s.Policy, s.Scheduler = a.name, ""
			s.Model = ModelSingle
		} else {
			s.Scheduler, s.Policy = a.name, ""
		}
	}})

	n := 1
	for _, ax := range c.axes {
		if n > 1<<30/ax.n {
			return nil, fmt.Errorf("spec: sweep expands past 2^30 cells")
		}
		n *= ax.n
	}
	return c, nil
}

// ensureWorkload returns the spec's workload, allocating an
// un-aliased copy so axis setters never mutate the base.
func (s *Spec) ensureWorkload() *Workload {
	if s.Workload == nil {
		s.Workload = &Workload{}
	}
	return s.Workload
}

// Cells validates the sweep and returns the cell count plus the
// index→Spec decoder, for executors that schedule cells themselves —
// coflowd routes every cell through its server-wide worker pool
// instead of Sweep's per-call one. The decoder is pure: cell i's Spec
// depends only on i.
func (sw SweepSpec) Cells() (int, func(i int) Spec, error) {
	c, err := sw.compile()
	if err != nil {
		return 0, nil, err
	}
	return c.count(), c.at, nil
}

func (c *sweep) count() int {
	n := 1
	for _, ax := range c.axes {
		n *= ax.n
	}
	return n
}

// at decodes cell i into its Spec by mixed-radix expansion over the
// axes: the first axis varies slowest, the algorithm axis fastest.
func (c *sweep) at(i int) Spec {
	s := c.base
	if s.Workload != nil {
		w := *s.Workload
		s.Workload = &w
	}
	stride := c.count()
	for _, ax := range c.axes {
		stride /= ax.n
		ax.set(&s, (i/stride)%ax.n)
	}
	return s
}

// testCellHook, when non-nil, observes every cell index as it starts
// executing; tests use it to prove sweeps expand lazily.
var testCellHook func(i int)

// Sweep validates sw, then streams its cells: each yielded Cell
// carries the cell's index, spec, and report (or per-cell error).
// Cells fan out over a bounded worker pool and arrive in completion
// order — consume the sequence without collecting it and memory stays
// O(workers) regardless of grid size. Breaking out of the range (or
// cancelling ctx) stops scheduling new cells and returns once
// in-flight ones drain. The returned count is the total the sequence
// would yield if fully consumed.
//
// The sequence is single-use. Axis validation happens before the
// first cell runs, so a typo in a 100k-cell sweep fails in
// microseconds, with the registry listing, not after an hour.
func Sweep(ctx context.Context, sw SweepSpec) (int, iter.Seq2[int, *Cell], error) {
	c, err := sw.compile()
	if err != nil {
		return 0, nil, err
	}
	n := c.count()
	seq := StreamWith(ctx, n, sw.Workers, c.at, RunCell)
	return n, seq, nil
}

// StreamWith runs exec on at(i) for every i in [0, n) over a bounded
// worker pool and yields each cell as it completes; exec must be safe
// for concurrent use. It is the executor under Sweep (exec RunCell),
// exported for callers with cells of their own: coflowd gates every
// cell on its server-wide worker pool, and the figure harnesses, whose
// per-cell specs follow a custom derivation (per-cell sub-seeds, say)
// that a cross-product SweepSpec cannot express, record every cell
// into one registry.
func StreamWith(ctx context.Context, n, workers int, at func(i int) Spec,
	exec func(ctx context.Context, i int, s Spec) *Cell) iter.Seq2[int, *Cell] {
	return func(yield func(int, *Cell) bool) {
		pool.Stream(ctx, n, workers, func(i int) *Cell {
			return exec(ctx, i, at(i))
		}, func(i int, cell *Cell) bool {
			return yield(cell.Index, cell)
		})
	}
}

// RunCell executes one decoded cell into the Cell form Sweep streams
// — report on success, stringified error otherwise — for executors
// that schedule cells through their own pool (coflowd).
func RunCell(ctx context.Context, i int, s Spec) *Cell {
	return RunCellWith(ctx, i, s, nil)
}

// RunCellWith is RunCell recording telemetry into reg (safe to share
// across concurrently executing cells; recording is atomic). coflowd
// routes every cell through its server-wide registry so /metrics
// covers sweep work too.
func RunCellWith(ctx context.Context, i int, s Spec, reg *obs.Registry) *Cell {
	if testCellHook != nil {
		testCellHook(i)
	}
	cell := &Cell{Index: i, Spec: s}
	rep, err := RunWith(ctx, s, reg)
	if err != nil {
		cell.Err = err
		cell.Error = err.Error()
	} else {
		cell.Report = rep
		cell.Spec = rep.Spec // echo the normalized form
	}
	return cell
}
