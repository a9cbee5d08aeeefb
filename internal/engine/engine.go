// Package engine unifies every scheduling algorithm in the repository
// behind one interface. The paper's Stretch pipeline, its λ=1 LP
// heuristic, and the prior-work baselines (Terra, Jahanjou et al., a
// Sincronia-style bottleneck greedy) all register themselves as
// Schedulers in a package-level registry, so harnesses, the CLI, and
// future variants select algorithms by name instead of hard-wiring
// call paths. Adding a scheduler means implementing the three-method
// interface and calling Register — no new plumbing.
//
// The engine also owns the parallelism policy: LP-pipeline schedulers
// fan their randomized Stretch roundings out over a bounded worker
// pool (internal/pool) with per-trial RNGs derived from the base seed,
// so results are reproducible at any worker count.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// Options tune a Schedule call. The zero value uses the same defaults
// as the top-level API: a 48-slot grid cap and 20 Stretch trials.
type Options struct {
	// Mode is the transmission model to schedule in. Callers going
	// through the package-level Schedule func may leave it unset and
	// pass the model there instead.
	Mode coflow.Model
	// MaxSlots caps the uniform time grid (0 = 48).
	MaxSlots int
	// Trials is the number of randomized Stretch roundings for
	// schedulers that use them (0 = 20; negative disables).
	Trials int
	// Seed drives all randomness deterministically.
	Seed int64
	// Workers bounds the goroutines a scheduler may use (≤ 0 =
	// GOMAXPROCS). Results never depend on the worker count.
	Workers int
	// DisableCompaction turns off the Section 6.1 idle-slot pass for
	// schedulers that compact.
	DisableCompaction bool
	// WarmBasis warm-starts the LP solve of LP-based schedulers from a
	// basis exported by a previous run (Result.Core.Basis). The basis
	// is positional and fits only an LP of the same shape; the solver
	// rejects any other. Non-LP schedulers ignore it; results are
	// unaffected either way.
	WarmBasis *lp.Basis
	// Obs, when non-nil, receives scheduling telemetry (per-scheduler
	// timings plus everything the core pipeline and simplex record).
	// Purely observational: results are bit-identical with or without
	// a registry.
	Obs *obs.Registry
}

// Normalize fills in defaults.
func (o Options) Normalize() Options {
	if o.MaxSlots == 0 {
		o.MaxSlots = 48
	}
	if o.Trials == 0 {
		o.Trials = 20
	}
	if o.Trials < 0 {
		o.Trials = 0
	}
	return o
}

// Result is the uniform outcome type every scheduler returns, so
// harnesses can tabulate algorithms side by side without caring which
// family produced a number.
type Result struct {
	// Scheduler is the registry name of the algorithm that ran.
	Scheduler string
	// Mode is the transmission model the instance was scheduled in.
	Mode coflow.Model
	// Weighted is Σ w_j C_j of the scheduler's chosen schedule.
	Weighted float64
	// Total is Σ C_j (the unweighted objective).
	Total float64
	// Completions holds per-coflow completion times in slot units.
	Completions []float64
	// LowerBound is the LP lower bound when the scheduler solves one
	// (0 for LP-free schedulers; check HasLowerBound).
	LowerBound float64
	// HasLowerBound reports whether LowerBound is meaningful.
	HasLowerBound bool
	// Schedule is the feasibility-verified schedule, when the
	// algorithm produces an explicit one (Terra simulates in
	// continuous time and leaves it nil).
	Schedule *schedule.Schedule
	// Core carries the full Stretch pipeline output for the schedulers
	// built on it (stretch, heuristic); nil otherwise.
	Core *core.Result
	// Extra holds per-scheduler metrics (e.g. "best-lambda",
	// "lp-solves") that don't fit the common fields.
	Extra map[string]float64
}

// Scheduler is one coflow scheduling algorithm.
type Scheduler interface {
	// Name is the registry key (stable, flag-friendly).
	Name() string
	// Supports reports whether the algorithm handles the model.
	Supports(m coflow.Model) bool
	// Schedule solves the instance. Implementations must be safe for
	// concurrent use and deterministic in (instance, Options).
	Schedule(ctx context.Context, inst *coflow.Instance, opt Options) (*Result, error)
}

// registry is the process-wide scheduler table.
var (
	regMu    sync.RWMutex
	registry = map[string]Scheduler{}
)

// Register adds a scheduler under its Name. Registering a duplicate
// name panics: it is a programming error, caught at init time.
func Register(s Scheduler) {
	regMu.Lock()
	defer regMu.Unlock()
	name := s.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate scheduler %q", name))
	}
	registry[name] = s
}

// Get returns the named scheduler, or an error naming the known ones.
func Get(name string) (Scheduler, error) {
	regMu.RLock()
	s, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown scheduler %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists registered schedulers in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NamesSupporting lists registered schedulers that support the model,
// in sorted order.
func NamesSupporting(m coflow.Model) []string {
	var names []string
	for _, n := range Names() {
		if s, err := Get(n); err == nil && s.Supports(m) {
			names = append(names, n)
		}
	}
	return names
}

// Schedule runs the named scheduler after checking model support.
func Schedule(ctx context.Context, name string, inst *coflow.Instance, mode coflow.Model, opt Options) (*Result, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	if !s.Supports(mode) {
		return nil, fmt.Errorf("engine: scheduler %q does not support the %v model", name, mode)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt.Mode = mode
	var sw obs.Stopwatch
	if opt.Obs != nil {
		sw = opt.Obs.Timing(`engine_schedule{scheduler="` + name + `"}`).Start()
	}
	res, err := s.Schedule(ctx, inst, opt.Normalize())
	sw.Stop()
	if err != nil {
		opt.Obs.Counter(`engine_schedule_errors_total{scheduler="` + name + `"}`).Inc()
		return nil, fmt.Errorf("engine: %s: %w", name, err)
	}
	res.Scheduler = name
	res.Mode = mode
	return res, nil
}
