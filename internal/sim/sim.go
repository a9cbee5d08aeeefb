// Package sim is an online discrete-event coflow simulator: coflows
// are revealed to the scheduler at their release times — not at t=0 as
// in the offline engine — and a pluggable Policy (re-)plans at every
// event. Between events (coflow arrival, flow release, flow
// completion, epoch timer) the simulator advances link allocations in
// continuous, unslotted time at constant per-flow rates, so completion
// times are exact for piecewise-constant policies.
//
// The package ships four policy families (see policy.go and
// adapter.go):
//
//   - "fifo" / "las": non-clairvoyant orderings in the style of
//     Bhimaraju, Nayak & Vaze (2020) — first-in-first-out and
//     least-attained-service priority;
//   - "fair": a work-conserving max-min fair share over all active
//     flows (progressive filling);
//   - "sincronia-online": re-runs the Sincronia BSSI ordering of
//     internal/baselines over the currently-known residual instance at
//     every arrival;
//   - "epoch:<scheduler>": wraps any registered engine.Scheduler and
//     re-plans the residual instance at arrivals and epoch ticks,
//     turning every offline algorithm in the registry into an online
//     one.
//
// The event loop is built to scale to 100k-coflow instances: the next
// event comes from an indexed queue (a release-sorted pending list and
// a flow-release min-heap — see queue.go) plus a linear min over the
// fresh sparse allocation instead of per-event full scans,
// policies return sparse per-active-coflow rate entries over reusable
// buffers (see alloc.go) instead of dense coflows × flows matrices,
// and the per-event allocation check is incremental over the touched
// entries and edges. The un-optimized O(n²·flows) loop survives in the
// tests as simulateReference (reference_test.go), the executable spec
// the differential tests hold Simulate bit-identical to; the full
// from-scratch verification is available behind Options.CheckEvery and
// is what conformance runs use.
//
// Simulation runs in the single path model (fixed routes), the model
// all ordering baselines share; times are in slot units, identical to
// the continuous units of demands and capacities, so online results
// compare directly against offline engine schedules.
//
// Everything is deterministic in (instance, Options): the only
// randomness lives inside wrapped engine schedulers, which derive
// per-replan seeds from Options.Seed, so event traces and metrics are
// bit-identical across runs and at any Options.Workers.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/obs"
)

const eps = 1e-9

// Options tune a simulation run.
type Options struct {
	// Policy is the registry name ("fifo", "las", "fair",
	// "sincronia-online", or "epoch:<engine-scheduler>"). Empty means
	// "las".
	Policy string
	// Epoch is the re-planning period for epoch-based policies: in
	// addition to arrivals, the policy re-plans every Epoch time
	// units. Zero re-plans on arrivals only.
	Epoch float64
	// MaxSlots caps the time grid of wrapped engine schedulers (0 = 48).
	MaxSlots int
	// Trials is the Stretch trial count for wrapped LP schedulers.
	// Online re-planning solves one LP per replan, so the default is a
	// lighter 5 (0 = 5; negative disables).
	Trials int
	// Seed drives the randomness of wrapped engine schedulers; each
	// replan derives its own sub-seed, so a fixed Seed reproduces the
	// identical event trace.
	Seed int64
	// Workers bounds goroutines inside wrapped schedulers (≤ 0 =
	// GOMAXPROCS). Traces never depend on the worker count.
	Workers int
	// MaxEvents caps the event loop as a runaway guard (0 = 1<<20).
	MaxEvents int
	// WarmLP has no effect. Every epoch re-plan of an LP scheduler
	// already starts from its residual's greedy vertex; the field stays
	// so existing callers keep compiling.
	WarmLP bool
	// Clairvoyant reveals every coflow to the policy at t=0 while
	// service still honors release times, turning any policy into its
	// clairvoyant counterpart. This is the continuous-time offline
	// reference slowdowns are measured against: comparing an online
	// continuous-time run against a slot-quantized offline schedule
	// would systematically deflate the ratio.
	Clairvoyant bool
	// CheckEvery enables the full from-scratch verification pass
	// (paranoid mode) every CheckEvery-th event, on top of the
	// always-on incremental allocation check: 1 verifies every event
	// (what conformance runs use), larger values sample, and 0 or a
	// negative value disables the full pass. The full pass
	// cross-checks the incrementally maintained active set, the
	// attained-service bookkeeping, and the complete per-edge load
	// vector against a from-scratch reconstruction, so a bug in the
	// indexed fast path cannot silently drift. Checking never alters
	// the trace.
	CheckEvery int
	// Obs, when non-nil, receives run telemetry: events by kind,
	// allocator calls, incremental/paranoid check time, policy-internal
	// dynamics (LAS splice sizes, fair freeze rounds), and — through
	// wrapped engine schedulers — LP counters. Recording is atomic and
	// observational only: traces and results are bit-identical with
	// Obs set or nil, and a nil registry costs one pointer test per
	// site.
	Obs *obs.Registry
}

// Normalize fills in defaults.
func (o Options) Normalize() Options {
	if o.Policy == "" {
		o.Policy = NameLAS
	}
	if o.MaxSlots == 0 {
		o.MaxSlots = 48
	}
	if o.Trials == 0 {
		o.Trials = 5
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 1 << 20
	}
	return o
}

// EventKind classifies a trace event.
type EventKind int

const (
	// Arrival is a coflow reveal (its release time passed).
	Arrival EventKind = iota
	// Completion is a coflow finishing its last flow.
	Completion
	// EpochTick is a periodic re-planning timer firing.
	EpochTick
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Arrival:
		return "arrival"
	case Completion:
		return "completion"
	case EpochTick:
		return "epoch"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one entry of the simulation trace.
type Event struct {
	Time float64
	Kind EventKind
	// Coflow is the instance index of the arriving/completing coflow
	// (-1 for epoch ticks).
	Coflow int
}

// Result reports an online run. All times are absolute (slot units
// from t=0), so WeightedCCT compares directly with the Weighted field
// of offline engine results.
type Result struct {
	// Policy is the name of the policy that ran.
	Policy string
	// Completions[j] is coflow j's completion time.
	Completions []float64
	// Arrivals[j] is coflow j's release time. In clairvoyant mode the
	// reveal to the policy happens at t=0, but Arrivals keeps the
	// release — it is what response-time metrics subtract.
	Arrivals []float64
	// WeightedCCT is Σ_j w_j·C_j.
	WeightedCCT float64
	// TotalCCT is Σ_j C_j.
	TotalCCT float64
	// AvgCCT is the mean response time, mean_j (C_j − r_j).
	AvgCCT float64
	// Makespan is max_j C_j.
	Makespan float64
	// Events counts simulator events processed.
	Events int
	// Replans counts the planning calls the policy saw with
	// State.Replan set (arrivals and epoch ticks).
	Replans int
	// Trace is the full event sequence, for determinism checks.
	Trace []Event
}

// State is the simulator state a Policy sees when planning. Policies
// must treat everything reachable from State as read-only, and — to
// stay honestly online — must only inspect coflows listed in Active:
// unreleased coflows are future information.
type State struct {
	// Inst is the full instance (graph + coflows). Unreleased coflows
	// are present but off-limits.
	Inst *coflow.Instance
	// Now is the current simulation time.
	Now float64
	// Active lists revealed, unfinished coflow indices in ascending
	// order. It is maintained incrementally — policies must not
	// retain it across calls.
	Active []int
	// Remaining[j][i] is the residual demand of flow i of coflow j.
	Remaining [][]float64
	// Attained[j] is the total volume served to coflow j so far (the
	// least-attained-service statistic).
	Attained []float64
	// Arrival[j] is coflow j's release time (when its flows may first
	// be served). In clairvoyant mode coflows are revealed at t=0 but
	// Arrival keeps the release.
	Arrival []float64
	// Replan is true when this call follows an arrival or epoch tick;
	// expensive policies may cache their plan between Replan calls.
	Replan bool

	// activeMask[j] mirrors membership of j in Active for O(1)
	// lookups (see IsActive). Maintained by the simulator.
	activeMask []bool
	// effRel[j][i] caches Coflow.EffectiveRelease(i): Available runs
	// once per flow per event, and the max() behind EffectiveRelease
	// showed up in profiles at 100k-coflow scale.
	effRel [][]float64
}

// newState builds the per-run policy-visible state; shared by Simulate
// and the test-only reference loop (reference_test.go) so both present
// policies with identical inputs.
func newState(inst *coflow.Instance) *State {
	nc := len(inst.Coflows)
	st := &State{
		Inst:       inst,
		Remaining:  make([][]float64, nc),
		Attained:   make([]float64, nc),
		Arrival:    make([]float64, nc),
		activeMask: make([]bool, nc),
		effRel:     make([][]float64, nc),
	}
	for j := 0; j < nc; j++ {
		c := &inst.Coflows[j]
		st.Remaining[j] = make([]float64, len(c.Flows))
		st.effRel[j] = make([]float64, len(c.Flows))
		for i, fl := range c.Flows {
			st.Remaining[j][i] = fl.Demand
			st.effRel[j][i] = c.EffectiveRelease(i)
		}
		st.Arrival[j] = c.Release
	}
	return st
}

// Available reports whether flow i of active coflow j is released at
// State.Now (per-flow releases may trail the coflow's reveal).
func (st *State) Available(j, i int) bool {
	return st.effRel[j][i] <= st.Now+eps
}

// IsActive reports in O(1) whether coflow j is currently revealed and
// unfinished — membership in Active without the scan. Policies use it
// to prune finished coflows from cached priority orders.
func (st *State) IsActive(j int) bool { return st.activeMask[j] }

// Policy plans transmissions for the currently-known coflows.
// Allocate appends sparse per-flow rate entries for the interval until
// the next event into out (see Alloc for the grouping contract);
// finished, unavailable, or unreleased flows must not be granted a
// positive rate. The simulator resets out before every call.
// Implementations must be deterministic in (State, construction
// Options).
type Policy interface {
	// Name is the registry name the policy answers to.
	Name() string
	// Allocate fills out with the sparse rate assignment to use until
	// the next event.
	Allocate(ctx context.Context, st *State, out *Alloc) error
}

// Simulate runs the online simulation of inst under the policy named
// in opt. The instance must validate in the single path model.
func Simulate(ctx context.Context, inst *coflow.Instance, opt Options) (*Result, error) {
	opt = opt.Normalize()
	if err := inst.Validate(coflow.SinglePath); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Epochs below the simulator's time resolution would degenerate
	// into a tick at every float step; reject them instead.
	if opt.Epoch != 0 && opt.Epoch < 1e-6 {
		return nil, fmt.Errorf("sim: epoch %g below the minimum of 1e-6 slots", opt.Epoch)
	}
	pol, err := New(opt.Policy, opt)
	if err != nil {
		return nil, err
	}
	return newRunner(inst, opt, pol).run(ctx)
}

// simMetrics holds the telemetry handles the event loop records
// through, resolved once per run so the hot loop never takes the
// registry lock. With no registry every handle is nil — each record
// site then costs one pointer test — and the stopwatches around the
// allocation checks never read the clock (obs.Timing.Start on a nil
// handle is inert).
type simMetrics struct {
	arrivals    *obs.Counter
	completions *obs.Counter
	epochs      *obs.Counter
	loopEvents  *obs.Counter
	allocCalls  *obs.Counter
	replans     *obs.Counter
	checkInc    *obs.Timing
	checkFull   *obs.Timing
}

func newSimMetrics(reg *obs.Registry) simMetrics {
	if reg == nil {
		return simMetrics{}
	}
	return simMetrics{
		arrivals:    reg.Counter(`sim_events_total{kind="arrival"}`),
		completions: reg.Counter(`sim_events_total{kind="completion"}`),
		epochs:      reg.Counter(`sim_events_total{kind="epoch"}`),
		loopEvents:  reg.Counter("sim_loop_events_total"),
		allocCalls:  reg.Counter("sim_alloc_calls_total"),
		replans:     reg.Counter("sim_replans_total"),
		checkInc:    reg.Timing("sim_check_incremental"),
		checkFull:   reg.Timing("sim_check_full"),
	}
}

// runner is the per-run state of the optimized event loop.
type runner struct {
	inst *coflow.Instance
	opt  Options
	pol  Policy
	st   *State
	res  *Result
	met  simMetrics

	caps     []float64
	revealed []bool
	finished []bool

	pending *pendingList
	flowRel flowRelHeap

	alloc Alloc

	now       float64
	done      int
	nextEpoch float64

	// Per-event scratch, reused across events.
	batch   []int // coflows revealed this event
	cand    []int // completion candidates (served or revealed)
	candIn  []bool
	group   []int // per coflow: last event it opened an entry group in
	load    []float64
	touched []graph.EdgeID
	// Full-check scratch.
	fullActive []int
	fullLoad   []float64
}

func newRunner(inst *coflow.Instance, opt Options, pol Policy) *runner {
	g := inst.Graph
	nc := len(inst.Coflows)
	r := &runner{
		inst:     inst,
		opt:      opt,
		pol:      pol,
		caps:     make([]float64, g.NumEdges()),
		revealed: make([]bool, nc),
		finished: make([]bool, nc),
		pending:  newPendingList(inst),
		candIn:   make([]bool, nc),
		group:    make([]int, nc),
		load:     make([]float64, g.NumEdges()),
		met:      newSimMetrics(opt.Obs),
	}
	for _, e := range g.Edges() {
		r.caps[e.ID] = e.Capacity
	}
	st := newState(inst)
	for j := range r.group {
		r.group[j] = -1
	}
	r.st = st
	r.res = &Result{
		Policy:      opt.Policy,
		Completions: make([]float64, nc),
		Arrivals:    append([]float64(nil), st.Arrival...),
		Trace:       make([]Event, 0, 2*nc+8),
	}
	return r
}

func (r *runner) run(ctx context.Context) (*Result, error) {
	inst, opt, st, res := r.inst, r.opt, r.st, r.res
	nc := len(inst.Coflows)
	r.nextEpoch = math.Inf(1)
	if opt.Epoch > 0 {
		r.nextEpoch = opt.Epoch
	}
	for r.done < nc {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res.Events >= opt.MaxEvents {
			return nil, fmt.Errorf("sim: event cap %d reached at t=%g (%d/%d coflows done)",
				opt.MaxEvents, r.now, r.done, nc)
		}
		res.Events++
		r.met.loopEvents.Inc()

		// Reveal coflows whose release time has passed (all of them at
		// t=0 in clairvoyant mode). The pending list yields them in
		// (release, index) order; arrivals sharing one event are
		// re-sorted by index to match the reference's 0..n scan.
		replan := false
		r.batch = r.pending.takeDue(inst, r.now, opt.Clairvoyant, r.batch[:0])
		if len(r.batch) > 0 {
			replan = true
			r.met.arrivals.Add(int64(len(r.batch)))
			sort.Ints(r.batch)
			for _, j := range r.batch {
				r.revealed[j] = true
				res.Trace = append(res.Trace, Event{Time: r.now, Kind: Arrival, Coflow: j})
				// Index the coflow's trailing per-flow releases; flows
				// already available (or drained) never need an event.
				for i := range st.effRel[j] {
					if st.Remaining[j][i] <= eps {
						continue
					}
					if rel := st.effRel[j][i]; rel > r.now+eps {
						r.flowRel.push(flowRelEntry{t: rel, j: j, i: i})
					}
				}
			}
			r.insertActive(r.batch)
		}
		// Epoch timer. The next tick is computed multiplicatively (the
		// first multiple of Epoch past now) rather than by repeated
		// addition, so a long event-free jump costs O(1) and float
		// accumulation cannot stall the advance.
		if opt.Epoch > 0 && r.nextEpoch <= r.now+eps {
			replan = true
			r.met.epochs.Inc()
			res.Trace = append(res.Trace, Event{Time: r.now, Kind: EpochTick, Coflow: -1})
			r.nextEpoch = opt.Epoch * (math.Floor(r.now/opt.Epoch) + 1)
			if r.nextEpoch <= r.now+eps {
				r.nextEpoch += opt.Epoch
			}
		}

		st.Now = r.now
		st.Replan = replan

		r.alloc.Reset()
		if len(st.Active) > 0 {
			if replan {
				res.Replans++
				r.met.replans.Inc()
			}
			r.met.allocCalls.Inc()
			if err := r.pol.Allocate(ctx, st, &r.alloc); err != nil {
				return nil, fmt.Errorf("sim: policy %s at t=%g: %w", opt.Policy, r.now, err)
			}
			sw := r.met.checkInc.Start()
			err := r.checkAlloc()
			sw.Stop()
			if err != nil {
				return nil, fmt.Errorf("sim: policy %s at t=%g: %w", opt.Policy, r.now, err)
			}
			if opt.CheckEvery > 0 && res.Events%opt.CheckEvery == 0 {
				sw := r.met.checkFull.Start()
				err := r.checkFull()
				sw.Stop()
				if err != nil {
					return nil, fmt.Errorf("sim: full check at t=%g (event %d): %w", r.now, res.Events, err)
				}
			}
		}

		// Next event: the earliest of coflow reveal, flow release,
		// epoch tick, and flow completion at the current rates — each
		// read from its index instead of a full scan. Epoch ticks only
		// count while something is active — an idle gap would
		// otherwise burn one no-op event per period; the tick due at
		// the end of the gap still fires with the arrival that ends it.
		next := math.Inf(1)
		if len(st.Active) > 0 {
			next = r.nextEpoch
		}
		if rel, ok := r.pending.nextRelease(inst); ok && rel < next {
			next = rel
		}
		if rel, ok := r.flowRel.nextRelease(r.now, r.finished, st.Remaining); ok && rel < next {
			next = rel
		}
		// Projected completions at the current rates: a linear min over
		// the sparse entries. Every event refreshes the allocation, so
		// an indexed structure would be rebuilt per event anyway — the
		// min of the same candidate set is the same time either way.
		progress := false
		for _, en := range r.alloc.Entries {
			rem := st.Remaining[en.Coflow][en.Flow]
			if rem <= eps || en.Rate <= eps {
				continue
			}
			progress = true
			if t := r.now + rem/en.Rate; t < next {
				next = t
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("sim: stalled at t=%g with %d/%d coflows done (no rates, no pending events)",
				r.now, r.done, nc)
		}
		if !progress && next <= r.now+eps {
			return nil, fmt.Errorf("sim: no progress at t=%g", r.now)
		}
		dt := next - r.now
		if dt < 0 {
			dt = 0
		}

		// Advance: deplete demands at constant rates for dt, walking
		// the sparse entries group by group. Per-coflow served sums
		// accumulate in flow order within each group — the same order
		// the dense reference uses — so Attained stays bit-identical.
		// Completion candidates are the coflows served this event plus
		// the ones revealed at its start (a zero-demand coflow
		// completes at reveal without ever being served).
		r.cand = r.cand[:0]
		for _, j := range r.batch {
			if !r.candIn[j] {
				r.candIn[j] = true
				r.cand = append(r.cand, j)
			}
		}
		entries := r.alloc.Entries
		for k := 0; k < len(entries); {
			j := entries[k].Coflow
			served := 0.0
			for ; k < len(entries) && entries[k].Coflow == j; k++ {
				i, rate := entries[k].Flow, entries[k].Rate
				if st.Remaining[j][i] <= eps || rate <= eps {
					continue
				}
				d := rate * dt
				if d > st.Remaining[j][i] {
					d = st.Remaining[j][i]
				}
				st.Remaining[j][i] -= d
				served += d
				if st.Remaining[j][i] <= eps {
					st.Remaining[j][i] = 0
				}
			}
			st.Attained[j] += served
			if !r.candIn[j] {
				r.candIn[j] = true
				r.cand = append(r.cand, j)
			}
		}
		r.now = next

		// Completions, in ascending coflow order as the reference's
		// Active scan emits them.
		sort.Ints(r.cand)
		for _, j := range r.cand {
			r.candIn[j] = false
			if r.finished[j] {
				continue
			}
			// Flows absent from the live list are finished for good, so
			// scanning (and compacting) the list is equivalent to the
			// reference's full Remaining[j] sweep.
			all := true
			lv := r.alloc.live[j]
			w := 0
			for _, i32 := range lv {
				if st.Remaining[j][i32] <= eps {
					continue
				}
				lv[w] = i32
				w++
				all = false
			}
			r.alloc.shrinkLive(j, w)
			if all {
				r.finished[j] = true
				r.done++
				r.met.completions.Inc()
				res.Completions[j] = r.now
				res.Trace = append(res.Trace, Event{Time: r.now, Kind: Completion, Coflow: j})
				r.removeActive(j)
			}
		}
	}

	for j := 0; j < nc; j++ {
		c := res.Completions[j]
		res.WeightedCCT += inst.Coflows[j].Weight * c
		res.TotalCCT += c
		res.AvgCCT += c - st.Arrival[j]
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	res.AvgCCT /= float64(nc)
	return res, nil
}

// insertActive merges the ascending reveal batch into the ascending
// active list and sets the membership mask.
func (r *runner) insertActive(batch []int) {
	st := r.st
	for _, j := range batch {
		st.activeMask[j] = true
	}
	n := len(st.Active)
	st.Active = append(st.Active, batch...)
	a := st.Active
	i, b, k := n-1, len(batch)-1, len(a)-1
	for b >= 0 {
		if i >= 0 && a[i] > batch[b] {
			a[k] = a[i]
			i--
		} else {
			a[k] = batch[b]
			b--
		}
		k--
	}
}

// removeActive deletes j from the ascending active list and clears its
// mask bit.
func (r *runner) removeActive(j int) {
	st := r.st
	st.activeMask[j] = false
	k := sort.SearchInts(st.Active, j)
	if k < len(st.Active) && st.Active[k] == j {
		copy(st.Active[k:], st.Active[k+1:])
		st.Active = st.Active[:len(st.Active)-1]
	}
}

// checkAlloc is the incremental per-event verification of the policy's
// sparse allocation: entry bounds, the grouping contract, no service
// to inactive coflows or unavailable flows, no duplicate grants, and
// per-edge loads within capacity — touching only the entries and the
// edges they load, O(entries·path) instead of O(coflows·flows +
// edges). A violation is a policy bug and surfaces as a diagnostic
// error, not a panic.
func (r *runner) checkAlloc() error {
	st := r.st
	nc := len(st.Inst.Coflows)
	ev := r.res.Events
	// Per-entry path walks go through the alloc's flat path index (the
	// same edges Flow.Path holds, laid out densely).
	r.alloc.ensurePaths(st.Inst)
	lastJ := -1
	lastFlow := -1
	for _, en := range r.alloc.Entries {
		j := en.Coflow
		if j < 0 || j >= nc {
			return fmt.Errorf("allocation entry names coflow %d of %d", j, nc)
		}
		c := &st.Inst.Coflows[j]
		if en.Flow < 0 || en.Flow >= len(c.Flows) {
			return fmt.Errorf("allocation entry names flow %d of coflow %d (%d flows)", en.Flow, j, len(c.Flows))
		}
		if j != lastJ {
			if r.group[j] == ev {
				return fmt.Errorf("allocation entries for coflow %d are not contiguous", j)
			}
			r.group[j] = ev
			lastJ, lastFlow = j, -1
		}
		if en.Flow <= lastFlow {
			return fmt.Errorf("allocation entries for coflow %d are not in ascending flow order", j)
		}
		lastFlow = en.Flow
		rate := en.Rate
		if !(rate >= 0) {
			return fmt.Errorf("negative rate %g for coflow %d flow %d", rate, j, en.Flow)
		}
		if rate <= eps {
			continue
		}
		if !st.activeMask[j] {
			// A positive rate on an unrevealed or finished coflow means
			// the policy used information it must not have.
			return fmt.Errorf("rate %g granted to inactive coflow %d flow %d", rate, j, en.Flow)
		}
		if st.Remaining[j][en.Flow] <= eps || !st.Available(j, en.Flow) {
			return fmt.Errorf("rate %g granted to inactive flow %d of coflow %d", rate, en.Flow, j)
		}
		fi := r.alloc.flowBase[j] + int32(en.Flow)
		for _, e := range r.alloc.pathEdges[r.alloc.pathOff[fi]:r.alloc.pathOff[fi+1]] {
			if r.load[e] == 0 {
				r.touched = append(r.touched, e)
			}
			r.load[e] += rate
		}
	}
	var err error
	for _, e := range r.touched {
		if err == nil && r.load[e] > r.caps[e]*(1+1e-6)+eps {
			err = fmt.Errorf("edge %d overloaded: rate %g > capacity %g", e, r.load[e], r.caps[e])
		}
		r.load[e] = 0
	}
	r.touched = r.touched[:0]
	return err
}

// checkFull is the paranoid from-scratch verification behind
// Options.CheckEvery: it reconstructs the active set from the
// revealed/finished flags, re-derives every coflow's attained service
// from the initial demands and the residuals, and rebuilds the entire
// per-edge load vector from the sparse entries — and demands each
// matches the incrementally maintained fast-path state. Conformance
// runs enable it at CheckEvery=1.
func (r *runner) checkFull() error {
	st := r.st
	nc := len(st.Inst.Coflows)
	r.fullActive = r.fullActive[:0]
	for j := 0; j < nc; j++ {
		if r.revealed[j] && !r.finished[j] {
			r.fullActive = append(r.fullActive, j)
		}
		if st.activeMask[j] != (r.revealed[j] && !r.finished[j]) {
			return fmt.Errorf("active mask for coflow %d is %v, flags say revealed=%v finished=%v",
				j, st.activeMask[j], r.revealed[j], r.finished[j])
		}
	}
	if len(r.fullActive) != len(st.Active) {
		return fmt.Errorf("active list has %d coflows, flags give %d", len(st.Active), len(r.fullActive))
	}
	for k, j := range r.fullActive {
		if st.Active[k] != j {
			return fmt.Errorf("active list position %d holds coflow %d, flags give %d", k, st.Active[k], j)
		}
	}
	for j := 0; j < nc; j++ {
		if !r.revealed[j] {
			continue
		}
		c := &st.Inst.Coflows[j]
		want := 0.0
		for i := range c.Flows {
			want += c.Flows[i].Demand - st.Remaining[j][i]
		}
		if math.Abs(st.Attained[j]-want) > 1e-6*math.Max(1, want) {
			return fmt.Errorf("coflow %d attained %g, residuals give %g", j, st.Attained[j], want)
		}
	}
	// Full per-edge load rebuild: every edge, not just the touched set.
	if len(r.fullLoad) != len(r.caps) {
		r.fullLoad = make([]float64, len(r.caps))
	}
	for e := range r.fullLoad {
		r.fullLoad[e] = 0
	}
	for _, en := range r.alloc.Entries {
		if en.Rate <= eps {
			continue
		}
		for _, e := range st.Inst.Coflows[en.Coflow].Flows[en.Flow].Path {
			r.fullLoad[e] += en.Rate
		}
	}
	for e, l := range r.fullLoad {
		if l > r.caps[e]*(1+1e-6)+eps {
			return fmt.Errorf("edge %d overloaded: rate %g > capacity %g", e, l, r.caps[e])
		}
	}
	return nil
}

// Slowdown returns the average per-coflow ratio of online to offline
// response times, (C_on − r) / (C_off − r) — the price of not knowing
// the future. Ratios of absolute completion times would be diluted
// toward 1 by large release offsets at low load, so the shared release
// time is subtracted from both sides (using online.Arrivals; a result
// without arrivals falls back to r = 0). Offline response times of
// zero are clamped to a small positive value.
func Slowdown(online *Result, offline []float64) (float64, error) {
	if len(offline) != len(online.Completions) {
		return 0, fmt.Errorf("sim: slowdown over %d online vs %d offline coflows",
			len(online.Completions), len(offline))
	}
	if len(offline) == 0 {
		return 0, fmt.Errorf("sim: slowdown of empty result")
	}
	var s float64
	for j, c := range online.Completions {
		var r float64
		if len(online.Arrivals) == len(online.Completions) {
			r = online.Arrivals[j]
		}
		ref := offline[j] - r
		if ref < eps {
			ref = eps
		}
		s += (c - r) / ref
	}
	return s / float64(len(offline)), nil
}
