// Package validate is the independent schedule-validity oracle: it
// replays scheduler outputs — slotted offline schedules and online
// event traces alike — against the instance they claim to solve and
// checks the invariants no correct coflow scheduler may break:
//
//   - per-edge capacity is never exceeded in any slot;
//   - every flow ships its full demand along an admissible route for
//     its transmission model (the fixed Path in the single path model,
//     the AltPaths candidate set in the multi path model, a conserved
//     edge flow in the free path model);
//   - nothing transmits before its effective release time;
//   - reported completion times match the replayed ones, reported
//     aggregates (ΣwC, ΣC, makespan, …) match the completions, and no
//     completion undercuts the trivial per-coflow lower bound
//     max_i (release_i + demand_i / bottleneck-rate_i).
//
// The oracle shares no code with schedule.Verify or the simulator's
// internal rate checker: it recomputes loads, completions, and bounds
// from scratch (bottleneck rates via internal/maxflow), so a bug in a
// scheduler and a bug in its own feasibility check cannot cancel out.
// The replay shares exactly one constant with package schedule,
// schedule.Eps, the definition of a transmission: a flow transmits in
// a slot, and so counts toward its completion and is held to its
// release there, exactly when its fraction exceeds it. The demand
// check keeps its own, looser fracTol.
// It is the engine of the scheduler × topology × model conformance
// matrix that gates every scheduler in the repository.
//
// Violations are collected, not short-circuited: a Report lists every
// broken invariant with its Kind, so tests can assert both "no
// violations" on real schedulers and "exactly this violation" on
// deliberately corrupted schedules.
package validate

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/coflow"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// Tolerances. Fractions and loads come out of an LP solved to ~1e-7;
// times are sums of slot lengths.
const (
	fracTol = 1e-5 // total shipped fraction vs 1
	rateTol = 1e-6 // relative capacity slack
	absTol  = 1e-9 // absolute slack added to capacity comparisons
	timeTol = 1e-6 // completion-time comparisons
)

// Kind classifies a violation.
type Kind string

// The invariant classes the oracle checks.
const (
	// KindStructure: malformed output (dimension mismatches, missing
	// routing data, nil fields).
	KindStructure Kind = "structure"
	// KindDemand: a flow does not ship its full demand.
	KindDemand Kind = "demand"
	// KindRelease: transmission before the effective release time.
	KindRelease Kind = "release"
	// KindRouting: inadmissible route for the transmission model
	// (broken path, rates off the candidate set, conservation failure).
	KindRouting Kind = "routing"
	// KindCapacity: an edge carries more volume than capacity × time.
	KindCapacity Kind = "capacity"
	// KindCompletion: reported completion times disagree with the
	// replayed schedule or trace.
	KindCompletion Kind = "completion"
	// KindAggregate: reported ΣwC / ΣC / avg / makespan disagree with
	// the reported completions.
	KindAggregate Kind = "aggregate"
	// KindLowerBound: a completion time beats the trivial lower bound —
	// physically impossible, so the output is fabricated or mislabeled.
	KindLowerBound Kind = "lower-bound"
)

// Violation is one broken invariant.
type Violation struct {
	Kind Kind
	Msg  string
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.Kind, v.Msg) }

// Report collects every violation found in one validation pass.
type Report struct {
	Violations []Violation
}

// OK reports whether no invariant was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Count returns the number of violations of the given kind.
func (r *Report) Count(k Kind) int {
	n := 0
	for _, v := range r.Violations {
		if v.Kind == k {
			n++
		}
	}
	return n
}

// Err returns nil for a clean report, otherwise an error summarizing up
// to five violations.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "validate: %d violation(s):", len(r.Violations))
	for i, v := range r.Violations {
		if i == 5 {
			fmt.Fprintf(&b, " … and %d more", len(r.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) addf(k Kind, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Kind: k, Msg: fmt.Sprintf(format, args...)})
}

// FlowRate returns the maximum service rate of a single flow under the
// given model: the bottleneck capacity of its fixed path (single path),
// the smaller of the s→t max-flow and the summed bottlenecks of its
// candidate paths (multi path — paths can run concurrently, but every
// byte still crosses each s→t cut), or the s→t max-flow (free path).
// Zero means unreachable.
func FlowRate(g *graph.Graph, f *coflow.Flow, mode coflow.Model) float64 {
	switch mode {
	case coflow.SinglePath:
		if len(f.Path) > 0 {
			return g.PathCapacity(f.Path)
		}
	case coflow.MultiPath:
		if len(f.AltPaths) > 0 {
			var sum float64
			for _, p := range f.AltPaths {
				sum += g.PathCapacity(p)
			}
			mf := maxflow.Max(g, f.Source, f.Sink).Value
			return math.Min(sum, mf)
		}
	}
	return maxflow.Max(g, f.Source, f.Sink).Value
}

// CoflowLowerBounds returns, per coflow, the trivial completion-time
// lower bound every feasible schedule obeys: the slowest of its flows,
// each needing at least demand / bottleneck-rate time after its
// effective release. Unreachable flows contribute +Inf.
func CoflowLowerBounds(inst *coflow.Instance, mode coflow.Model) []float64 {
	out := make([]float64, len(inst.Coflows))
	for j := range inst.Coflows {
		c := &inst.Coflows[j]
		for i := range c.Flows {
			f := &c.Flows[i]
			rate := FlowRate(inst.Graph, f, mode)
			lb := c.EffectiveRelease(i)
			if rate <= 0 {
				lb = math.Inf(1)
			} else {
				lb += f.Demand / rate
			}
			if lb > out[j] {
				out[j] = lb
			}
		}
	}
	return out
}

// Schedule independently replays a slotted schedule and returns the
// report plus the replayed per-coflow completion times (nil when the
// schedule is too malformed to replay).
func Schedule(s *schedule.Schedule) (*Report, []float64) {
	r := &Report{}
	if s == nil || s.Inst == nil || s.Inst.Graph == nil {
		r.addf(KindStructure, "nil schedule or instance")
		return r, nil
	}
	g := s.Inst.Graph
	k := s.Grid.NumSlots()
	if len(s.Flows) != s.Inst.NumFlows() {
		r.addf(KindStructure, "schedule covers %d flows, instance has %d", len(s.Flows), s.Inst.NumFlows())
		return r, nil
	}
	if len(s.Frac) != len(s.Flows) {
		r.addf(KindStructure, "Frac has %d rows for %d flows", len(s.Frac), len(s.Flows))
		return r, nil
	}
	switch s.Mode {
	case coflow.SinglePath:
	case coflow.FreePath, coflow.MultiPath:
		if s.Route == nil {
			r.addf(KindStructure, "%v schedule without Route", s.Mode)
			return r, nil
		}
		if len(s.Route) != len(s.Flows) {
			r.addf(KindStructure, "Route has %d rows for %d flows", len(s.Route), len(s.Flows))
			return r, nil
		}
		for f := range s.Route {
			if len(s.Route[f]) != k {
				r.addf(KindStructure, "flow %d has %d Route slots, grid has %d", f, len(s.Route[f]), k)
				return r, nil
			}
		}
	default:
		r.addf(KindStructure, "unknown transmission model %v", s.Mode)
		return r, nil
	}

	// Per-flow shipping, release, and routing admissibility.
	flowDone := make([]float64, len(s.Flows)) // end of last active slot, +Inf if unshipped
	for f, ref := range s.Flows {
		fl := s.Inst.FlowAt(ref)
		if len(s.Frac[f]) != k {
			r.addf(KindStructure, "flow %d has %d slots, grid has %d", f, len(s.Frac[f]), k)
			return r, nil
		}
		release := s.Inst.ReleaseAt(ref)
		var total float64
		last := -1
		for t, v := range s.Frac[f] {
			if v < -fracTol {
				r.addf(KindStructure, "flow %d slot %d: negative fraction %g", f, t, v)
			}
			if v > schedule.Eps {
				last = t
				if s.Grid.Start(t)+timeTol < release {
					r.addf(KindRelease, "flow %d transmits in slot %d (start %g) before release %g",
						f, t, s.Grid.Start(t), release)
				}
			}
			total += v
		}
		if math.Abs(total-1) > fracTol {
			r.addf(KindDemand, "flow %d ships fraction %g of its demand", f, total)
		}
		if last < 0 || total < 1-fracTol {
			flowDone[f] = math.Inf(1)
		} else {
			flowDone[f] = s.Grid.End(last)
		}

		switch s.Mode {
		case coflow.SinglePath:
			if len(fl.Path) == 0 {
				r.addf(KindRouting, "flow %d has no path in the single path model", f)
			} else if err := g.ValidatePath(fl.Source, fl.Sink, fl.Path); err != nil {
				r.addf(KindRouting, "flow %d: %v", f, err)
			}
		case coflow.MultiPath:
			for pi, p := range fl.AltPaths {
				if err := g.ValidatePath(fl.Source, fl.Sink, p); err != nil {
					r.addf(KindRouting, "flow %d candidate path %d: %v", f, pi, err)
				}
			}
		}
	}

	// Per-slot loads, routing consistency, and capacity.
	load := make([]float64, g.NumEdges())
	for t := 0; t < k; t++ {
		for e := range load {
			load[e] = 0
		}
		for f, ref := range s.Flows {
			fl := s.Inst.FlowAt(ref)
			switch s.Mode {
			case coflow.SinglePath:
				for _, eid := range fl.Path {
					load[eid] += fl.Demand * s.Frac[f][t]
				}
			case coflow.MultiPath:
				pf := s.Route[f][t]
				if len(pf) != len(fl.AltPaths) {
					r.addf(KindStructure, "flow %d slot %d: %d path rates for %d candidate paths",
						f, t, len(pf), len(fl.AltPaths))
					continue
				}
				var sum float64
				for pi, v := range pf {
					if v < -fracTol {
						r.addf(KindStructure, "flow %d slot %d path %d: negative rate %g", f, t, pi, v)
					}
					sum += v
					for _, eid := range fl.AltPaths[pi] {
						load[eid] += fl.Demand * v
					}
				}
				if math.Abs(sum-s.Frac[f][t]) > fracTol {
					r.addf(KindRouting, "flow %d slot %d: path rates sum to %g, Frac says %g",
						f, t, sum, s.Frac[f][t])
				}
			case coflow.FreePath:
				ef := s.Route[f][t]
				if len(ef) != g.NumEdges() {
					r.addf(KindStructure, "flow %d slot %d: %d edge rates for %d edges",
						f, t, len(ef), g.NumEdges())
					continue
				}
				var srcNet float64
				for _, eid := range g.OutEdges(fl.Source) {
					srcNet += ef[eid]
				}
				for _, eid := range g.InEdges(fl.Source) {
					srcNet -= ef[eid]
				}
				if math.Abs(srcNet-s.Frac[f][t]) > fracTol {
					r.addf(KindRouting, "flow %d slot %d: source net outflow %g, Frac says %g",
						f, t, srcNet, s.Frac[f][t])
				}
				for v := 0; v < g.NumNodes(); v++ {
					node := graph.NodeID(v)
					if node == fl.Source || node == fl.Sink {
						continue
					}
					var bal float64
					for _, eid := range g.InEdges(node) {
						bal += ef[eid]
					}
					for _, eid := range g.OutEdges(node) {
						bal -= ef[eid]
					}
					if math.Abs(bal) > fracTol {
						r.addf(KindRouting, "flow %d slot %d node %s: conservation off by %g",
							f, t, g.NodeName(node), bal)
					}
				}
				for e, v := range ef {
					if v < -fracTol {
						r.addf(KindStructure, "flow %d slot %d edge %d: negative rate %g", f, t, e, v)
					}
					load[e] += fl.Demand * v
				}
			}
		}
		for _, e := range g.Edges() {
			capT := e.Capacity * s.Grid.Len(t)
			if load[e.ID] > capT*(1+rateTol)+absTol {
				r.addf(KindCapacity, "slot %d edge %d (%s→%s): load %g exceeds capacity %g",
					t, e.ID, g.NodeName(e.From), g.NodeName(e.To), load[e.ID], capT)
			}
		}
	}

	// Replayed coflow completion: last active slot of any of its flows.
	comps := make([]float64, len(s.Inst.Coflows))
	for f, ref := range s.Flows {
		if flowDone[f] > comps[ref.Coflow] {
			comps[ref.Coflow] = flowDone[f]
		}
	}
	return r, comps
}

// Result checks an engine scheduler outcome end to end: the attached
// schedule (when present) replays cleanly, its replayed completions
// match the reported ones, the reported aggregates match the reported
// completions, no completion beats the trivial lower bound, and an
// approximation objective never undercuts its own LP bound.
func Result(inst *coflow.Instance, res *engine.Result) *Report {
	r := &Report{}
	if inst == nil || res == nil {
		r.addf(KindStructure, "nil instance or result")
		return r
	}
	nc := len(inst.Coflows)
	if len(res.Completions) != nc {
		r.addf(KindStructure, "%d completion times for %d coflows", len(res.Completions), nc)
		return r
	}

	var weighted, total float64
	for j, c := range res.Completions {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			r.addf(KindCompletion, "coflow %d: completion %g is not a finite non-negative time", j, c)
			continue
		}
		weighted += inst.Coflows[j].Weight * c
		total += c
	}
	if !closeTo(weighted, res.Weighted) {
		r.addf(KindAggregate, "reported ΣwC %g, completions give %g", res.Weighted, weighted)
	}
	if !closeTo(total, res.Total) {
		r.addf(KindAggregate, "reported ΣC %g, completions give %g", res.Total, total)
	}
	if res.HasLowerBound && res.Weighted < res.LowerBound-timeTol*math.Max(1, math.Abs(res.LowerBound)) {
		r.addf(KindLowerBound, "objective %g beats its own LP lower bound %g", res.Weighted, res.LowerBound)
	}

	lbs := CoflowLowerBounds(inst, res.Mode)
	for j, c := range res.Completions {
		if !math.IsInf(lbs[j], 1) && c < lbs[j]-timeTol*math.Max(1, lbs[j]) {
			r.addf(KindLowerBound, "coflow %d completes at %g, below the trivial bound %g", j, c, lbs[j])
		}
	}

	if res.Schedule != nil {
		s := res.Schedule
		if s.Inst != inst {
			r.addf(KindStructure, "schedule is built on a different instance")
			return r
		}
		if s.Mode != res.Mode {
			r.addf(KindStructure, "schedule model %v, result model %v", s.Mode, res.Mode)
		}
		sr, comps := Schedule(s)
		r.Violations = append(r.Violations, sr.Violations...)
		if comps != nil {
			for j := range comps {
				if math.Abs(comps[j]-res.Completions[j]) > timeTol*math.Max(1, comps[j]) {
					r.addf(KindCompletion, "coflow %d: reported completion %g, replay gives %g",
						j, res.Completions[j], comps[j])
				}
			}
		}
	}
	return r
}

// SimResult checks an online simulation outcome against the instance:
// the event trace is time-ordered and complete (one arrival at the
// release — or at t=0 under clairvoyant reveal — and one completion per
// coflow, at the reported time), aggregates match the completions, no
// coflow beats its trivial lower bound, and no edge carries more volume
// than capacity × active window. The last check is the strongest
// capacity statement a trace without rates admits: all flows crossing
// an edge must squeeze their combined demand between the earliest
// release and the latest completion among them.
func SimResult(inst *coflow.Instance, res *sim.Result, clairvoyant bool) *Report {
	r := &Report{}
	if inst == nil || res == nil {
		r.addf(KindStructure, "nil instance or result")
		return r
	}
	nc := len(inst.Coflows)
	if len(res.Completions) != nc {
		r.addf(KindStructure, "%d completion times for %d coflows", len(res.Completions), nc)
		return r
	}
	if len(res.Arrivals) != nc {
		r.addf(KindStructure, "%d arrival times for %d coflows", len(res.Arrivals), nc)
		return r
	}
	for j := 0; j < nc; j++ {
		if res.Arrivals[j] != inst.Coflows[j].Release {
			r.addf(KindStructure, "coflow %d: recorded arrival %g, instance release %g",
				j, res.Arrivals[j], inst.Coflows[j].Release)
		}
	}

	// Trace shape: time-ordered, one arrival and one completion per
	// coflow, at the right times.
	arrivals := make([]int, nc)
	completions := make([]int, nc)
	prev := math.Inf(-1)
	for i, ev := range res.Trace {
		if ev.Time < prev-absTol {
			r.addf(KindStructure, "trace event %d at t=%g precedes t=%g", i, ev.Time, prev)
		}
		if ev.Time > prev {
			prev = ev.Time
		}
		switch ev.Kind {
		case sim.Arrival, sim.Completion:
			if ev.Coflow < 0 || ev.Coflow >= nc {
				r.addf(KindStructure, "trace event %d: coflow %d out of range", i, ev.Coflow)
				continue
			}
			if ev.Kind == sim.Arrival {
				arrivals[ev.Coflow]++
				want := inst.Coflows[ev.Coflow].Release
				if clairvoyant {
					want = 0
				}
				if math.Abs(ev.Time-want) > timeTol {
					r.addf(KindCompletion, "coflow %d revealed at t=%g, release is %g",
						ev.Coflow, ev.Time, want)
				}
			} else {
				completions[ev.Coflow]++
				if math.Abs(ev.Time-res.Completions[ev.Coflow]) > timeTol {
					r.addf(KindCompletion, "coflow %d completion event at t=%g, reported completion %g",
						ev.Coflow, ev.Time, res.Completions[ev.Coflow])
				}
			}
		case sim.EpochTick:
			if ev.Coflow != -1 {
				r.addf(KindStructure, "trace event %d: epoch tick names coflow %d", i, ev.Coflow)
			}
		default:
			r.addf(KindStructure, "trace event %d: unknown kind %v", i, ev.Kind)
		}
	}
	for j := 0; j < nc; j++ {
		if arrivals[j] != 1 {
			r.addf(KindStructure, "coflow %d has %d arrival events", j, arrivals[j])
		}
		if completions[j] != 1 {
			r.addf(KindStructure, "coflow %d has %d completion events", j, completions[j])
		}
	}

	// Aggregates from the reported completions.
	var weighted, total, avg, makespan float64
	for j, c := range res.Completions {
		weighted += inst.Coflows[j].Weight * c
		total += c
		avg += c - res.Arrivals[j]
		if c > makespan {
			makespan = c
		}
	}
	avg /= float64(nc)
	if !closeTo(weighted, res.WeightedCCT) {
		r.addf(KindAggregate, "reported ΣwC %g, completions give %g", res.WeightedCCT, weighted)
	}
	if !closeTo(total, res.TotalCCT) {
		r.addf(KindAggregate, "reported ΣC %g, completions give %g", res.TotalCCT, total)
	}
	if !closeTo(avg, res.AvgCCT) {
		r.addf(KindAggregate, "reported avg CCT %g, completions give %g", res.AvgCCT, avg)
	}
	if !closeTo(makespan, res.Makespan) {
		r.addf(KindAggregate, "reported makespan %g, completions give %g", res.Makespan, makespan)
	}

	// Physical bounds. The simulator runs in the single path model.
	lbs := CoflowLowerBounds(inst, coflow.SinglePath)
	for j, c := range res.Completions {
		if !math.IsInf(lbs[j], 1) && c < lbs[j]-timeTol*math.Max(1, lbs[j]) {
			r.addf(KindLowerBound, "coflow %d completes at %g, below the trivial bound %g", j, c, lbs[j])
		}
	}

	// Per-edge volume vs the active window of the flows crossing it.
	g := inst.Graph
	type window struct {
		vol      float64
		from, to float64
		used     bool
	}
	wins := make([]window, g.NumEdges())
	for j := range inst.Coflows {
		c := &inst.Coflows[j]
		for i := range c.Flows {
			f := &c.Flows[i]
			rel := c.EffectiveRelease(i)
			for _, eid := range f.Path {
				w := &wins[eid]
				if !w.used {
					w.from, w.to, w.used = rel, res.Completions[j], true
				} else {
					w.from = math.Min(w.from, rel)
					w.to = math.Max(w.to, res.Completions[j])
				}
				w.vol += f.Demand
			}
		}
	}
	for _, e := range g.Edges() {
		w := wins[e.ID]
		if !w.used {
			continue
		}
		budget := e.Capacity * math.Max(0, w.to-w.from)
		if w.vol > budget*(1+rateTol)+absTol {
			r.addf(KindCapacity, "edge %d (%s→%s): %g volume cannot fit in window [%g, %g] at capacity %g",
				e.ID, g.NodeName(e.From), g.NodeName(e.To), w.vol, w.from, w.to, e.Capacity)
		}
	}
	return r
}

// closeTo compares reported vs recomputed scalars with a relative
// tolerance.
func closeTo(recomputed, reported float64) bool {
	return math.Abs(recomputed-reported) <= timeTol*math.Max(1, math.Abs(recomputed))
}
