// Package schedule represents concrete (slotted) coflow transmission
// schedules and the operations the paper performs on them:
//
//   - conversion of an optimal LP solution into a schedule (the λ=1
//     "LP-based heuristic" of Section 6.2);
//   - the Stretch transformation of Section 4.1: replay the LP
//     schedule slowed down by 1/λ, truncating each flow once its
//     demand is met;
//   - the compaction pass of Section 6.1: move a slot's entire
//     schedule into an earlier idle slot when all releases permit;
//   - feasibility verification (demand, release, capacity and — in
//     the free and multi path models — path rates over s→t paths
//     summing to each slot's fraction), used as an invariant check
//     throughout the test suite;
//   - completion-time and objective computation.
//
// All times are in slot units.
package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/timegrid"
)

// Eps is the schedule's tolerance on fractions, and with it the
// definition of a transmission: a flow transmits in a slot exactly when
// its fraction there exceeds Eps. Completion times, releases, Stretch
// truncation and compaction all use that definition, and the validity
// oracle (internal/validate) replays schedules with it too.
const Eps = 1e-7

// Schedule is a slotted transmission plan. Frac[f][k] is the fraction
// of flat flow f transmitted during slot k.
type Schedule struct {
	Inst  *coflow.Instance
	Mode  coflow.Model
	Grid  timegrid.Grid
	Flows []coflow.FlowRef
	Frac  [][]float64
	// Paths[f] lists the paths flat flow f may use in the free and multi
	// path models (model.Solution.Paths); nil in the single path model.
	Paths [][][]graph.EdgeID
	// Route[f][k][r] is the fraction of flow f shipped on Paths[f][r] in
	// slot k; the rates sum to Frac[f][k]. Nil in the single path model.
	Route [][][]float64
}

// FromLP converts a solved relaxation into a schedule by taking the LP
// solution directly — the λ=1 LP-based heuristic of Section 6.2.
func FromLP(sol *model.Solution) *Schedule {
	s := &Schedule{
		Inst:  sol.LP.Inst,
		Mode:  sol.LP.Mode,
		Grid:  sol.LP.Grid,
		Flows: sol.LP.Flows(),
		Frac:  sol.Frac,
		Paths: sol.Paths,
		Route: sol.Route,
	}
	return s.Clone()
}

// Clone deep-copies the schedule.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.Frac = make([][]float64, len(s.Frac))
	for f := range s.Frac {
		c.Frac[f] = append([]float64(nil), s.Frac[f]...)
	}
	if s.Route != nil {
		c.Route = make([][][]float64, len(s.Route))
		for f := range s.Route {
			c.Route[f] = make([][]float64, len(s.Route[f]))
			for t := range s.Route[f] {
				c.Route[f][t] = append([]float64(nil), s.Route[f][t]...)
			}
		}
	}
	return &c
}

// FlowCompletionTimes returns, per flat flow, the end of the last
// slot in which the flow transmits, or +Inf for a flow whose demand is
// not fully scheduled.
func (s *Schedule) FlowCompletionTimes() []float64 {
	out := make([]float64, len(s.Flows))
	for f := range s.Flows {
		out[f] = s.flowCompletion(f)
	}
	return out
}

// flowCompletion is FlowCompletionTimes' entry for flat flow f, the
// one place that decides the slot a flow completes in.
func (s *Schedule) flowCompletion(f int) float64 {
	var total float64
	last := -1
	for k, v := range s.Frac[f] {
		total += v
		if v > Eps {
			last = k
		}
	}
	if total < 1-1e-5 || last < 0 {
		return math.Inf(1)
	}
	return s.Grid.End(last)
}

// CompletionTimes returns, per coflow, the latest completion of its
// flows (Eq. 12 of the paper), in slot units. A coflow with an
// unscheduled flow gets +Inf.
func (s *Schedule) CompletionTimes() []float64 {
	out := make([]float64, len(s.Inst.Coflows))
	for f, ref := range s.Flows {
		if c := s.flowCompletion(f); c > out[ref.Coflow] {
			out[ref.Coflow] = c
		}
	}
	return out
}

// WeightedCompletion returns Σ_j w_j·C_j for the schedule.
func (s *Schedule) WeightedCompletion() float64 {
	var sum float64
	for j, c := range s.CompletionTimes() {
		sum += s.Inst.Coflows[j].Weight * c
	}
	return sum
}

// Verify checks feasibility: every demand fully scheduled, no
// transmission before release, per-slot capacity respected, and in the
// free and multi path models the routing consistent with Frac: every
// path an s→t path of its flow (the flow's AltPaths in the multi path
// model), non-negative path rates summing to Frac.
func (s *Schedule) Verify() error {
	g := s.Inst.Graph
	k := s.Grid.NumSlots()
	if s.Mode != coflow.SinglePath && (s.Route == nil || len(s.Paths) != len(s.Flows)) {
		return fmt.Errorf("schedule: %v schedule without routing", s.Mode)
	}

	for f, ref := range s.Flows {
		if len(s.Frac[f]) != k {
			return fmt.Errorf("schedule: flow %d has %d slots, grid has %d", f, len(s.Frac[f]), k)
		}
		var total float64
		release := s.Inst.ReleaseAt(ref)
		for t, v := range s.Frac[f] {
			if v < -Eps {
				return fmt.Errorf("schedule: flow %d slot %d negative fraction %g", f, t, v)
			}
			total += v
			if v > Eps && s.Grid.Start(t)+1e-9 < release {
				return fmt.Errorf("schedule: flow %d transmits in slot %d starting %g before release %g",
					f, t, s.Grid.Start(t), release)
			}
		}
		if math.Abs(total-1) > 1e-5 {
			return fmt.Errorf("schedule: flow %d total fraction %g ≠ 1", f, total)
		}
		if s.Mode == coflow.SinglePath {
			continue
		}
		fl := s.Inst.FlowAt(ref)
		if s.Mode == coflow.MultiPath && !slices.EqualFunc(s.Paths[f], fl.AltPaths, slices.Equal) {
			return fmt.Errorf("schedule: flow %d paths are not its AltPaths", f)
		}
		for r, p := range s.Paths[f] {
			if err := g.ValidatePath(fl.Source, fl.Sink, p); err != nil {
				return fmt.Errorf("schedule: flow %d path %d: %w", f, r, err)
			}
		}
	}

	// A slot's loads come from its cells with a nonzero fraction or path
	// rate, since adding an exact zero leaves a load unchanged, and only
	// the edges those cells load are checked. An edge is listed when a
	// cell loads it while its load is 0; one whose load cancels back to
	// 0 may be listed twice, and a repeat finds it cleared.
	load := make([]float64, g.NumEdges())
	var short [64]graph.EdgeID
	edges := short[:0]
	add := func(path []graph.EdgeID, x float64) {
		for _, e := range path {
			if load[e] == 0 {
				edges = append(edges, e)
			}
			load[e] += x
		}
	}
	for t := 0; t < k; t++ {
		for f, ref := range s.Flows {
			if s.Mode == coflow.SinglePath {
				if v := s.Frac[f][t]; v != 0 {
					fl := s.Inst.FlowAt(ref)
					add(fl.Path, fl.Demand*v)
				}
				continue
			}
			pf := s.Route[f][t]
			if len(pf) != len(s.Paths[f]) {
				return fmt.Errorf("schedule: flow %d slot %d has %d path rates, want %d",
					f, t, len(pf), len(s.Paths[f]))
			}
			var total float64
			for pi, v := range pf {
				if v < -Eps {
					return fmt.Errorf("schedule: flow %d slot %d path %d negative %g", f, t, pi, v)
				}
				total += v
				if v != 0 {
					add(s.Paths[f][pi], s.Inst.FlowAt(ref).Demand*v)
				}
			}
			if math.Abs(total-s.Frac[f][t]) > 1e-5 {
				return fmt.Errorf("schedule: flow %d slot %d path rates sum %g ≠ frac %g",
					f, t, total, s.Frac[f][t])
			}
		}
		// Report the overloaded edge of lowest ID, the one a scan of
		// every edge would find first, and clear the loads for slot t+1.
		var err error
		over := graph.EdgeID(g.NumEdges())
		for _, e := range edges {
			capT := g.Edge(e).Capacity * s.Grid.Len(t)
			if load[e] > capT*(1+1e-6)+1e-9 && e < over {
				over = e
				err = fmt.Errorf("schedule: slot %d edge %d load %g exceeds capacity %g", t, e, load[e], capT)
			}
			load[e] = 0
		}
		if err != nil {
			return err
		}
		edges = edges[:0]
	}
	return nil
}

// Compact applies the paper's idle-slot optimization (Section 6.1):
// the entire content of a slot t moves to an earlier idle slot t′ when
// every flow active in t was released by Start(t′) and t′ is at least
// as long as t. Returns the number of moves performed. Completion
// times never increase.
//
// Each slot's activity and latest release are computed in one sweep of
// the schedule, and after a move only for the two slots it touched.
func (s *Schedule) Compact() int {
	k := s.Grid.NumSlots()
	// Grids of up to 256 slots keep their slot states on the stack.
	var short [256]slotState
	var slot []slotState
	if k <= len(short) {
		slot = short[:k]
	} else {
		slot = make([]slotState, k)
	}
	for f, ref := range s.Flows {
		r := s.Inst.ReleaseAt(ref)
		for t, v := range s.Frac[f] {
			if v > Eps {
				slot[t].active = true
				if r > slot[t].maxRel {
					slot[t].maxRel = r
				}
			}
		}
	}
	for t := range slot {
		slot[t].occupied = slot[t].active
	}
	moves := 0
	for {
		moved := false
		for t := 0; t < k; t++ {
			if !slot[t].occupied {
				continue
			}
			if !slot[t].active {
				slot[t].occupied = false
				continue
			}
			for tp := 0; tp < t; tp++ {
				if slot[tp].occupied || s.Grid.Start(tp) < slot[t].maxRel || s.Grid.Len(tp)+1e-12 < s.Grid.Len(t) {
					continue
				}
				s.moveSlot(t, tp)
				// t is now empty. tp was idle, so inactive with maxRel 0,
				// and now holds the merged content, in which a flow may
				// cross Eps that crossed it in neither slot.
				slot[t] = slotState{}
				slot[tp].occupied = true
				for f, ref := range s.Flows {
					if s.Frac[f][tp] > Eps {
						slot[tp].active = true
						if r := s.Inst.ReleaseAt(ref); r > slot[tp].maxRel {
							slot[tp].maxRel = r
						}
					}
				}
				moves++
				moved = true
				break
			}
		}
		if !moved {
			return moves
		}
	}
}

// slotState is what Compact knows of a slot.
type slotState struct {
	maxRel float64 // latest release of the flows that transmit in the slot, at least 0
	active bool    // some flow transmits in the slot
	// occupied is what Compact's passes believe of the slot. It is
	// refreshed from active when a pass reaches the slot, so a merge
	// that leaves no flow above Eps frees the slot only then.
	occupied bool
}

// moveSlot transfers all content from slot t to slot tp.
func (s *Schedule) moveSlot(t, tp int) {
	for f := range s.Frac {
		s.Frac[f][tp] += s.Frac[f][t]
		s.Frac[f][t] = 0
		if s.Route != nil {
			for r := range s.Route[f][t] {
				s.Route[f][tp][r] += s.Route[f][t][r]
				s.Route[f][t][r] = 0
			}
		}
	}
}

// SampleLambda draws λ from the density f(v) = 2v on (0,1) by inverse
// transform (λ = √U), as prescribed by the Stretch algorithm.
func SampleLambda(rng *rand.Rand) float64 {
	for {
		u := rng.Float64()
		if u > 0 {
			return math.Sqrt(u)
		}
	}
}

// Stretch applies the Section 4.1 transformation to an LP solution:
// whatever the LP schedules during [a, b] is replayed during
// [a/λ, b/λ] at the original rate, and each flow stops once its demand
// is met. Requires a uniform grid (the paper's main algorithm; the
// geometric variant of Appendix A is evaluated through its λ=1
// heuristic). The resulting schedule lives on a uniform grid of
// ⌈K/λ⌉+1 slots for an LP of K slots.
func Stretch(sol *model.Solution, lambda float64) (*Schedule, error) {
	s := new(Schedule)
	if err := StretchInto(s, sol, lambda); err != nil {
		return nil, err
	}
	return s, nil
}

// StretchInto is Stretch writing into dst: it overwrites dst's Frac
// and Route rows in place, growing a row only when the stretched grid
// needs more room than it holds, so a schedule stretched into again
// and again allocates only while its grid grows. dst's rows must not
// be shared with another schedule; a Clone's never are.
func StretchInto(dst *Schedule, sol *model.Solution, lambda float64) error {
	if lambda <= 0 || lambda > 1 {
		return fmt.Errorf("schedule: stretch λ=%g outside (0,1]", lambda)
	}
	if !sol.LP.Grid.IsUniform() {
		return fmt.Errorf("schedule: stretch requires a uniform grid")
	}
	k := sol.LP.Grid.NumSlots()
	newK := int(math.Ceil(float64(k)/lambda)) + 1
	s := dst
	s.Inst, s.Mode, s.Grid = sol.LP.Inst, sol.LP.Mode, timegrid.Uniform(newK)
	s.Flows, s.Paths = sol.LP.Flows(), sol.Paths
	nf := len(s.Flows)
	s.Frac = resize(s.Frac, nf)
	routed := sol.Route != nil
	if routed {
		s.Route = resize(s.Route, nf)
	} else {
		s.Route = nil
	}

	for f := 0; f < nf; f++ {
		s.Frac[f] = resize(s.Frac[f], newK)
		clear(s.Frac[f])
		if routed {
			w := len(sol.Route[f][0])
			s.Route[f] = resize(s.Route[f], newK)
			for t := range s.Route[f] {
				s.Route[f][t] = resize(s.Route[f][t], w)
				clear(s.Route[f][t])
			}
		}
		for src := 0; src < k; src++ {
			v := sol.Frac[f][src]
			if v <= Eps {
				continue
			}
			// Image of slot src = (src, src+1] is (src/λ, (src+1)/λ].
			lo := float64(src) / lambda
			hi := float64(src+1) / lambda
			for j := int(math.Floor(lo)); j < newK && float64(j) < hi; j++ {
				ov := math.Min(float64(j+1), hi) - math.Max(float64(j), lo)
				if ov <= 0 {
					continue
				}
				s.Frac[f][j] += v * ov
				if routed {
					for r, w := range sol.Route[f][src] {
						if w > 0 {
							s.Route[f][j][r] += w * ov
						}
					}
				}
			}
		}
		// Truncate once the demand is met (step 4 of the algorithm).
		cum := 0.0
		for j := 0; j < newK; j++ {
			v := s.Frac[f][j]
			if cum >= 1-1e-12 {
				s.Frac[f][j] = 0
				if routed {
					clear(s.Route[f][j])
				}
				continue
			}
			if cum+v > 1 {
				scale := (1 - cum) / v
				s.Frac[f][j] = v * scale
				if routed {
					for r := range s.Route[f][j] {
						s.Route[f][j][r] *= scale
					}
				}
				cum = 1
				continue
			}
			cum += v
		}
	}
	return nil
}

// resize returns xs with length n, over its own array when that holds
// n elements and over a new one otherwise. A new array takes the whole
// allocation size class n falls in, so that the next resize finds the
// room the allocator hands out anyway.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		xs = slices.Grow([]T(nil), n)
	}
	return xs[:n]
}
