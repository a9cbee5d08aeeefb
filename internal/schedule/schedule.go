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
//     the free path model — per-flow conservation), used as an
//     invariant check throughout the test suite;
//   - completion-time and objective computation.
//
// All times are in slot units.
package schedule

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/timegrid"
)

const eps = 1e-7

// Schedule is a slotted transmission plan. Frac[f][k] is the fraction
// of flat flow f transmitted during slot k; in the free path model
// EdgeFrac[f][k][e] additionally routes that fraction over edges.
type Schedule struct {
	Inst     *coflow.Instance
	Mode     coflow.Model
	Grid     timegrid.Grid
	Flows    []coflow.FlowRef
	Frac     [][]float64
	EdgeFrac [][][]float64 // free path only: [flow][slot][edge]
	PathFrac [][][]float64 // multi path only: [flow][slot][pathIdx]
}

// FromLP converts a solved relaxation into a schedule by taking the LP
// solution directly — the λ=1 LP-based heuristic of Section 6.2.
func FromLP(sol *model.Solution) *Schedule {
	k := sol.LP.Grid.NumSlots()
	s := &Schedule{
		Inst:  sol.LP.Inst,
		Mode:  sol.LP.Mode,
		Grid:  sol.LP.Grid,
		Flows: sol.LP.Flows(),
	}
	s.Frac = make([][]float64, len(s.Flows))
	for f := range s.Flows {
		s.Frac[f] = append([]float64(nil), sol.Frac[f]...)
	}
	if sol.EdgeFrac != nil {
		s.EdgeFrac = make([][][]float64, len(s.Flows))
		for f := range s.Flows {
			s.EdgeFrac[f] = make([][]float64, k)
			for t := 0; t < k; t++ {
				s.EdgeFrac[f][t] = append([]float64(nil), sol.EdgeFrac[f][t]...)
			}
		}
	}
	if sol.PathFrac != nil {
		s.PathFrac = make([][][]float64, len(s.Flows))
		for f := range s.Flows {
			s.PathFrac[f] = make([][]float64, k)
			for t := 0; t < k; t++ {
				s.PathFrac[f][t] = append([]float64(nil), sol.PathFrac[f][t]...)
			}
		}
	}
	return s
}

// Clone deep-copies the schedule.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{Inst: s.Inst, Mode: s.Mode, Grid: s.Grid, Flows: s.Flows}
	c.Frac = make([][]float64, len(s.Frac))
	for f := range s.Frac {
		c.Frac[f] = append([]float64(nil), s.Frac[f]...)
	}
	if s.EdgeFrac != nil {
		c.EdgeFrac = make([][][]float64, len(s.EdgeFrac))
		for f := range s.EdgeFrac {
			c.EdgeFrac[f] = make([][]float64, len(s.EdgeFrac[f]))
			for t := range s.EdgeFrac[f] {
				c.EdgeFrac[f][t] = append([]float64(nil), s.EdgeFrac[f][t]...)
			}
		}
	}
	if s.PathFrac != nil {
		c.PathFrac = make([][][]float64, len(s.PathFrac))
		for f := range s.PathFrac {
			c.PathFrac[f] = make([][]float64, len(s.PathFrac[f]))
			for t := range s.PathFrac[f] {
				c.PathFrac[f][t] = append([]float64(nil), s.PathFrac[f][t]...)
			}
		}
	}
	return c
}

// FlowCompletionTimes returns, per flat flow, the end of the last
// slot in which the flow transmits, or +Inf for a flow whose demand is
// not fully scheduled.
func (s *Schedule) FlowCompletionTimes() []float64 {
	out := make([]float64, len(s.Flows))
	for f := range s.Flows {
		var total float64
		last := -1
		for k, v := range s.Frac[f] {
			total += v
			if v > eps {
				last = k
			}
		}
		if total < 1-1e-5 || last < 0 {
			out[f] = math.Inf(1)
		} else {
			out[f] = s.Grid.End(last)
		}
	}
	return out
}

// CompletionTimes returns, per coflow, the end of the last slot in
// which any of its flows transmits (Eq. 12 of the paper), in slot
// units. A coflow with an unscheduled flow gets +Inf.
func (s *Schedule) CompletionTimes() []float64 {
	out := make([]float64, len(s.Inst.Coflows))
	for f, ref := range s.Flows {
		var total float64
		last := -1
		for k, v := range s.Frac[f] {
			total += v
			if v > eps {
				last = k
			}
		}
		var c float64
		if total < 1-1e-5 || last < 0 {
			c = math.Inf(1)
		} else {
			c = s.Grid.End(last)
		}
		if c > out[ref.Coflow] {
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

// Makespan returns the end of the last active slot, or 0 for an empty
// schedule.
func (s *Schedule) Makespan() float64 {
	last := -1
	for f := range s.Frac {
		for k, v := range s.Frac[f] {
			if v > eps && k > last {
				last = k
			}
		}
	}
	if last < 0 {
		return 0
	}
	return s.Grid.End(last)
}

// Verify checks feasibility: every demand fully scheduled, no
// transmission before release, per-slot capacity respected, and (free
// path) per-flow conservation with edge routing consistent with Frac.
func (s *Schedule) Verify() error {
	g := s.Inst.Graph
	k := s.Grid.NumSlots()
	if s.Mode == coflow.FreePath && s.EdgeFrac == nil {
		return fmt.Errorf("schedule: free path schedule without edge routing")
	}
	if s.Mode == coflow.MultiPath && s.PathFrac == nil {
		return fmt.Errorf("schedule: multi path schedule without path rates")
	}

	for f, ref := range s.Flows {
		if len(s.Frac[f]) != k {
			return fmt.Errorf("schedule: flow %d has %d slots, grid has %d", f, len(s.Frac[f]), k)
		}
		var total float64
		release := s.Inst.ReleaseAt(ref)
		for t, v := range s.Frac[f] {
			if v < -eps {
				return fmt.Errorf("schedule: flow %d slot %d negative fraction %g", f, t, v)
			}
			total += v
			if v > eps && s.Grid.Start(t)+1e-9 < release {
				return fmt.Errorf("schedule: flow %d transmits in slot %d starting %g before release %g",
					f, t, s.Grid.Start(t), release)
			}
		}
		if math.Abs(total-1) > 1e-5 {
			return fmt.Errorf("schedule: flow %d total fraction %g ≠ 1", f, total)
		}
	}

	switch s.Mode {
	case coflow.SinglePath:
		for t := 0; t < k; t++ {
			load := make([]float64, g.NumEdges())
			for f, ref := range s.Flows {
				fl := s.Inst.FlowAt(ref)
				for _, eid := range fl.Path {
					load[eid] += fl.Demand * s.Frac[f][t]
				}
			}
			for _, e := range g.Edges() {
				capT := e.Capacity * s.Grid.Len(t)
				if load[e.ID] > capT*(1+1e-6)+1e-9 {
					return fmt.Errorf("schedule: slot %d edge %d load %g exceeds capacity %g",
						t, e.ID, load[e.ID], capT)
				}
			}
		}
	case coflow.MultiPath:
		for t := 0; t < k; t++ {
			load := make([]float64, g.NumEdges())
			for f, ref := range s.Flows {
				fl := s.Inst.FlowAt(ref)
				pf := s.PathFrac[f][t]
				if len(pf) != len(fl.AltPaths) {
					return fmt.Errorf("schedule: flow %d slot %d has %d path rates, want %d",
						f, t, len(pf), len(fl.AltPaths))
				}
				var total float64
				for pi, v := range pf {
					if v < -eps {
						return fmt.Errorf("schedule: flow %d slot %d path %d negative %g", f, t, pi, v)
					}
					total += v
					for _, eid := range fl.AltPaths[pi] {
						load[eid] += fl.Demand * v
					}
				}
				if math.Abs(total-s.Frac[f][t]) > 1e-5 {
					return fmt.Errorf("schedule: flow %d slot %d path rates sum %g ≠ frac %g",
						f, t, total, s.Frac[f][t])
				}
			}
			for _, e := range g.Edges() {
				capT := e.Capacity * s.Grid.Len(t)
				if load[e.ID] > capT*(1+1e-6)+1e-9 {
					return fmt.Errorf("schedule: slot %d edge %d load %g exceeds capacity %g",
						t, e.ID, load[e.ID], capT)
				}
			}
		}
	case coflow.FreePath:
		for t := 0; t < k; t++ {
			load := make([]float64, g.NumEdges())
			for f, ref := range s.Flows {
				fl := s.Inst.FlowAt(ref)
				ef := s.EdgeFrac[f][t]
				// Net source outflow must equal Frac.
				var net float64
				for _, eid := range g.OutEdges(fl.Source) {
					net += ef[eid]
				}
				for _, eid := range g.InEdges(fl.Source) {
					net -= ef[eid]
				}
				if math.Abs(net-s.Frac[f][t]) > 1e-5 {
					return fmt.Errorf("schedule: flow %d slot %d source net %g ≠ frac %g",
						f, t, net, s.Frac[f][t])
				}
				// Conservation at internal nodes.
				for v := 0; v < g.NumNodes(); v++ {
					nv := gNode(v)
					if nv == fl.Source || nv == fl.Sink {
						continue
					}
					var bal float64
					for _, eid := range g.InEdges(nv) {
						bal += ef[eid]
					}
					for _, eid := range g.OutEdges(nv) {
						bal -= ef[eid]
					}
					if math.Abs(bal) > 1e-5 {
						return fmt.Errorf("schedule: flow %d slot %d node %d conservation off by %g",
							f, t, v, bal)
					}
				}
				for e := range ef {
					if ef[e] < -eps {
						return fmt.Errorf("schedule: flow %d slot %d edge %d negative %g", f, t, e, ef[e])
					}
					load[e] += fl.Demand * ef[e]
				}
			}
			for _, e := range g.Edges() {
				capT := e.Capacity * s.Grid.Len(t)
				if load[e.ID] > capT*(1+1e-6)+1e-9 {
					return fmt.Errorf("schedule: slot %d edge %d load %g exceeds capacity %g",
						t, e.ID, load[e.ID], capT)
				}
			}
		}
	default:
		return fmt.Errorf("schedule: unknown mode %v", s.Mode)
	}
	return nil
}

// Compact applies the paper's idle-slot optimization (Section 6.1):
// the entire content of a slot t moves to an earlier idle slot t′ when
// every flow active in t was released by Start(t′) and t′ is at least
// as long as t. Returns the number of moves performed. Completion
// times never increase.
func (s *Schedule) Compact() int {
	k := s.Grid.NumSlots()
	occupied := make([]bool, k)
	for f := range s.Frac {
		for t, v := range s.Frac[f] {
			if v > eps {
				occupied[t] = true
			}
		}
		// Edge-level activity (e.g. circulations in LP vertices) also
		// marks a slot busy: merging into such a slot could overload
		// its edges.
		if s.EdgeFrac != nil {
			for t := range s.EdgeFrac[f] {
				if !occupied[t] && anyPositive(s.EdgeFrac[f][t]) {
					occupied[t] = true
				}
			}
		}
	}
	moves := 0
	for {
		moved := false
		for t := 0; t < k; t++ {
			if !occupied[t] {
				continue
			}
			// Latest release among flows active at t.
			var maxRel float64
			active := false
			for f, ref := range s.Flows {
				if s.Frac[f][t] > eps {
					active = true
					if r := s.Inst.ReleaseAt(ref); r > maxRel {
						maxRel = r
					}
				}
			}
			if !active {
				occupied[t] = false
				continue
			}
			for tp := 0; tp < t; tp++ {
				if occupied[tp] || s.Grid.Start(tp) < maxRel || s.Grid.Len(tp)+1e-12 < s.Grid.Len(t) {
					continue
				}
				s.moveSlot(t, tp)
				occupied[tp] = true
				occupied[t] = false
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

// moveSlot transfers all content from slot t to slot tp.
func (s *Schedule) moveSlot(t, tp int) {
	for f := range s.Frac {
		s.Frac[f][tp] += s.Frac[f][t]
		s.Frac[f][t] = 0
		if s.EdgeFrac != nil {
			for e := range s.EdgeFrac[f][t] {
				s.EdgeFrac[f][tp][e] += s.EdgeFrac[f][t][e]
				s.EdgeFrac[f][t][e] = 0
			}
		}
		if s.PathFrac != nil {
			for p := range s.PathFrac[f][t] {
				s.PathFrac[f][tp][p] += s.PathFrac[f][t][p]
				s.PathFrac[f][t][p] = 0
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
// ⌈K/λ⌉ slots.
func Stretch(sol *model.Solution, lambda float64) (*Schedule, error) {
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("schedule: stretch λ=%g outside (0,1]", lambda)
	}
	if !sol.LP.Grid.IsUniform() {
		return nil, fmt.Errorf("schedule: stretch requires a uniform grid")
	}
	k := sol.LP.Grid.NumSlots()
	newK := int(math.Ceil(float64(k)/lambda)) + 1
	grid := timegrid.Uniform(newK)
	s := &Schedule{
		Inst:  sol.LP.Inst,
		Mode:  sol.LP.Mode,
		Grid:  grid,
		Flows: sol.LP.Flows(),
	}
	nf := len(s.Flows)
	s.Frac = make([][]float64, nf)
	free := sol.EdgeFrac != nil
	multi := sol.PathFrac != nil
	if free {
		s.EdgeFrac = make([][][]float64, nf)
	}
	if multi {
		s.PathFrac = make([][][]float64, nf)
	}
	ne := sol.LP.Inst.Graph.NumEdges()

	for f := 0; f < nf; f++ {
		s.Frac[f] = make([]float64, newK)
		if free {
			s.EdgeFrac[f] = make([][]float64, newK)
			for t := 0; t < newK; t++ {
				s.EdgeFrac[f][t] = make([]float64, ne)
			}
		}
		if multi {
			np := len(sol.PathFrac[f][0])
			s.PathFrac[f] = make([][]float64, newK)
			for t := 0; t < newK; t++ {
				s.PathFrac[f][t] = make([]float64, np)
			}
		}
		for src := 0; src < k; src++ {
			v := sol.Frac[f][src]
			hasEdges := free && anyPositive(sol.EdgeFrac[f][src])
			if v <= eps && !hasEdges {
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
				if free {
					for e := 0; e < ne; e++ {
						if w := sol.EdgeFrac[f][src][e]; w > 0 {
							s.EdgeFrac[f][j][e] += w * ov
						}
					}
				}
				if multi {
					for p, w := range sol.PathFrac[f][src] {
						if w > 0 {
							s.PathFrac[f][j][p] += w * ov
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
				if free {
					zero(s.EdgeFrac[f][j])
				}
				if multi {
					zero(s.PathFrac[f][j])
				}
				continue
			}
			if cum+v > 1 {
				scale := (1 - cum) / v
				s.Frac[f][j] = v * scale
				if free {
					for e := range s.EdgeFrac[f][j] {
						s.EdgeFrac[f][j][e] *= scale
					}
				}
				if multi {
					for p := range s.PathFrac[f][j] {
						s.PathFrac[f][j][p] *= scale
					}
				}
				cum = 1
				continue
			}
			cum += v
		}
	}
	return s, nil
}

func anyPositive(xs []float64) bool {
	for _, x := range xs {
		if x > eps {
			return true
		}
	}
	return false
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// gNode converts an int loop index to a graph node id.
func gNode(v int) graph.NodeID { return graph.NodeID(v) }
