package schedule

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// verifyDense is the reference Verify: it loads every edge of every
// cell, zeros included, and checks every edge of every slot.
func (s *Schedule) verifyDense() error {
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

	load := make([]float64, g.NumEdges())
	for t := 0; t < k; t++ {
		clear(load)
		for f, ref := range s.Flows {
			fl := s.Inst.FlowAt(ref)
			switch s.Mode {
			case coflow.SinglePath:
				for _, eid := range fl.Path {
					load[eid] += fl.Demand * s.Frac[f][t]
				}
			default:
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
					for _, eid := range s.Paths[f][pi] {
						load[eid] += fl.Demand * v
					}
				}
				if math.Abs(total-s.Frac[f][t]) > 1e-5 {
					return fmt.Errorf("schedule: flow %d slot %d path rates sum %g ≠ frac %g",
						f, t, total, s.Frac[f][t])
				}
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
	return nil
}

// compactDense is the reference Compact: every pass rescans every
// flow for each occupied slot.
func (s *Schedule) compactDense() int {
	k := s.Grid.NumSlots()
	occupied := make([]bool, k)
	for f := range s.Frac {
		for t, v := range s.Frac[f] {
			if v > Eps {
				occupied[t] = true
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
				if s.Frac[f][t] > Eps {
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

// randomLP solves a random instance of the given model on SWAN: 3–5
// coflows of 1–2 flows each, demands in [0.5, 3.5) and releases in
// {0, 1, 2}, on a uniform grid long enough to be feasible.
func randomLP(t *testing.T, rng *rand.Rand, mode coflow.Model) *model.Solution {
	t.Helper()
	g := graph.SWAN(1)
	in := &coflow.Instance{Graph: g}
	for j := 0; j < 3+rng.Intn(3); j++ {
		c := coflow.Coflow{ID: j, Weight: 1 + 9*rng.Float64(), Release: float64(rng.Intn(3))}
		for i := 0; i < 1+rng.Intn(2); i++ {
			src := graph.NodeID(rng.Intn(g.NumNodes()))
			dst := graph.NodeID(rng.Intn(g.NumNodes() - 1))
			if dst >= src {
				dst++
			}
			c.Flows = append(c.Flows, coflow.Flow{Source: src, Sink: dst, Demand: 0.5 + 3*rng.Float64()})
		}
		in.Coflows = append(in.Coflows, c)
	}
	grid := timegrid.Uniform(int(math.Ceil(in.HorizonUpperBound(mode))) + 2)
	var l *model.LP
	var err error
	switch mode {
	case coflow.SinglePath:
		if err = in.AssignRandomShortestPaths(rng); err == nil {
			l, err = model.BuildSinglePath(in, grid)
		}
	case coflow.FreePath:
		l, err = model.BuildFreePath(in, grid)
	default:
		if err = in.AssignKShortestPaths(2); err == nil {
			l, err = model.BuildMultiPath(in, grid)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// mutation changes a schedule the way a buggy producer or a rounding
// near Eps might; reshape reports whether it breaks the schedule's
// shape, which Compact assumes.
type mutation struct {
	name    string
	reshape bool
	apply   func(rng *rand.Rand, s *Schedule)
}

// mutations lists the kinds of schedule the references are compared
// on: valid ones, cells within Eps of zero, merges that land near Eps,
// and each violation Verify reports.
var mutations = []mutation{
	{"valid", false, func(*rand.Rand, *Schedule) {}},
	{"cells within Eps of zero", false, func(rng *rand.Rand, s *Schedule) {
		for n := 0; n < 1+rng.Intn(8); n++ {
			f, t := rng.Intn(len(s.Frac)), rng.Intn(s.Grid.NumSlots())
			v := nearEps[rng.Intn(len(nearEps))]
			s.Frac[f][t] += v
			if s.Route != nil {
				s.Route[f][t][rng.Intn(len(s.Route[f][t]))] += v
			}
		}
	}},
	{"merge near Eps", false, func(rng *rand.Rand, s *Schedule) {
		// Put a fraction below Eps into an idle slot and another into a
		// later busy one, so that a move adds them up near Eps.
		idle, busy := slotsByUse(s)
		if len(idle) == 0 || len(busy) == 0 {
			return
		}
		tp, t := idle[rng.Intn(len(idle))], busy[rng.Intn(len(busy))]
		if tp > t {
			tp, t = t, tp // a busy slot before an idle one still gets tiny cells
		}
		f := rng.Intn(len(s.Frac))
		for _, c := range []struct {
			slot int
			v    float64
		}{{tp, nearEps[rng.Intn(len(nearEps))]}, {t, nearEps[rng.Intn(len(nearEps))]}} {
			if s.Frac[f][c.slot] > Eps {
				continue
			}
			s.Frac[f][c.slot] = c.v
			if s.Route != nil {
				clear(s.Route[f][c.slot])
				s.Route[f][c.slot][0] = c.v
			}
		}
	}},
	{"negative fraction", false, func(rng *rand.Rand, s *Schedule) {
		s.Frac[rng.Intn(len(s.Frac))][rng.Intn(s.Grid.NumSlots())] = -2 * Eps
	}},
	{"total ≠ 1", false, func(rng *rand.Rand, s *Schedule) {
		f := rng.Intn(len(s.Frac))
		t := busySlot(rng, s, f)
		s.Frac[f][t] *= 1.5
		if s.Route != nil {
			for r := range s.Route[f][t] {
				s.Route[f][t][r] *= 1.5
			}
		}
	}},
	{"transmission before release", false, func(rng *rand.Rand, s *Schedule) {
		for f, ref := range s.Flows {
			if s.Inst.ReleaseAt(ref) > 0 {
				t := busySlot(rng, s, f)
				s.Frac[f][0], s.Frac[f][t] = s.Frac[f][t], s.Frac[f][0]
				if s.Route != nil {
					s.Route[f][0], s.Route[f][t] = s.Route[f][t], s.Route[f][0]
				}
				return
			}
		}
	}},
	{"capacity", false, func(rng *rand.Rand, s *Schedule) { overload(rng, s) }},
	{"capacity with cells within Eps of zero", false, func(rng *rand.Rand, s *Schedule) {
		// The overloaded slot's reported load includes the tiny cells
		// of the flows that share its edges.
		t := overload(rng, s)
		for g := range s.Frac {
			if s.Frac[g][t] == 0 {
				v := nearEps[rng.Intn(len(nearEps))]
				s.Frac[g][t] = v
				if s.Route != nil {
					s.Route[g][t][rng.Intn(len(s.Route[g][t]))] = v
				}
			}
		}
	}},
	{"short slot row", true, func(rng *rand.Rand, s *Schedule) {
		f := rng.Intn(len(s.Frac))
		s.Frac[f] = s.Frac[f][:len(s.Frac[f])-1]
	}},
	{"path rate count", true, func(rng *rand.Rand, s *Schedule) {
		if s.Route == nil {
			return
		}
		f := rng.Intn(len(s.Route))
		t := rng.Intn(len(s.Route[f]))
		s.Route[f][t] = append(s.Route[f][t], 0)
	}},
	{"negative path rate", false, func(rng *rand.Rand, s *Schedule) {
		if s.Route == nil {
			return
		}
		f := rng.Intn(len(s.Route))
		s.Route[f][rng.Intn(len(s.Route[f]))][0] = -2 * Eps
	}},
	{"path rates off Frac", false, func(rng *rand.Rand, s *Schedule) {
		if s.Route == nil {
			return
		}
		f := rng.Intn(len(s.Route))
		t := busySlot(rng, s, f)
		s.Route[f][t][0] += 0.25
	}},
	{"route of another flow", false, func(rng *rand.Rand, s *Schedule) {
		if s.Route == nil || len(s.Paths) < 2 {
			return
		}
		f, g := rng.Intn(len(s.Paths)), rng.Intn(len(s.Paths))
		if f == g {
			return
		}
		s.Paths = slices.Clone(s.Paths)
		s.Paths[f] = slices.Repeat([][]graph.EdgeID{s.Paths[g][0]}, len(s.Paths[f]))
	}},
	{"no routing", true, func(_ *rand.Rand, s *Schedule) {
		if s.Route != nil {
			s.Route = nil
		}
	}},
}

// nearEps holds fractions at and around the schedule's tolerance.
var nearEps = []float64{Eps, -Eps, 0.4 * Eps, 0.6 * Eps, 0.999 * Eps, 1.001 * Eps, -0.3 * Eps, Eps / 2, 1e-12}

// slotsByUse splits the slots into those where no flow transmits and
// the others.
func slotsByUse(s *Schedule) (idle, busy []int) {
	for t := 0; t < s.Grid.NumSlots(); t++ {
		used := false
		for f := range s.Frac {
			used = used || s.Frac[f][t] > Eps
		}
		if used {
			busy = append(busy, t)
		} else {
			idle = append(idle, t)
		}
	}
	return idle, busy
}

// overload ships a random flow in a single slot in which it
// transmits, and returns that slot.
func overload(rng *rand.Rand, s *Schedule) int {
	f := rng.Intn(len(s.Frac))
	t := busySlot(rng, s, f)
	for k := range s.Frac[f] {
		s.Frac[f][k] = 0
		if s.Route != nil && k != t {
			clear(s.Route[f][k])
		}
	}
	if s.Route != nil {
		sum := 0.0
		for _, v := range s.Route[f][t] {
			sum += v
		}
		for r := range s.Route[f][t] {
			s.Route[f][t][r] /= sum
		}
	}
	s.Frac[f][t] = 1
	return t
}

// busySlot returns a random slot in which flow f transmits.
func busySlot(rng *rand.Rand, s *Schedule, f int) int {
	var ts []int
	for t, v := range s.Frac[f] {
		if v > Eps {
			ts = append(ts, t)
		}
	}
	return ts[rng.Intn(len(ts))]
}

// TestVerifyAndCompactMatchReferences: on random schedules of all three
// models, heuristic and stretched, each left valid or changed by one
// mutation, Verify gives the reference's verdict with the same text,
// and Compact makes the reference's moves with bit-equal Frac and
// Route, after which the verdicts agree again.
func TestVerifyAndCompactMatchReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	failed := make(map[string]int) // schedules the reference rejected, by mutation
	moves := 0
	for _, mode := range []coflow.Model{coflow.SinglePath, coflow.FreePath, coflow.MultiPath} {
		for inst := 0; inst < 4; inst++ {
			sol := randomLP(t, rng, mode)
			for trial := 0; trial < 12; trial++ {
				base := FromLP(sol)
				if trial > 0 {
					var err error
					if base, err = Stretch(sol, 0.05+0.95*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
				for _, m := range mutations {
					s := base.Clone()
					m.apply(rng, s)
					name := fmt.Sprintf("%v, instance %d, trial %d, %s", mode, inst, trial, m.name)
					want := s.verifyDense()
					if got := s.Verify(); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: Verify says %v, the reference %v", name, got, want)
					}
					if want != nil {
						failed[m.name]++
					}
					if m.reshape {
						continue
					}
					a, b := s.Clone(), s.Clone()
					n, ref := a.Compact(), b.compactDense()
					if n != ref {
						t.Fatalf("%s: Compact made %d moves, the reference %d", name, n, ref)
					}
					moves += n
					if d := scheduleDiff(a, b); d != "" {
						t.Fatalf("%s: Compact and the reference differ: %s", name, d)
					}
					if got, want := a.Verify(), b.verifyDense(); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: after compaction Verify says %v, the reference %v", name, got, want)
					}
				}
			}
		}
	}
	// The comparison means something only if every violation was
	// caught somewhere, no valid schedule was rejected, and slots moved.
	for _, m := range mutations[3:] {
		if failed[m.name] == 0 {
			t.Errorf("no schedule with the mutation %q failed verification", m.name)
		}
	}
	if failed["valid"] > 0 || moves == 0 {
		t.Errorf("%d valid schedules failed verification; compaction made %d moves", failed["valid"], moves)
	}
}

// scheduleDiff names the first cell in which a and b differ, comparing
// fractions and path rates by their bits; "" when they are identical.
func scheduleDiff(a, b *Schedule) string {
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	if len(a.Frac) != len(b.Frac) || (a.Route == nil) != (b.Route == nil) {
		return "shape"
	}
	for f := range a.Frac {
		if !same(a.Frac[f], b.Frac[f]) {
			return fmt.Sprintf("Frac of flow %d", f)
		}
		if a.Route == nil {
			continue
		}
		if len(a.Route[f]) != len(b.Route[f]) {
			return fmt.Sprintf("Route slots of flow %d", f)
		}
		for t := range a.Route[f] {
			if !same(a.Route[f][t], b.Route[f][t]) {
				return fmt.Sprintf("Route of flow %d in slot %d", f, t)
			}
		}
	}
	return ""
}
