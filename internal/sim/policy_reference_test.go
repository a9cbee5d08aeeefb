package sim

import (
	"context"
	"math"
	"sort"

	"repro/internal/graph"
)

// This file keeps the original, un-optimized LAS and fair policies
// verbatim as executable specifications, mirroring the split of the
// event loop into Simulate and simulateReference (reference_test.go):
// the registered "las" and "fair" policies (policy.go) maintain their
// state incrementally across events, and the differential property
// tests (policy_differential_test.go) hold them to these from-scratch
// implementations on every topology family: las bit-identical, fair to
// the same event sequence with times within 1e-9 relative. Both live
// in test files, so the shipped package carries only the fast path.

// priorityRatesReference is the plain strict water-filling walk that
// PriorityRates must reproduce: every flow of every coflow in the
// order, in order, with no scratch, no blocked-coflow skip and no
// early exit. Each available flow gets the least residual along its
// path when that exceeds eps.
func priorityRatesReference(st *State, order []int) []FlowRate {
	g := st.Inst.Graph
	residual := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		residual[e.ID] = e.Capacity
	}
	var out []FlowRate
	for _, j := range order {
		for i, fl := range st.Inst.Coflows[j].Flows {
			if st.Remaining[j][i] <= eps || !st.Available(j, i) {
				continue
			}
			r := math.Inf(1)
			for _, e := range fl.Path {
				if residual[e] < r {
					r = residual[e]
				}
			}
			if r <= eps {
				continue
			}
			out = append(out, FlowRate{Coflow: j, Flow: i, Rate: r})
			for _, e := range fl.Path {
				residual[e] -= r
			}
		}
	}
	return out
}

// lasReference re-sorts the full active set by attained service at
// every event — the original lasPolicy. O(active·log active) per event
// plus the reflect-based swap of sort.SliceStable, which is exactly
// what the incremental order in lasPolicy exists to avoid.
type lasReference struct {
	order []int
}

func (*lasReference) Name() string { return NameLAS }
func (p *lasReference) Allocate(_ context.Context, st *State, out *Alloc) error {
	p.order = append(p.order[:0], st.Active...)
	sort.SliceStable(p.order, func(a, b int) bool {
		ja, jb := p.order[a], p.order[b]
		if st.Attained[ja] != st.Attained[jb] {
			return st.Attained[ja] < st.Attained[jb]
		}
		return st.Arrival[ja] < st.Arrival[jb]
	})
	PriorityRates(st, p.order, out)
	return nil
}

// fairReference is the original from-scratch progressive filling: per
// event it rebuilds the live-flow list, then every round recounts all
// unfrozen paths, applies the uniform raise flow by flow, and rescans
// every flow for freezing — O(rounds · live · path) per event. The
// registered fairPolicy produces the same rates up to last-bit
// rounding, with its flow and per-edge lists kept across events and
// each saturation taken from a heap of edge levels.
type fairReference struct {
	g        *graph.Graph
	live     []refLiveFlow
	count    []int
	caps     []float64
	residual []float64
}

type refLiveFlow struct {
	j, i   int
	rate   float64
	frozen bool
}

func (*fairReference) Name() string { return NameFair }
func (p *fairReference) Allocate(_ context.Context, st *State, out *Alloc) error {
	g := st.Inst.Graph
	if p.g != g {
		p.g = g
		p.caps = make([]float64, g.NumEdges())
		for _, e := range g.Edges() {
			p.caps[e.ID] = e.Capacity
		}
		p.residual = make([]float64, g.NumEdges())
		p.count = make([]int, g.NumEdges())
	}
	copy(p.residual, p.caps)
	residual, count := p.residual, p.count
	p.live = p.live[:0]
	for _, j := range st.Active {
		c := &st.Inst.Coflows[j]
		for i := range c.Flows {
			if st.Remaining[j][i] > eps && st.Available(j, i) {
				p.live = append(p.live, refLiveFlow{j: j, i: i})
			}
		}
	}
	live := p.live
	for unfrozen := len(live); unfrozen > 0; {
		for e := range count {
			count[e] = 0
		}
		for _, lf := range live {
			if lf.frozen {
				continue
			}
			for _, e := range st.Inst.Coflows[lf.j].Flows[lf.i].Path {
				count[e]++
			}
		}
		delta := -1.0
		for e, n := range count {
			if n == 0 {
				continue
			}
			if share := residual[e] / float64(n); delta < 0 || share < delta {
				delta = share
			}
		}
		if delta > 0 {
			for i := range live {
				if live[i].frozen {
					continue
				}
				live[i].rate += delta
				for _, e := range st.Inst.Coflows[live[i].j].Flows[live[i].i].Path {
					residual[e] -= delta
				}
			}
		}
		// Freeze flows through saturated edges; every round freezes at
		// least one flow, so the loop terminates.
		frozeAny := false
		for i := range live {
			if live[i].frozen {
				continue
			}
			for _, e := range st.Inst.Coflows[live[i].j].Flows[live[i].i].Path {
				if residual[e] <= eps {
					live[i].frozen = true
					unfrozen--
					frozeAny = true
					break
				}
			}
		}
		if !frozeAny {
			// No edge saturated (delta ≤ 0 with residual slack cannot
			// happen, but guard against float drift).
			break
		}
	}
	for _, lf := range live {
		if lf.rate > eps {
			out.Grant(lf.j, lf.i, lf.rate)
		}
	}
	return nil
}
