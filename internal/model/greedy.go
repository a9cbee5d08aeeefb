package model

import (
	"sort"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/simplex"
)

// GreedyBasis constructs a warm-start basis for the single path
// relaxation from a greedy work-conserving schedule: coflows in
// weight-over-demand (Smith rule) order, each released flow filling the
// earliest slots its path has capacity for. The schedule is feasible by
// construction, so the basis encodes a primal feasible vertex and the
// solver can skip phase 1 outright; because it also ships every flow as
// early as the greedy order allows, phase 2 starts near the optimum
// instead of walking there from an artificial start.
//
// The basis is exact, not heuristic: every fractional quantity is
// basic, every tight capacity row claimed by the flow that saturated
// it, and the basic count equals the row count. Validation stays with
// the solver — a rejected basis only costs the cold start it replaces.
// Returns nil when the model is not single path or the greedy schedule
// does not complete within the horizon.
func (l *LP) GreedyBasis() *lp.Basis {
	if l.Mode != coflow.SinglePath {
		return nil
	}
	inst, g, k := l.Inst, l.Inst.Graph, l.Grid.NumSlots()
	nf := len(l.flows)
	nc := len(inst.Coflows)

	// Remaining capacity per (edge, slot), in demand units.
	ne := g.NumEdges()
	rem := make([][]float64, ne)
	for e := 0; e < ne; e++ {
		rem[e] = make([]float64, k)
		cap := g.Edge(graph.EdgeID(e)).Capacity
		for t := 0; t < k; t++ {
			rem[e][t] = cap * l.Grid.Len(t)
		}
	}

	// Smith-rule coflow priority: weight over total demand, descending,
	// index as the deterministic tie-break.
	order := make([]int, nc)
	for j := range order {
		order[j] = j
	}
	ratio := make([]float64, nc)
	for j := 0; j < nc; j++ {
		c := &inst.Coflows[j]
		if d := c.TotalDemand(); d > 0 {
			ratio[j] = c.Weight / d
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ratio[order[a]] > ratio[order[b]]
	})
	flowsOf := make([][]int, nc)
	for f, ref := range l.flows {
		flowsOf[ref.Coflow] = append(flowsOf[ref.Coflow], f)
	}

	remaining := make([]float64, nf)
	for f, ref := range l.flows {
		remaining[f] = inst.FlowAt(ref).Demand
	}
	frac := make([][]float64, nf) // x_f(t) fractions, lazily sized
	ta := make([]int, nf)         // first shipping slot
	tb := make([]int, nf)         // completion slot
	for f := range ta {
		ta[f], tb[f] = -1, -1
	}
	// A claim records the flow whose shipment saturated edge e in slot
	// t mid-flight; that flow's x_f(t) is basic on the capacity row and
	// the row's slack pinned at zero.
	type claim struct{ e, t, f int }
	var claims []claim

	for t := 0; t < k; t++ {
		for _, j := range order {
			for _, f := range flowsOf[j] {
				if remaining[f] <= 0 || l.first[f] > t {
					continue
				}
				fl := inst.FlowAt(l.flows[f])
				a := remaining[f]
				for _, e := range fl.Path {
					if r := rem[e][t]; r < a {
						a = r
					}
				}
				if a <= 0 {
					continue
				}
				for _, e := range fl.Path {
					rem[e][t] -= a
				}
				if frac[f] == nil {
					frac[f] = make([]float64, k)
				}
				frac[f][t] = a / fl.Demand
				if ta[f] < 0 {
					ta[f] = t
				}
				if a < remaining[f] {
					// Mid-flight shipment: capped by the path bottleneck,
					// which this subtraction drove to exactly zero. A
					// previously claimed edge cannot recur (its remaining
					// capacity was already zero, so a would have been 0).
					for _, e := range fl.Path {
						if rem[e][t] == 0 {
							claims = append(claims, claim{int(e), t, f})
							break
						}
					}
				} else {
					tb[f] = t
				}
				remaining[f] -= a
			}
		}
	}
	for f := range remaining {
		if remaining[f] > 0 {
			return nil // horizon too short for the greedy order
		}
	}

	// Slacks start basic on the LE rows and tight on the GE completion
	// rows (C_j basic there); the binding indicator rows and the
	// claimed capacity rows are pinned below.
	b := &lp.Basis{
		Vars: make([]int8, l.Model.NumVars()),
		Cons: make([]int8, l.Model.NumConstrs()),
	}
	for c := range b.Cons {
		if l.Model.ConstrSense(lp.ConstrID(c)) == lp.GE {
			b.Cons[c] = simplex.VarUpper
		} else {
			b.Cons[c] = simplex.VarBasic
		}
	}

	// Flow variables: x basic on every recurrence row outside the
	// shipping window (value 0) and on the completion slot; y basic —
	// fractional — strictly inside the window; mid-flight x basic on the
	// capacity row they saturated.
	for f := range l.flows {
		for t := l.first[f]; t < k; t++ {
			xs, ys := simplex.VarBasic, int8(simplex.VarUpper)
			switch {
			case t < ta[f]:
				ys = simplex.VarLower
			case t < tb[f]:
				ys = simplex.VarBasic
				if frac[f] == nil || frac[f][t] == 0 {
					xs = simplex.VarLower
				}
			}
			b.Vars[l.x[f][t]] = xs
			b.Vars[l.y[f][t]] = ys
		}
	}

	// Cumulative fractions, for the completion indicators below.
	yval := make([][]float64, nf)
	for f := range l.flows {
		yval[f] = make([]float64, k)
		c := 0.0
		for t := 0; t < k; t++ {
			if frac[f] != nil {
				c += frac[f][t]
			}
			if t >= tb[f] {
				c = 1 // completion is exact; shed the summation roundoff
			}
			yval[f][t] = c
		}
	}

	// Coflow variables: the completion indicator takes the LP-optimal
	// value for this schedule, X_j(t) = min_f y_f(t) — the fractional
	// "partial completion" credit is where the relaxation's objective
	// lives, so rounding it up front would strand the start far from
	// the optimum. A fractional indicator is basic on the binding
	// flow's indicator row; C_j is basic on the completion row.
	for j := 0; j < nc; j++ {
		for t := 0; t < k; t++ {
			if l.xj[j][t] < 0 {
				continue
			}
			mn, argmin := 2.0, -1
			for _, f := range flowsOf[j] {
				if yval[f][t] < mn {
					mn, argmin = yval[f][t], f
				}
			}
			switch {
			case mn <= 0:
				b.Vars[l.xj[j][t]] = simplex.VarLower
			case mn >= 1:
				b.Vars[l.xj[j][t]] = simplex.VarUpper
			default:
				b.Vars[l.xj[j][t]] = simplex.VarBasic
				// The binding indicator row X_j(t) ≤ y_f(t) is tight.
				b.Cons[l.indRow[argmin][t]] = simplex.VarLower
			}
		}
		b.Vars[l.cj[j]] = simplex.VarBasic
	}

	// Claimed capacity rows: tight, their claimer basic instead.
	for _, c := range claims {
		b.Cons[l.capRow[c.e][c.t]] = simplex.VarLower
		b.Vars[l.x[c.f][c.t]] = simplex.VarBasic
	}
	return b
}
