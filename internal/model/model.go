// Package model builds the paper's linear programming relaxations
// (Section 3 and Appendix A) over a time grid:
//
//   - the shared completion-time structure: per-flow schedule
//     fractions x_f(t), coflow completion indicators X_j(t) and
//     completion variables C_j with the lower-bound constraint
//     C_j ≥ 1 + Σ_t len(t)·(1 − X_j(t));
//   - single path capacity constraints (6)/(19);
//   - free path routing and capacity constraints (7)–(10) /
//     (20)–(23), and the multi path model's, both over per-flow path
//     lists.
//
// Two reformulations keep the LP sparse and small without changing its
// optimum:
//
//  1. cumulative variables y_f(t) = Σ_{ℓ≤t} x_f(ℓ) are introduced via
//     the recurrence y_f(t) = y_f(t−1) + x_f(t), so every row has O(1)
//     nonzeros instead of O(t);
//  2. the free path model's multicommodity flow (7)–(10) is solved in
//     path form: by flow decomposition every feasible edge flow is a
//     sum of s→t path flows plus circulations, whose removal only frees
//     capacity, so the LP over all paths has the same optimum. Column
//     generation prices the paths a restricted master needs
//     (BuildFreePath).
//
// All times are in slot units (the experiments use 50-second slots,
// matching the paper); demands are in capacity·slot units. Release
// times are snapped up to grid boundaries by the builders.
package model

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// LP is a built relaxation, retaining the variable maps needed to
// extract schedules from a solved model.
type LP struct {
	Model *lp.Model
	Inst  *coflow.Instance
	Grid  timegrid.Grid
	Mode  coflow.Model

	flows []coflow.FlowRef
	first []int              // first usable slot per flat flow
	paths [][][]graph.EdgeID // routed models: the per-flow path lists (Solution.Paths) xr indexes

	x  [][]lp.VarID   // [flat][slot], -1 below first slot
	y  [][]lp.VarID   // cumulative y: [flat][slot], -1 below first slot
	xr [][][]lp.VarID // path rates: [flat][slot][path], nil below first; nil for single path
	xj [][]lp.VarID   // X_j: [coflow][slot], -1 where fixed to 0
	cj []lp.VarID     // C_j per coflow

	indRow [][]lp.ConstrID // X_j(t) ≤ y_f(t) rows: [flat][slot], -1 where absent
	capRow [][]lp.ConstrID // capacity rows: [edge][slot], -1 where absent
	link   [][]lp.ConstrID // routed models' Σ_p x_{f,p}(t) = x_f(t) rows: [flat][slot], -1 below first
}

// Flows returns the flat flow ordering used by x/frac indexing.
func (l *LP) Flows() []coflow.FlowRef { return l.flows }

// Solution is a solved relaxation: the LP lower bound and the
// fractional schedule.
type Solution struct {
	LP *LP
	// LowerBound is the LP objective Σ_j w_j C*_j, a valid lower bound
	// on the optimal total weighted completion time (in slot units).
	LowerBound float64
	// CStar[j] is the LP completion variable of coflow j.
	CStar []float64
	// Frac[f][k] is the fraction of flat flow f scheduled in slot k.
	Frac [][]float64
	// Paths[f] lists the paths flat flow f may use: its AltPaths
	// (aliased) in the multi path model, the paths column generation
	// priced in the free path model. It is nil in the single path
	// model, whose flows have one fixed Path.
	Paths [][][]graph.EdgeID
	// Route[f][k][r] is the fraction of flow f shipped on Paths[f][r] in
	// slot k; the rates sum to Frac[f][k]. Nil in the single path model.
	Route [][][]float64
	// Iterations is the simplex iteration count, summed over the column
	// generation rounds of a free path solve.
	Iterations int
	// Basis is the optimal basis, positional over this relaxation's
	// variables and rows (nil when not exportable). It warm-starts a
	// later solve of a relaxation of the same shape; the solver rejects
	// it on any other.
	Basis *lp.Basis
	// WarmStart reports what became of the warm basis handed to
	// SolveWarm, or of the greedy seed when none was (accepted, or the
	// validation check that rejected it).
	WarmStart simplex.WarmOutcome
}

// BuildSinglePath constructs the Section 3.1.1 relaxation: every flow
// is routed along its fixed path; constraints (1)–(6) with
// interval-scaled capacities for non-uniform grids (19).
func BuildSinglePath(inst *coflow.Instance, grid timegrid.Grid) (*LP, error) {
	l, err := buildCommon(inst, grid, coflow.SinglePath)
	if err != nil {
		return nil, err
	}
	k := grid.NumSlots()

	// Capacity rows (6)/(19): one per (edge, slot) with any traffic.
	l.capRow = idTable[lp.ConstrID](inst.Graph.NumEdges(), k)
	for f, ref := range l.flows {
		fl := inst.FlowAt(ref)
		for _, eid := range fl.Path {
			for t := l.first[f]; t < k; t++ {
				l.Model.AddTerm(l.capacityRow(eid, t), l.x[f][t], fl.Demand)
			}
		}
	}
	return l, nil
}

// capacityRow returns the capacity row of edge e in slot t, adding it
// on first use.
func (l *LP) capacityRow(e graph.EdgeID, t int) lp.ConstrID {
	row := l.capRow[e][t]
	if row < 0 {
		cap := l.Inst.Graph.Edge(e).Capacity * l.Grid.Len(t)
		row = l.Model.AddConstr("", lp.LE, cap)
		l.capRow[e][t] = row
	}
	return row
}

// idTable returns an n×k table of variable or constraint ids over one
// backing array, every entry -1.
func idTable[ID lp.VarID | lp.ConstrID](n, k int) [][]ID {
	ids := make([]ID, n*k)
	for i := range ids {
		ids[i] = -1
	}
	table := make([][]ID, n)
	for i := range table {
		table[i] = ids[i*k : (i+1)*k : (i+1)*k]
	}
	return table
}

// AddConservation adds the flow conservation rows (7)–(9) of one flow
// routed over the per-edge variables edge (indexed by EdgeID): net
// outflow at src equals coef·v, net inflow at sink equals coef·v, and
// every other node with an edge conserves flow. The rows are
// equalities, added in that order, the other nodes by ID. The Terra
// baseline's concurrent-flow LP routes μ with coef rem_i.
func AddConservation(m *lp.Model, g *graph.Graph, src, sink graph.NodeID, edge []lp.VarID, v lp.VarID, coef float64) {
	terms := func(row lp.ConstrID, plus, minus []graph.EdgeID) {
		for _, e := range plus {
			m.AddTerm(row, edge[e], 1)
		}
		for _, e := range minus {
			m.AddTerm(row, edge[e], -1)
		}
	}
	row := m.AddConstr("", lp.EQ, 0)
	terms(row, g.OutEdges(src), g.InEdges(src))
	m.AddTerm(row, v, -coef)
	row = m.AddConstr("", lp.EQ, 0)
	terms(row, g.InEdges(sink), g.OutEdges(sink))
	m.AddTerm(row, v, -coef)
	for n := 0; n < g.NumNodes(); n++ {
		node := graph.NodeID(n)
		ins, outs := g.InEdges(node), g.OutEdges(node)
		if node == src || node == sink || len(ins)+len(outs) == 0 {
			continue
		}
		terms(m.AddConstr("", lp.EQ, 0), ins, outs)
	}
}

// buildCommon validates inst for mode and creates the variables and
// constraints shared by all models: x, cumulative y, coflow indicators
// X_j, completion C_j, the demand constraint (1) and the completion
// bound (3)/(16). The model is sized for the whole relaxation of mode
// before anything is added.
func buildCommon(inst *coflow.Instance, grid timegrid.Grid, mode coflow.Model) (*LP, error) {
	if err := inst.Validate(mode); err != nil {
		return nil, err
	}
	k := grid.NumSlots()
	l := &LP{
		Model: lp.NewModel("coflow-" + mode.String()),
		Inst:  inst,
		Grid:  grid,
		Mode:  mode,
		flows: inst.FlattenFlows(),
	}
	m := l.Model
	nf := len(l.flows)
	l.first = make([]int, nf)

	// Quick infeasibility guard: every flow must fit after release.
	for f, ref := range l.flows {
		first := grid.FirstUsableSlot(inst.ReleaseAt(ref))
		if first >= k {
			return nil, &ReleaseError{Flow: ref, Release: inst.ReleaseAt(ref), Horizon: grid.Horizon()}
		}
		l.first[f] = first
	}
	// Routed path lists: the candidate paths, or one hop-shortest path
	// per flow for column generation to grow.
	if mode != coflow.SinglePath {
		l.paths = make([][][]graph.EdgeID, nf)
		for f, ref := range l.flows {
			fl := inst.FlowAt(ref)
			l.paths[f] = fl.AltPaths
			if mode == coflow.FreePath {
				l.paths[f] = [][]graph.EdgeID{inst.Graph.ShortestPath(fl.Source, fl.Sink)}
			}
		}
	}
	m.Grow(l.size())

	// x and cumulative y variables with the recurrence rows.
	l.x = idTable[lp.VarID](nf, k)
	l.y = idTable[lp.VarID](nf, k)
	for f := range l.flows {
		for t := l.first[f]; t < k; t++ {
			l.x[f][t] = m.AddVar("", 0, 1, 0)
			lb := 0.0
			if t == k-1 {
				lb = 1.0 // constraint (1): fully scheduled by the horizon
			}
			l.y[f][t] = m.AddVar("", lb, 1, 0)
			row := m.AddConstr("", lp.EQ, 0)
			m.AddTerm(row, l.y[f][t], 1)
			m.AddTerm(row, l.x[f][t], -1)
			if t > l.first[f] {
				m.AddTerm(row, l.y[f][t-1], -1)
			}
		}
	}

	// Coflow indicators X_j(t) (2) and completion variables C_j (3)/(16).
	// Flows are flattened coflow by coflow, so coflow j's flows are the
	// flat range [lo, hi).
	nc := len(inst.Coflows)
	l.xj = idTable[lp.VarID](nc, k)
	l.cj = make([]lp.VarID, nc)
	l.indRow = idTable[lp.ConstrID](nf, k)
	hi := 0
	for j := 0; j < nc; j++ {
		lo := hi
		hi += len(inst.Coflows[j].Flows)
		maxFirst := maxSlot(l.first[lo:hi])
		for t := maxFirst; t < k; t++ {
			xjv := m.AddVar("", 0, 1, 0)
			l.xj[j][t] = xjv
			for f := lo; f < hi; f++ {
				row := m.AddConstr("", lp.LE, 0)
				l.indRow[f][t] = row
				m.AddTerm(row, xjv, 1)
				m.AddTerm(row, l.y[f][t], -1)
			}
		}
		// C_j + Σ_t len(t)·X_j(t) ≥ 1 + Σ_t len(t); X_j(t)=0 terms for
		// t < maxFirst are dropped from the left (they contribute 0).
		cv := m.AddVar("", 1, math.Inf(1), inst.Coflows[j].Weight)
		l.cj[j] = cv
		row := m.AddConstr("", lp.GE, 1+grid.Horizon())
		m.AddTerm(row, cv, 1)
		for t := maxFirst; t < k; t++ {
			m.AddTerm(row, l.xj[j][t], grid.Len(t))
		}
	}
	return l, nil
}

// maxSlot returns the latest of the given first slots, 0 for none.
func maxSlot(first []int) int {
	latest := 0
	for _, t := range first {
		latest = max(latest, t)
	}
	return latest
}

// size counts the variables, rows and terms the relaxation of l.Mode
// has over the first usable slots l.first: the shared structure of
// buildCommon plus the routing the mode's builder adds over l.paths,
// before column generation adds any.
func (l *LP) size() (vars, rows, terms int) {
	inst, k := l.Inst, l.Grid.NumSlots()
	ne := inst.Graph.NumEdges()
	hi := 0
	for j := range inst.Coflows {
		lo := hi
		hi += len(inst.Coflows[j].Flows)
		s := k - maxSlot(l.first[lo:hi])
		vars += s + 1                // X_j(t), C_j
		rows += (hi-lo)*s + 1        // indicator rows, completion row
		terms += 2*(hi-lo)*s + 1 + s // the same rows' entries
	}
	// Capacity rows exist for an edge from its earliest flow's first slot.
	from := make([]int, ne)
	for e := range from {
		from[e] = k
	}
	for f, ref := range l.flows {
		s := k - l.first[f]
		vars += 2 * s    // x, y
		rows += s        // recurrence rows
		terms += 3*s - 1 // the first slot's row has no y_f(t−1)
		paths := [][]graph.EdgeID{inst.FlowAt(ref).Path}
		if l.Mode != coflow.SinglePath {
			paths = l.paths[f]
			vars += s * len(paths)        // path rates
			rows += s                     // link rows
			terms += s * (1 + len(paths)) // their entries
		}
		for _, p := range paths {
			terms += s * len(p)
			for _, e := range p {
				from[e] = min(from[e], l.first[f])
			}
		}
	}
	for _, t := range from {
		rows += k - t
	}
	return vars, rows, terms
}

// ReleaseError reports a flow released after the grid's last slot
// starts, so no slot can carry it. A longer grid cures it; callers
// detect it with errors.As. Uniform grids sized by core.DefaultGrid
// never hit it; geometric grids can, because their last slot starts
// well before the horizon.
type ReleaseError struct {
	Flow    coflow.FlowRef
	Release float64 // the flow's release time
	Horizon float64 // the grid's horizon, in slots
}

// Error describes the unusable flow.
func (e *ReleaseError) Error() string {
	return fmt.Sprintf("model: flow %v released at %g but horizon is %g slots", e.Flow, e.Release, e.Horizon)
}

// StatusError reports an LP that terminated without an optimum —
// typically Infeasible when the time horizon is too short for the
// demands. Callers can detect it with errors.As and retry with a
// longer grid.
type StatusError struct {
	Status     simplex.Status
	Iterations int
}

// Error describes the termination.
func (e *StatusError) Error() string {
	return fmt.Sprintf("model: LP terminated %v after %d iterations", e.Status, e.Iterations)
}

// Solve optimizes the relaxation and extracts the fractional schedule.
func (l *LP) Solve(ctx context.Context, opt simplex.Options) (*Solution, error) {
	return l.SolveWarm(ctx, opt, nil)
}

// SolveWarm is Solve with an optional warm-start basis carried over
// from a previous relaxation (a perturbed instance or a regridded
// horizon). With no caller basis, a single path relaxation starts from
// its greedy vertex (see GreedyBasis), which skips phase 1 entirely.
// The solver validates either basis like any other and falls back to
// a cold solve when it does not fit; Solution.WarmStart reports which.
//
// A free path relaxation is solved by column generation: while an
// optimal or infeasible master prices out a new path (see price), the
// path is added and the master re-solved cold. An infeasible master
// that prices nothing out is an infeasible free path LP. Each round
// grows l, so a free path relaxation must not be solved concurrently.
func (l *LP) SolveWarm(ctx context.Context, opt simplex.Options, warm *lp.Basis) (*Solution, error) {
	if warm == nil {
		warm = l.GreedyBasis()
	}
	raw, err := l.Model.SolveWarm(ctx, opt, warm)
	if err != nil {
		return nil, err
	}
	iters, outcome := raw.Iterations(), raw.WarmStart
	for l.Mode == coflow.FreePath && (raw.Status == simplex.Optimal || raw.Status == simplex.Infeasible) && l.price(raw) {
		if raw, err = l.Model.Solve(ctx, opt); err != nil {
			return nil, err
		}
		iters += raw.Iterations()
	}
	if raw.Status != simplex.Optimal {
		return nil, &StatusError{Status: raw.Status, Iterations: iters}
	}
	k := l.Grid.NumSlots()
	sol := &Solution{
		LP:         l,
		LowerBound: raw.Obj,
		CStar:      make([]float64, len(l.Inst.Coflows)),
		Frac:       make([][]float64, len(l.flows)),
		Paths:      slices.Clone(l.paths),
		Iterations: iters,
		Basis:      raw.Basis,
		WarmStart:  outcome,
	}
	for j, cv := range l.cj {
		sol.CStar[j] = raw.Value(cv)
	}
	frac := make([]float64, len(l.flows)*k)
	for f := range l.flows {
		sol.Frac[f] = frac[f*k : (f+1)*k : (f+1)*k]
		for t := l.first[f]; t < k; t++ {
			if v := raw.Value(l.x[f][t]); v > 1e-9 {
				sol.Frac[f][t] = v
			}
		}
	}
	if l.xr != nil {
		sol.Route = make([][][]float64, len(l.flows))
		for f := range l.flows {
			sol.Route[f] = make([][]float64, k)
			for t := range sol.Route[f] {
				route := make([]float64, len(l.paths[f]))
				sol.Route[f][t] = route
				for r, id := range l.xr[f][t] {
					if v := raw.Value(id); v > 1e-9 {
						route[r] = v
					}
				}
			}
		}
	}
	return sol, nil
}
