// Package model builds the paper's linear programming relaxations
// (Section 3 and Appendix A) over a time grid:
//
//   - the shared completion-time structure: per-flow schedule
//     fractions x_f(t), coflow completion indicators X_j(t) and
//     completion variables C_j with the lower-bound constraint
//     C_j ≥ 1 + Σ_t len(t)·(1 − X_j(t));
//   - single path capacity constraints (6)/(19);
//   - free path flow conservation and capacity constraints
//     (7)–(10) / (20)–(23).
//
// Two reformulations keep the LP sparse without changing its feasible
// region or objective:
//
//  1. cumulative variables y_f(t) = Σ_{ℓ≤t} x_f(ℓ) are introduced via
//     the recurrence y_f(t) = y_f(t−1) + x_f(t), so every row has O(1)
//     nonzeros instead of O(t);
//  2. source/sink coupling in the free path model uses net flow
//     (outflow − inflow = x_f(t)), which is equivalent to (7)–(8) up
//     to removable circulations.
//
// All times are in slot units (the experiments use 50-second slots,
// matching the paper); demands are in capacity·slot units. Release
// times are snapped up to grid boundaries by the builders.
package model

import (
	"context"
	"fmt"
	"math"

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
	first []int // first usable slot per flat flow

	x  [][]lp.VarID   // [flat][slot], -1 below first slot
	y  [][]lp.VarID   // cumulative y: [flat][slot], -1 below first slot
	xe [][][]lp.VarID // free path: [flat][slot][edge], nil rows below first
	xp [][][]lp.VarID // multi path: [flat][slot][pathIdx], nil below first
	xj [][]lp.VarID   // X_j: [coflow][slot], -1 where fixed to 0
	cj []lp.VarID     // C_j per coflow

	indRow [][]lp.ConstrID // X_j(t) ≤ y_f(t) rows: [flat][slot], -1 where absent
	capRow [][]lp.ConstrID // capacity rows, single and multi path: [edge][slot], -1 where absent
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
	// EdgeFrac[f][k][e] is the per-edge fraction (free path only; nil
	// for single path).
	EdgeFrac [][][]float64
	// PathFrac[f][k][p] is the per-candidate-path fraction (multi
	// path model only; nil otherwise).
	PathFrac [][][]float64
	// Iterations is the simplex iteration count.
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
	if err := inst.Validate(coflow.SinglePath); err != nil {
		return nil, err
	}
	l, err := buildCommon(inst, grid, coflow.SinglePath)
	if err != nil {
		return nil, err
	}
	k := grid.NumSlots()

	// Capacity rows (6)/(19): one per (edge, slot) with any traffic.
	l.capRow = rowTable(inst.Graph.NumEdges(), k)
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
		row = l.Model.AddConstr(fmt.Sprintf("cap_e%d_t%d", e, t), lp.LE, cap)
		l.capRow[e][t] = row
	}
	return row
}

// rowTable returns an n×k table of constraint ids, every entry -1.
func rowTable(n, k int) [][]lp.ConstrID {
	ids := make([]lp.ConstrID, n*k)
	for i := range ids {
		ids[i] = -1
	}
	table := make([][]lp.ConstrID, n)
	for i := range table {
		table[i] = ids[i*k : (i+1)*k : (i+1)*k]
	}
	return table
}

// BuildFreePath constructs the Section 3.1.2 relaxation: per-edge flow
// variables with conservation, constraints (1)–(5) and (7)–(10), with
// interval-scaled capacities for non-uniform grids (20)–(23).
func BuildFreePath(inst *coflow.Instance, grid timegrid.Grid) (*LP, error) {
	if err := inst.Validate(coflow.FreePath); err != nil {
		return nil, err
	}
	l, err := buildCommon(inst, grid, coflow.FreePath)
	if err != nil {
		return nil, err
	}
	m := l.Model
	g := inst.Graph
	k := grid.NumSlots()
	ne := g.NumEdges()

	l.xe = make([][][]lp.VarID, len(l.flows))
	for f, ref := range l.flows {
		fl := inst.FlowAt(ref)
		l.xe[f] = make([][]lp.VarID, k)
		for t := l.first[f]; t < k; t++ {
			evars := make([]lp.VarID, ne)
			for e := 0; e < ne; e++ {
				evars[e] = m.AddVar(fmt.Sprintf("xe_f%d_t%d_e%d", f, t, e), 0, 1, 0)
			}
			l.xe[f][t] = evars

			// Net outflow at the source equals x_f(t) (7).
			src := m.AddConstr(fmt.Sprintf("src_f%d_t%d", f, t), lp.EQ, 0)
			for _, eid := range g.OutEdges(fl.Source) {
				m.AddTerm(src, evars[eid], 1)
			}
			for _, eid := range g.InEdges(fl.Source) {
				m.AddTerm(src, evars[eid], -1)
			}
			m.AddTerm(src, l.x[f][t], -1)

			// Net inflow at the sink equals x_f(t) (8).
			snk := m.AddConstr(fmt.Sprintf("snk_f%d_t%d", f, t), lp.EQ, 0)
			for _, eid := range g.InEdges(fl.Sink) {
				m.AddTerm(snk, evars[eid], 1)
			}
			for _, eid := range g.OutEdges(fl.Sink) {
				m.AddTerm(snk, evars[eid], -1)
			}
			m.AddTerm(snk, l.x[f][t], -1)

			// Conservation at the other nodes (9).
			for v := 0; v < g.NumNodes(); v++ {
				if v == int(fl.Source) || v == int(fl.Sink) {
					continue
				}
				ins := g.InEdges(graphNode(v))
				outs := g.OutEdges(graphNode(v))
				if len(ins) == 0 && len(outs) == 0 {
					continue
				}
				row := m.AddConstr(fmt.Sprintf("cons_f%d_t%d_v%d", f, t, v), lp.EQ, 0)
				for _, eid := range ins {
					m.AddTerm(row, evars[eid], 1)
				}
				for _, eid := range outs {
					m.AddTerm(row, evars[eid], -1)
				}
			}
		}
	}

	// Capacity rows (10)/(23): Σ_f σ_f · xe_f(t,e) ≤ c(e)·len(t).
	for e := 0; e < ne; e++ {
		capE := g.Edge(graphEdge(e)).Capacity
		for t := 0; t < k; t++ {
			row := lp.ConstrID(-1)
			for f := range l.flows {
				if t < l.first[f] {
					continue
				}
				if row < 0 {
					row = m.AddConstr(fmt.Sprintf("cap_e%d_t%d", e, t), lp.LE, capE*grid.Len(t))
				}
				m.AddTerm(row, l.xe[f][t][e], inst.FlowAt(l.flows[f]).Demand)
			}
		}
	}
	return l, nil
}

// buildCommon creates the variables and constraints shared by both
// models: x, cumulative y, coflow indicators X_j, completion C_j, the
// demand constraint (1) and the completion bound (3)/(16).
func buildCommon(inst *coflow.Instance, grid timegrid.Grid, mode coflow.Model) (*LP, error) {
	k := grid.NumSlots()
	l := &LP{
		Model: lp.NewModel(fmt.Sprintf("coflow-%s", mode)),
		Inst:  inst,
		Grid:  grid,
		Mode:  mode,
		flows: inst.FlattenFlows(),
	}
	m := l.Model
	l.first = make([]int, len(l.flows))
	l.x = make([][]lp.VarID, len(l.flows))

	// Quick infeasibility guard: every flow must fit after release.
	for f, ref := range l.flows {
		first := grid.FirstUsableSlot(inst.ReleaseAt(ref))
		if first >= k {
			return nil, &ReleaseError{Flow: ref, Release: inst.ReleaseAt(ref), Horizon: grid.Horizon()}
		}
		l.first[f] = first
	}

	// x and cumulative y variables with the recurrence rows.
	l.y = make([][]lp.VarID, len(l.flows))
	yVar := l.y
	for f := range l.flows {
		l.x[f] = make([]lp.VarID, k)
		yVar[f] = make([]lp.VarID, k)
		for t := 0; t < k; t++ {
			l.x[f][t] = -1
			yVar[f][t] = -1
		}
		for t := l.first[f]; t < k; t++ {
			l.x[f][t] = m.AddVar(fmt.Sprintf("x_f%d_t%d", f, t), 0, 1, 0)
			ub := 1.0
			lb := 0.0
			if t == k-1 {
				lb = 1.0 // constraint (1): fully scheduled by the horizon
			}
			yVar[f][t] = m.AddVar(fmt.Sprintf("y_f%d_t%d", f, t), lb, ub, 0)
			row := m.AddConstr(fmt.Sprintf("ycum_f%d_t%d", f, t), lp.EQ, 0)
			m.AddTerm(row, yVar[f][t], 1)
			m.AddTerm(row, l.x[f][t], -1)
			if t > l.first[f] {
				m.AddTerm(row, yVar[f][t-1], -1)
			}
		}
	}

	// Coflow indicators X_j(t) (2) and completion variables C_j (3)/(16).
	nc := len(inst.Coflows)
	l.xj = make([][]lp.VarID, nc)
	l.cj = make([]lp.VarID, nc)
	l.indRow = rowTable(len(l.flows), k)
	flowsOf := make([][]int, nc)
	for f, ref := range l.flows {
		flowsOf[ref.Coflow] = append(flowsOf[ref.Coflow], f)
	}
	for j := 0; j < nc; j++ {
		maxFirst := 0
		for _, f := range flowsOf[j] {
			if l.first[f] > maxFirst {
				maxFirst = l.first[f]
			}
		}
		l.xj[j] = make([]lp.VarID, k)
		for t := 0; t < k; t++ {
			l.xj[j][t] = -1
		}
		for t := maxFirst; t < k; t++ {
			xjv := m.AddVar(fmt.Sprintf("X_c%d_t%d", j, t), 0, 1, 0)
			l.xj[j][t] = xjv
			for _, f := range flowsOf[j] {
				row := m.AddConstr(fmt.Sprintf("ind_c%d_f%d_t%d", j, f, t), lp.LE, 0)
				l.indRow[f][t] = row
				m.AddTerm(row, xjv, 1)
				m.AddTerm(row, yVar[f][t], -1)
			}
		}
		// C_j + Σ_t len(t)·X_j(t) ≥ 1 + Σ_t len(t); X_j(t)=0 terms for
		// t < maxFirst are dropped from the left (they contribute 0).
		cv := m.AddVar(fmt.Sprintf("C_c%d", j), 1, math.Inf(1), inst.Coflows[j].Weight)
		l.cj[j] = cv
		row := m.AddConstr(fmt.Sprintf("comp_c%d", j), lp.GE, 1+grid.Horizon())
		m.AddTerm(row, cv, 1)
		for t := maxFirst; t < k; t++ {
			m.AddTerm(row, l.xj[j][t], grid.Len(t))
		}
	}
	return l, nil
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
func (l *LP) SolveWarm(ctx context.Context, opt simplex.Options, warm *lp.Basis) (*Solution, error) {
	if warm == nil {
		warm = l.GreedyBasis()
	}
	raw, err := l.Model.SolveWarm(ctx, opt, warm)
	if err != nil {
		return nil, err
	}
	if raw.Status != simplex.Optimal {
		return nil, &StatusError{Status: raw.Status, Iterations: raw.Iterations()}
	}
	k := l.Grid.NumSlots()
	sol := &Solution{
		LP:         l,
		LowerBound: raw.Obj,
		CStar:      make([]float64, len(l.Inst.Coflows)),
		Frac:       make([][]float64, len(l.flows)),
		Iterations: raw.Iterations(),
		Basis:      raw.Basis,
		WarmStart:  raw.WarmStart,
	}
	for j, cv := range l.cj {
		sol.CStar[j] = raw.Value(cv)
	}
	for f := range l.flows {
		sol.Frac[f] = make([]float64, k)
		for t := l.first[f]; t < k; t++ {
			if v := raw.Value(l.x[f][t]); v > 1e-9 {
				sol.Frac[f][t] = v
			}
		}
	}
	if l.Mode == coflow.MultiPath {
		sol.PathFrac = make([][][]float64, len(l.flows))
		for f, ref := range l.flows {
			np := len(l.Inst.FlowAt(ref).AltPaths)
			sol.PathFrac[f] = make([][]float64, k)
			for t := 0; t < k; t++ {
				pf := make([]float64, np)
				if t >= l.first[f] && l.xp[f][t] != nil {
					for p := 0; p < np; p++ {
						if v := raw.Value(l.xp[f][t][p]); v > 1e-9 {
							pf[p] = v
						}
					}
				}
				sol.PathFrac[f][t] = pf
			}
		}
	}
	if l.Mode == coflow.FreePath {
		ne := l.Inst.Graph.NumEdges()
		sol.EdgeFrac = make([][][]float64, len(l.flows))
		for f := range l.flows {
			sol.EdgeFrac[f] = make([][]float64, k)
			for t := 0; t < k; t++ {
				ef := make([]float64, ne)
				// LP vertices may carry circulations (cycles with zero
				// net flow); a slot whose total fraction is zero ships
				// nothing, so its edge values are dropped entirely.
				// This keeps "idle slot" detection (schedule
				// compaction, Section 6.1) sound.
				if t >= l.first[f] && l.xe[f][t] != nil && sol.Frac[f][t] > 1e-9 {
					for e := 0; e < ne; e++ {
						if v := raw.Value(l.xe[f][t][e]); v > 1e-9 {
							ef[e] = v
						}
					}
				}
				sol.EdgeFrac[f][t] = ef
			}
		}
	}
	return sol, nil
}

// graphNode converts an int loop index to a graph.NodeID.
func graphNode(v int) graph.NodeID { return graph.NodeID(v) }

// graphEdge converts an int loop index to a graph.EdgeID.
func graphEdge(e int) graph.EdgeID { return graph.EdgeID(e) }
