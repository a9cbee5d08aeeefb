package model

import (
	"repro/internal/coflow"
	"repro/internal/lp"
	"repro/internal/timegrid"
)

// BuildMultiPath constructs the LP for the intermediate transmission
// model sketched in Section 2 of the paper: each flow carries a fixed
// candidate path set and the scheduler chooses, per time slot, what
// fraction to send down each path. The completion-time structure
// ((1)–(5)) is shared with the other models; routing is expressed with
// per-path variables
//
//	x_{f,p}(t) ≥ 0,   Σ_p x_{f,p}(t) = x_f(t),
//	Σ_{(f,p): e ∈ p} σ_f · x_{f,p}(t) ≤ c(e)·len(t)   ∀e, t.
//
// Single path is the special case of one candidate path; free path is
// the limit of all paths. Solutions populate Solution.PathFrac.
func BuildMultiPath(inst *coflow.Instance, grid timegrid.Grid) (*LP, error) {
	if err := inst.Validate(coflow.MultiPath); err != nil {
		return nil, err
	}
	l, err := buildCommon(inst, grid, coflow.MultiPath)
	if err != nil {
		return nil, err
	}
	m := l.Model
	k := grid.NumSlots()

	l.xp = make([][][]lp.VarID, len(l.flows))
	l.capRow = idTable[lp.ConstrID](inst.Graph.NumEdges(), k)
	for f, ref := range l.flows {
		fl := inst.FlowAt(ref)
		l.xp[f] = make([][]lp.VarID, k)
		for t := l.first[f]; t < k; t++ {
			pv := make([]lp.VarID, len(fl.AltPaths))
			link := m.AddConstr("", lp.EQ, 0)
			m.AddTerm(link, l.x[f][t], -1)
			for pi, path := range fl.AltPaths {
				pv[pi] = m.AddVar("", 0, 1, 0)
				m.AddTerm(link, pv[pi], 1)
				for _, eid := range path {
					m.AddTerm(l.capacityRow(eid, t), pv[pi], fl.Demand)
				}
			}
			l.xp[f][t] = pv
		}
	}
	return l, nil
}
