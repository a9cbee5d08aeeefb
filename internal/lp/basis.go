package lp

import (
	"math"

	"repro/internal/simplex"
)

// Basis is a name-keyed snapshot of an optimal simplex basis. Keying
// by variable and constraint name makes the basis portable across
// model rebuilds: a model for a perturbed instance or a longer time
// grid can import it even when its variables appear in a different
// order or only partially overlap — entities present in both models
// take their recorded status, new entities default to the cold-start
// state, and vanished entities are dropped. The simplex layer then
// validates the assembled basis and falls back to a cold start when it
// does not fit.
type Basis struct {
	// Vars maps variable name → simplex status
	// (simplex.VarBasic/VarLower/VarUpper/VarFree).
	Vars map[string]int8
	// Cons maps inequality constraint name → the status of that
	// constraint's slack variable in the standard-form problem.
	Cons map[string]int8
}

// defaultState mirrors the solver's cold-start placement: nonbasic on
// the nearest finite bound, free when both bounds are infinite.
func defaultState(l, u float64) int8 {
	switch {
	case math.IsInf(l, -1) && math.IsInf(u, 1):
		return simplex.VarFree
	case math.IsInf(l, -1):
		return simplex.VarUpper
	case math.IsInf(u, 1):
		return simplex.VarLower
	case math.Abs(l) <= math.Abs(u):
		return simplex.VarLower
	default:
		return simplex.VarUpper
	}
}

// remapBasis assembles the positional simplex basis for this model's
// standard form (n structural variables followed by one slack per
// inequality row) from a name-keyed snapshot.
func (m *Model) remapBasis(w *Basis, total int) *simplex.Basis {
	n := len(m.varNames)
	sb := &simplex.Basis{M: len(m.conNames), N: total, State: make([]int8, total)}
	for j := 0; j < n; j++ {
		if st, ok := w.Vars[m.varNames[j]]; ok {
			sb.State[j] = st
		} else {
			sb.State[j] = defaultState(m.lb[j], m.ub[j])
		}
	}
	sj := n
	for i, sense := range m.senses {
		if sense == EQ {
			continue
		}
		if st, ok := w.Cons[m.conNames[i]]; ok {
			sb.State[sj] = st
		} else if sense == LE {
			sb.State[sj] = simplex.VarLower // slack in [0, +Inf)
		} else {
			sb.State[sj] = simplex.VarUpper // GE slack in (-Inf, 0]
		}
		sj++
	}
	return sb
}

// exportBasis converts a positional simplex basis back to the
// name-keyed form.
func (m *Model) exportBasis(sb *simplex.Basis) *Basis {
	if sb == nil {
		return nil
	}
	n := len(m.varNames)
	b := &Basis{
		Vars: make(map[string]int8, n),
		Cons: make(map[string]int8, len(m.conNames)),
	}
	for j := 0; j < n; j++ {
		b.Vars[m.varNames[j]] = sb.State[j]
	}
	sj := n
	for i, sense := range m.senses {
		if sense == EQ {
			continue
		}
		b.Cons[m.conNames[i]] = sb.State[sj]
		sj++
	}
	return b
}
