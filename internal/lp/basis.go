package lp

import (
	"slices"

	"repro/internal/simplex"
)

// Basis is a positional snapshot of a simplex basis over a Model:
// Vars[v] is the status of variable v and Cons[c] the status of
// constraint c's slack, both as simplex.VarBasic/VarLower/VarUpper/
// VarFree. Equality rows carry no slack, so their Cons entries are
// ignored. A basis fits only a model with as many variables and
// constraints as the one it describes; the solver rejects any other
// as simplex.WarmRejectedDims, validates one that fits like any other
// start, and falls back to a cold start when a check fails.
type Basis struct {
	Vars []int8 // indexed by VarID
	Cons []int8 // indexed by ConstrID
}

// standardBasis lays w over this model's standard form in sb, reusing
// its array: n structural variables followed by one slack per
// inequality row.
func (m *Model) standardBasis(w *Basis, sb *simplex.Basis, total int) *simplex.Basis {
	n := len(m.lb)
	if len(w.Vars) != n || len(w.Cons) != len(m.senses) {
		return &simplex.Basis{} // another shape: rejected on dimensions
	}
	sb.M, sb.N = len(m.senses), total
	sb.State = slices.Grow(sb.State[:0], total)[:total]
	copy(sb.State, w.Vars)
	sj := n
	for i, sense := range m.senses {
		if sense != EQ {
			sb.State[sj] = w.Cons[i]
			sj++
		}
	}
	return sb
}

// exportBasis converts a standard-form simplex basis back to a Basis
// over this model.
func (m *Model) exportBasis(sb *simplex.Basis) *Basis {
	if sb == nil {
		return nil
	}
	n := len(m.lb)
	b := &Basis{Vars: sb.State[:n:n], Cons: make([]int8, len(m.senses))}
	sj := n
	for i, sense := range m.senses {
		if sense != EQ {
			b.Cons[i] = sb.State[sj]
			sj++
		}
	}
	return b
}
