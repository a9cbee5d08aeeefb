// Package lp provides a small modeling layer over the revised simplex
// solver in internal/simplex: variables with bounds and objective
// coefficients, linear constraints with ≤ / = / ≥ senses, and solution
// objects that map primal values, duals and reduced costs back to the
// modeling entities. It plays the role of the Gurobi modeling API in
// the paper's tool chain.
//
// Names are optional. Variables and constraints are identified by
// their VarID and ConstrID; a model stores names only for the entities
// a caller named (ParseLP names all of them), and VarName/ConstrName
// make up x<id> and r<id> for the rest, so WriteLP output always
// parses.
//
// The package also implements a minimal LP text format (see format.go)
// used by cmd/lpsolve.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/pool"
	"repro/internal/simplex"
	"repro/internal/sparse"
)

// Sense is the relational sense of a constraint.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	GE              // a·x ≥ b
	EQ              // a·x = b
)

// String renders the sense as its operator.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// VarID identifies a variable within a Model.
type VarID int

// ConstrID identifies a constraint within a Model.
type ConstrID int

// Model is a linear program under construction. The zero value is not
// usable; call NewModel.
type Model struct {
	name string

	lb, ub []float64
	obj    []float64

	senses []Sense
	rhs    []float64

	// Names of the named entities, by id. An entity past the end of its
	// slice, or stored as "", has none; a model that names nothing never
	// allocates them.
	varNames []string
	conNames []string

	// coefficient triplets
	rows []int32
	cols []int32
	vals []float64

	maximize bool
}

// NewModel returns an empty minimization model.
func NewModel(name string) *Model {
	return &Model{name: name}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// SetMaximize switches the objective direction to maximization.
func (m *Model) SetMaximize(max bool) { m.maximize = max }

// NumVars reports the number of variables added so far.
func (m *Model) NumVars() int { return len(m.lb) }

// NumConstrs reports the number of constraints added so far.
func (m *Model) NumConstrs() int { return len(m.senses) }

// NumNonzeros reports the number of coefficient entries added so far.
func (m *Model) NumNonzeros() int { return len(m.vals) }

// Grow reserves room for vars more variables, constrs more
// constraints and terms more coefficient entries, so a caller that
// knows its model's size builds it without reallocating.
func (m *Model) Grow(vars, constrs, terms int) {
	m.lb = slices.Grow(m.lb, vars)
	m.ub = slices.Grow(m.ub, vars)
	m.obj = slices.Grow(m.obj, vars)
	m.senses = slices.Grow(m.senses, constrs)
	m.rhs = slices.Grow(m.rhs, constrs)
	m.rows = slices.Grow(m.rows, terms)
	m.cols = slices.Grow(m.cols, terms)
	m.vals = slices.Grow(m.vals, terms)
}

// AddVar adds a variable with the given bounds and objective
// coefficient and returns its id. Use math.Inf for unbounded sides. An
// empty name leaves the variable unnamed.
func (m *Model) AddVar(name string, lb, ub, obj float64) VarID {
	v := VarID(len(m.lb))
	m.varNames = addName(m.varNames, int(v), name)
	m.lb = append(m.lb, lb)
	m.ub = append(m.ub, ub)
	m.obj = append(m.obj, obj)
	return v
}

// addName records name as the name of entity id, the last one added.
// An empty name records nothing.
func addName(names []string, id int, name string) []string {
	if name == "" {
		return names
	}
	return append(append(names, make([]string, id-len(names))...), name)
}

// entityName is names[id], or prefix<id> when the entity is unnamed.
func entityName(names []string, prefix string, id int) string {
	if id < len(names) && names[id] != "" {
		return names[id]
	}
	return prefix + strconv.Itoa(id)
}

// Obj returns the objective coefficient of v.
func (m *Model) Obj(v VarID) float64 { return m.obj[v] }

// Bounds returns the bounds of v.
func (m *Model) Bounds(v VarID) (lb, ub float64) { return m.lb[v], m.ub[v] }

// SetBounds overwrites the bounds of v.
func (m *Model) SetBounds(v VarID, lb, ub float64) { m.lb[v], m.ub[v] = lb, ub }

// VarName returns the name v was added with, or x<v> when it has none.
func (m *Model) VarName(v VarID) string { return entityName(m.varNames, "x", int(v)) }

// AddConstr adds an empty constraint (sense, rhs) and returns its id.
// Populate it with AddTerm. An empty name leaves the constraint
// unnamed.
func (m *Model) AddConstr(name string, sense Sense, rhs float64) ConstrID {
	c := ConstrID(len(m.senses))
	m.conNames = addName(m.conNames, int(c), name)
	m.senses = append(m.senses, sense)
	m.rhs = append(m.rhs, rhs)
	return c
}

// AddTerm adds coef·v to constraint c. Terms for the same (c, v) pair
// accumulate.
func (m *Model) AddTerm(c ConstrID, v VarID, coef float64) {
	if coef == 0 {
		return
	}
	m.rows = append(m.rows, int32(c))
	m.cols = append(m.cols, int32(v))
	m.vals = append(m.vals, coef)
}

// ConstrName returns the name c was added with, or r<c> when it has
// none.
func (m *Model) ConstrName(c ConstrID) string { return entityName(m.conNames, "r", int(c)) }

// ConstrSense returns the relational sense of c.
func (m *Model) ConstrSense(c ConstrID) Sense { return m.senses[c] }

// Solution maps solver output back to model entities.
type Solution struct {
	Status  simplex.Status
	Obj     float64
	x       []float64
	y       []float64
	d       []float64
	iters   int
	numVars int
	// Basis is the optimal basis, present when the solve ended Optimal
	// with an exportable basis. Pass it to SolveWarm on a model of the
	// same shape to skip phase 1.
	Basis *Basis
	// WarmStart reports what became of the warm basis passed to
	// SolveWarm: accepted, or which validation check rejected it.
	WarmStart simplex.WarmOutcome
}

// Value returns the primal value of v.
func (s *Solution) Value(v VarID) float64 { return s.x[v] }

// Dual returns the dual multiplier of constraint c.
func (s *Solution) Dual(c ConstrID) float64 { return s.y[c] }

// ReducedCost returns the reduced cost of v.
func (s *Solution) ReducedCost(v VarID) float64 { return s.d[v] }

// Iterations reports the simplex iteration count.
func (s *Solution) Iterations() int { return s.iters }

// X returns a copy of the primal vector in variable order.
func (s *Solution) X() []float64 { return append([]float64(nil), s.x[:s.numVars]...) }

// Solve converts the model to standard computational form (adding one
// slack per inequality row) and runs the simplex solver.
func (m *Model) Solve(ctx context.Context, opt simplex.Options) (*Solution, error) {
	return m.SolveWarm(ctx, opt, nil)
}

// SolveWarm is Solve with an optional warm-start basis, positional over
// this model's variables and constraints (see Basis). The solver
// validates it and falls back to a cold start when it does not fit, so
// SolveWarm never returns a worse answer than Solve — only, usually, a
// faster one.
func (m *Model) SolveWarm(ctx context.Context, opt simplex.Options, warm *Basis) (*Solution, error) {
	n := len(m.lb)
	mm := len(m.senses)
	if n == 0 {
		return nil, errors.New("lp: model has no variables")
	}
	slacks := 0
	for _, s := range m.senses {
		if s != EQ {
			slacks++
		}
	}
	// Standard form [A | slacks]: one unit column per inequality row,
	// after the structural columns, assembled straight from the terms
	// into the buffers of an earlier solve. A slack's cost is 0.
	f := forms.Get()
	f.slackRows = f.slackRows[:0]
	total := n + slacks
	f.clu = slices.Grow(f.clu[:0], 3*total)[:3*total]
	clear(f.clu[n:total])
	c, l, u := f.clu[:total:total], f.clu[total:2*total:2*total], f.clu[2*total:]
	dirSign := 1.0
	if m.maximize {
		dirSign = -1
	}
	for j := 0; j < n; j++ {
		c[j] = dirSign * m.obj[j]
		l[j] = m.lb[j]
		u[j] = m.ub[j]
	}
	sj := n
	for i, s := range m.senses {
		switch s {
		case LE:
			l[sj], u[sj] = 0, math.Inf(1)
		case GE:
			l[sj], u[sj] = math.Inf(-1), 0
		default:
			continue
		}
		f.slackRows = append(f.slackRows, int32(i))
		sj++
	}
	f.a.SetTriplets(mm, n, m.rows, m.cols, m.vals, f.slackRows)
	prob := &simplex.Problem{A: &f.a, B: m.rhs[:mm:mm], C: c, L: l, U: u}
	if warm != nil {
		opt.WarmStart = m.standardBasis(warm, &f.warm, total)
	}
	raw, err := simplex.Solve(ctx, prob, opt)
	// Nothing the solve returns aliases the assembly. A solve that
	// panicked does not get here, so its assembly is not reused.
	forms.Put(f)
	if err != nil {
		return nil, fmt.Errorf("lp: solving %q: %w", m.name, err)
	}
	sol := &Solution{
		Status:  raw.Status,
		Obj:     dirSign * raw.Obj,
		x:       raw.X[:n:n],
		y:       raw.Y,
		d:       raw.D[:n:n],
		iters:   raw.Iterations,
		numVars: n,
		Basis:   m.exportBasis(raw.Basis),
	}
	sol.WarmStart = raw.WarmStart
	if m.maximize {
		for i := range sol.y {
			sol.y[i] = -sol.y[i]
		}
		for j := range sol.d {
			sol.d[j] = -sol.d[j]
		}
	}
	return sol, nil
}

// standardForm holds the buffers SolveWarm assembles a model's standard
// form in: the CSC matrix [A | slacks], the objective and bound arrays
// laid end to end, the rows that carry a slack, and the warm basis.
type standardForm struct {
	a         sparse.Matrix
	clu       []float64
	slackRows []int32
	warm      simplex.Basis
}

// forms holds the idle standard-form assemblies.
var forms pool.FreeList[standardForm]
