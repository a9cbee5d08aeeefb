// Package simplex implements a bounded-variable revised primal simplex
// method for linear programs in standard computational form:
//
//	minimize    c·x
//	subject to  A·x = b,   l ≤ x ≤ u
//
// with infinite bounds allowed. It is the replacement for the
// commercial LP solver (Gurobi) used in the paper's experiments: it
// produces optimal basic solutions together with dual values and
// reduced costs, so optimality can be certified externally through the
// KKT conditions.
//
// The implementation uses the classical two-phase method with
// artificial variables, a sparse LU basis factorization
// (internal/lu) refreshed periodically, product-form eta updates in
// between, Devex pricing kept in a tournament tree with a Bland's-rule
// fallback for anti-cycling, and a Harris-style two-pass ratio test.
// Each pivot's work follows the entries it changes: the FTran'd column
// and pivot row are solved and cleared over their nonzero rows only,
// and only the columns the pivot row touches are re-priced.
//
// The solver has one numerical configuration: the tolerance, the
// refactorization interval and the smallest ratio-test pivot are
// constants. Every cold start begins with a slack crash, and degenerate
// stalls get a bounded deterministic cost perturbation. A basis that
// fails to refactorize is not repaired; Solve reports it as an error.
//
// A solve allocates only its result. Its workspace (the dense vectors,
// the row-major copy of A, the LU factorization, the eta file and the
// pricing tree) comes from a process-wide free list (pool.FreeList) and
// is reset for each problem to the state a new one would have, so
// reuse never changes a pivot.
package simplex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means phase 1 terminated with positive infeasibility.
	Infeasible
	// Unbounded means the objective is unbounded below.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

// String renders the status for logs and errors.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Problem is a linear program in standard computational form. Solve
// only reads it.
type Problem struct {
	A *sparse.Matrix // m×n constraint matrix
	B []float64      // length m right-hand side
	C []float64      // length n objective
	L []float64      // length n lower bounds (may be -Inf)
	U []float64      // length n upper bounds (may be +Inf)
}

// Validate checks dimensional consistency, bound sanity, and that every
// column of A lists its rows strictly ascending, as sparse.FromTriplets
// produces them: the solver copies columns into the basis matrix as
// they are and accumulates pivot rows by rows of A in ColDot's order.
func (p *Problem) Validate() error {
	if p.A == nil {
		return errors.New("simplex: nil constraint matrix")
	}
	m, n := p.A.Rows, p.A.Cols
	if len(p.B) != m {
		return fmt.Errorf("simplex: len(B)=%d, want %d", len(p.B), m)
	}
	if len(p.C) != n || len(p.L) != n || len(p.U) != n {
		return fmt.Errorf("simplex: C/L/U lengths (%d,%d,%d), want %d",
			len(p.C), len(p.L), len(p.U), n)
	}
	if len(p.A.ColPtr) != n+1 {
		return fmt.Errorf("simplex: len(A.ColPtr)=%d, want %d", len(p.A.ColPtr), n+1)
	}
	for j := 0; j < n; j++ {
		idx, _ := p.A.Col(j)
		for k, i := range idx {
			if i < 0 || i >= m || (k > 0 && i <= idx[k-1]) {
				return fmt.Errorf("simplex: column %d rows are not strictly ascending in [0,%d)", j, m)
			}
		}
	}
	for j := 0; j < n; j++ {
		if p.L[j] > p.U[j] {
			return fmt.Errorf("simplex: variable %d has L=%g > U=%g", j, p.L[j], p.U[j])
		}
		if math.IsNaN(p.L[j]) || math.IsNaN(p.U[j]) || math.IsNaN(p.C[j]) {
			return fmt.Errorf("simplex: variable %d has NaN data", j)
		}
	}
	return nil
}

// Options tune the solver. The zero value selects sensible defaults.
type Options struct {
	// MaxIter bounds total simplex iterations (both phases).
	// Default: 200*(m+n)+10000.
	MaxIter int
	// WarmStart, when non-nil, seeds the solve with a previously
	// exported basis, skipping phase 1 when it is primal feasible for
	// this problem. Invalid or infeasible bases fall back to the cold
	// two-phase start; the result is the same optimum either way, and
	// Solution.WarmStart reports which validation check (if any)
	// forced the fallback.
	WarmStart *Basis
	// Obs, when non-nil, receives solve telemetry: pivots,
	// refactorizations, perturbations, LU factorization work,
	// and the warm-start outcome. Counters accumulate locally
	// and flush once per solve, so the pivot loop never touches an
	// atomic; pivot sequences are identical with Obs set or nil.
	Obs *obs.Registry
}

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIter == 0 {
		o.MaxIter = 200*(m+n) + 10000
	}
	return o
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	Obj        float64   // c·x at termination
	X          []float64 // length n primal values
	Y          []float64 // length m duals (row multipliers)
	D          []float64 // length n reduced costs c − Aᵀy
	Iterations int       // total simplex iterations (both phases)
	// Basis is the optimal basis in exportable form, present when the
	// solve is Optimal with no artificial variable basic. Feed it to
	// Options.WarmStart to accelerate a related solve.
	Basis *Basis
	// WarmStart reports what became of Options.WarmStart: WarmNone
	// when no basis was supplied, WarmAccepted when phase 1 was
	// skipped, or the WarmRejected* check that forced the cold start.
	WarmStart WarmOutcome
}

// variable states
const (
	stBasic int8 = iota
	stLower
	stUpper
	stFree // nonbasic at value 0, both bounds infinite
)

// Exported variable statuses, as recorded in a Basis. They are the
// internal state codes by definition, so import/export is a copy.
const (
	VarBasic = stBasic
	VarLower = stLower
	VarUpper = stUpper
	VarFree  = stFree
)

// Basis is an exported optimal basis: the states of the structural
// variables of a solve that terminated Optimal with every artificial
// variable nonbasic. It can warm-start a later solve of a problem with
// the same dimensions (Options.WarmStart); the solver validates it
// against the new problem and silently falls back to a cold start when
// it does not fit (wrong dimensions, wrong basic count, a state
// incompatible with the new bounds, a singular basis matrix, or a
// primal-infeasible starting point).
type Basis struct {
	M, N  int    // dimensions of the problem that produced it
	State []int8 // length N: VarBasic/VarLower/VarUpper/VarFree
}

type solver struct {
	prob Problem
	opt  Options
	ctx  context.Context // cancellation, polled between pivots

	m, n  int // rows, structural columns
	total int // n + m (artificials appended)

	cost    []float64 // current phase costs, length total
	state   []int8    // length total
	basisOf []int     // per row: variable index basic there
	inRow   []int     // per variable: row if basic, else -1
	xB      []float64 // length m, values of basic variables
	artSign []float64 // length m, artificial column signs (±1)

	bas  *basis
	bmat sparse.Matrix // basis matrix buffers, refilled by each refactor

	// dense work vectors, length m
	y   []float64
	w   []float64
	v2  []float64
	rho []float64 // pivot row B⁻ᵀe_r for Devex / reduced-cost updates

	// Ascending nonzero positions of w after ftran and of rho after
	// btran. Every other entry of w and rho is +0, so the next solve
	// clears just these; wMask/rhoMask collect the rows a solve wrote.
	wIdx    []int
	rhoIdx  []int
	wMask   []uint64
	rhoMask []uint64

	// Reduced costs maintained incrementally across pivots and Devex
	// reference weights, interleaved (ddw[2j] = reduced cost of j,
	// ddw[2j+1] = Devex weight): pricing updates read both per column.
	ddw []float64

	// Devex pricing over the columns (see devexTree). treeStale marks
	// that reduced costs or weights were rebuilt wholesale; the next
	// reader rebuilds the tree.
	tree      *devexTree
	treeStale bool

	// Row-major (CSR) view of A, built once per solve: the pivot-row
	// update accumulates α_r = ρᵀA by rows of A with nonzero ρ_i instead
	// of one sparse dot per nonbasic column. Every column of A stores
	// its rows ascending (Validate), so per-column accumulation order
	// matches ColDot's and the floats are identical. arj is the
	// length-total accumulator, zeroed again after every pivot.
	rowPtr  []int32
	rowCol  []int32
	rowVal  []float64
	arj     []float64
	suppOne [1]int
	// Deduplicated list of columns the current pivot row touches, with
	// a generation-stamped membership test (no clearing between pivots).
	touched  []int32
	stamp    []int32
	stampGen int32

	bland       bool // Bland's rule anti-cycling mode
	artFixed    bool // artificial upper bounds pinned to 0 (phase 2)
	degenStreak int
	pivots      int // pivots since last refactorization
	iters       int
	phase       int // current phase (1 or 2), for error context

	// Anti-degeneracy perturbation state: savedCost holds the true phase
	// costs while perturbed (restored — and optimality re-verified —
	// before any terminal status is reported).
	perturbed bool
	savedCost []float64

	// Telemetry accumulators, flushed to Options.Obs once per solve
	// (see flushObs). warm records the warm-start outcome.
	warm           WarmOutcome
	nRefactor      int
	nDegen         int // degenerate (zero-step) pivots this solve
	degenAtPerturb int // nDegen at the last perturbation (trigger baseline)
	nPerturb       int // cost perturbations applied on degenerate stalls
}

const (
	tol              = 1e-7 // primal feasibility / dual optimality tolerance
	minPivot         = 1e-9 // smallest acceptable ratio-test pivot magnitude
	refactorEvery    = 120  // pivots between basis refactorizations
	maxPerturb       = 6    // cost perturbations per solve
	cancelCheckEvery = 64   // pivots between context-cancellation polls
)

// Solve minimizes the problem. An error is returned only for malformed
// input, cancellation or numerical failure; infeasibility, unboundedness
// and iteration exhaustion are reported through Solution.Status.
//
// A basis that fails to refactorize is not repaired: Solve returns an
// error that wraps lu.ErrSingular and names the phase, iteration and
// refactorization where it happened. (A singular warm-start basis is
// only rejected; the solve then starts cold.)
//
// Solve honors ctx: cancellation is polled between pivots (every
// cancelCheckEvery iterations), so long solves return ctx.Err()
// promptly instead of running to the iteration limit. The pivot
// sequence of an uncancelled solve is identical for any ctx.
func Solve(ctx context.Context, p *Problem, opt Options) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := workspaces.Get()
	sol, err := s.solve(ctx, p, opt)
	// A solve that panicked does not get here, so its half-updated
	// workspace is dropped rather than reused.
	workspaces.Put(s)
	return sol, err
}

// workspaces holds the idle solvers. It is one list for every P, so a
// solve finds the workspace the last one left on whatever thread it
// runs, and an idle workspace is dropped after two collections.
var workspaces pool.FreeList[solver]

// solve runs one solve of p on s, whatever s held before.
func (s *solver) solve(ctx context.Context, p *Problem, opt Options) (*Solution, error) {
	s.reset(ctx, p, opt)
	defer s.release()
	return s.run()
}

// reset readies s to solve p as a new solver would: every scalar is
// zero, every dense vector zero and sized for p, and the pricing tree
// empty. The LU factors and the eta file stay until the refactorization
// every solve starts with replaces them. The buffers s already holds
// are reused when they are large enough.
func (s *solver) reset(ctx context.Context, p *Problem, opt Options) {
	m, n := p.A.Rows, p.A.Cols
	total := n + m
	*s = solver{
		prob:    *p,
		opt:     opt.withDefaults(m, n),
		ctx:     ctx,
		m:       m,
		n:       n,
		total:   total,
		cost:    zeroed(s.cost, total),
		state:   zeroed(s.state, total),
		basisOf: zeroed(s.basisOf, m),
		inRow:   zeroed(s.inRow, total),
		xB:      zeroed(s.xB, m),
		artSign: zeroed(s.artSign, m),
		bas:     s.bas.reset(m),
		bmat:    s.bmat,
		y:       zeroed(s.y, m),
		w:       zeroed(s.w, m),
		v2:      zeroed(s.v2, m),
		rho:     zeroed(s.rho, m),
		wIdx:    s.wIdx[:0],
		rhoIdx:  s.rhoIdx[:0],
		wMask:   zeroed(s.wMask, (m+63)/64),
		rhoMask: zeroed(s.rhoMask, (m+63)/64),
		ddw:     zeroed(s.ddw, 2*total),
		tree:    s.tree.reset(total),
		rowPtr:  s.rowPtr,
		rowCol:  s.rowCol,
		rowVal:  s.rowVal,
		arj:     zeroed(s.arj, total),
		touched: s.touched[:0],
		stamp:   zeroed(s.stamp, total),
		// perturb sizes it to the costs it saves.
		savedCost: s.savedCost,
	}
	s.buildCSR()
}

// release ends a solve: it flushes the solve's telemetry and drops the
// references to the caller's problem, context and options, so an idle
// workspace keeps none of them alive.
func (s *solver) release() {
	s.flushObs()
	s.prob, s.opt, s.ctx = Problem{}, Options{}, nil
}

// resize returns v with length n, reusing its array when it is large
// enough. The entries it keeps keep their values.
func resize[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// zeroed is resize with every entry zero.
func zeroed[T any](v []T, n int) []T {
	v = resize(v, n)
	clear(v)
	return v
}

// buildCSR builds the row-major view of A for the pivot-row update.
func (s *solver) buildCSR() {
	a := s.prob.A
	ptr := zeroed(s.rowPtr, s.m+1)
	s.rowCol = resize(s.rowCol, a.Nnz())
	s.rowVal = resize(s.rowVal, a.Nnz())
	for _, i := range a.RowIdx {
		ptr[i+1]++
	}
	for i := 0; i < s.m; i++ {
		ptr[i+1] += ptr[i]
	}
	// Column-major traversal fills each row's entries in ascending
	// column order (not that exactness needs it: each column gets
	// exactly one entry per row), with ptr[i] as row i's next free slot;
	// the shift then restores the row starts.
	for j := 0; j < a.Cols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		for k := lo; k < hi; k++ {
			i := a.RowIdx[k]
			p := ptr[i]
			s.rowCol[p] = int32(j)
			s.rowVal[p] = a.Val[k]
			ptr[i] = p + 1
		}
	}
	copy(ptr[1:], ptr[:s.m])
	ptr[0] = 0
	s.rowPtr = ptr
}

// value returns the current value of a nonbasic variable.
func (s *solver) value(j int) float64 {
	switch s.state[j] {
	case stLower:
		return s.lb(j)
	case stUpper:
		return s.ub(j)
	default:
		return 0
	}
}

func (s *solver) lb(j int) float64 {
	if j < s.n {
		return s.prob.L[j]
	}
	return 0 // artificial
}

func (s *solver) ub(j int) float64 {
	if j < s.n {
		return s.prob.U[j]
	}
	if s.artFixed {
		return 0
	}
	return math.Inf(1)
}

// scatterCol adds column j of the extended matrix [A | artificials]
// into dense w.
func (s *solver) scatterCol(j int, w []float64) {
	if j < s.n {
		idx, val := s.prob.A.Col(j)
		for k, i := range idx {
			w[i] += val[k]
		}
	} else {
		w[j-s.n] += s.artSign[j-s.n]
	}
}

// colDot returns column j of the extended matrix dotted with y.
func (s *solver) colDot(j int, y []float64) float64 {
	if j < s.n {
		return s.prob.A.ColDot(j, y)
	}
	return s.artSign[j-s.n] * y[j-s.n]
}

func (s *solver) run() (*Solution, error) {
	if s.opt.WarmStart != nil {
		s.warm = s.tryWarmStart()
		if s.warm == WarmAccepted {
			// The warm basis is primal feasible: phase 2 directly.
			status, err := s.iterate(2)
			if err != nil {
				return nil, err
			}
			return s.finish(status)
		}
	}
	s.initBasis()
	return s.phases()
}

// phases runs the two-phase method from the basis initBasis installed:
// phase 1 minimizes the artificial sum, phase 2 the real costs.
func (s *solver) phases() (*Solution, error) {
	// Phase 1: minimize the sum of artificial variables. A rejected
	// warm start may have left the artificials pinned.
	s.artFixed = false
	for j := 0; j < s.n; j++ {
		s.cost[j] = 0
	}
	for i := 0; i < s.m; i++ {
		s.cost[s.n+i] = 1
	}
	status, err := s.iterate(1)
	if err != nil {
		return nil, err
	}
	if status == IterLimit {
		return s.finish(IterLimit)
	}
	infeas := 0.0
	for i := 0; i < s.m; i++ {
		if v := s.basicValueOf(s.n + i); v > 0 {
			infeas += v
		}
	}
	scale := 1 + sparse.InfNorm(s.prob.B)
	if infeas > tol*scale*10 {
		return s.finish(Infeasible)
	}

	// Phase 2: real costs; artificials pinned to zero.
	s.artFixed = true
	for i := 0; i < s.m; i++ {
		s.cost[s.n+i] = 0
		j := s.n + i
		if s.state[j] == stUpper || s.state[j] == stFree {
			s.state[j] = stLower
		}
	}
	copy(s.cost[:s.n], s.prob.C)
	s.bland = false
	s.degenStreak = 0
	status, err = s.iterate(2)
	if err != nil {
		return nil, err
	}
	return s.finish(status)
}

// basicValueOf returns the value of variable j if basic, else its
// nonbasic value.
func (s *solver) basicValueOf(j int) float64 {
	if r := s.inRow[j]; r >= 0 {
		return s.xB[r]
	}
	return s.value(j)
}

// tryWarmStart attempts to install Options.WarmStart as the starting
// basis: validate it against this problem, factorize, recompute the
// basic values, and check primal feasibility. On WarmAccepted the
// solver is ready for phase 2 (artificials nonbasic and pinned to
// zero, real costs installed). Any other outcome names the check that
// failed; the solver then falls back to the cold start, which rebuilds
// every field tryWarmStart touched.
func (s *solver) tryWarmStart() WarmOutcome {
	wb := s.opt.WarmStart
	if wb.M != s.m || wb.N != s.n || len(wb.State) != s.n {
		return WarmRejectedDims
	}
	nBasic := 0
	for j := 0; j < s.n; j++ {
		l, u := s.prob.L[j], s.prob.U[j]
		switch wb.State[j] {
		case stBasic:
			nBasic++
		case stLower:
			if math.IsInf(l, -1) {
				return WarmRejectedBounds
			}
		case stUpper:
			if math.IsInf(u, 1) {
				return WarmRejectedBounds
			}
		case stFree:
			if !math.IsInf(l, -1) || !math.IsInf(u, 1) {
				return WarmRejectedBounds
			}
		default:
			return WarmRejectedBounds
		}
	}
	if nBasic != s.m {
		return WarmRejectedBasicCount
	}
	r := 0
	for j := 0; j < s.n; j++ {
		s.state[j] = wb.State[j]
		if wb.State[j] == stBasic {
			s.basisOf[r] = j
			s.inRow[j] = r
			r++
		} else {
			s.inRow[j] = -1
		}
	}
	for i := 0; i < s.m; i++ {
		j := s.n + i
		s.artSign[i] = 1
		s.state[j] = stLower
		s.inRow[j] = -1
	}
	s.artFixed = true // artificials stay fixed at zero
	if err := s.refactor(); err != nil {
		return WarmRejectedSingular
	}
	// refactor recomputed xB from scratch; verify primal feasibility
	// with the same scaled tolerance the phase-1 exit check uses.
	if !s.basicFeasible() {
		return WarmRejectedInfeasible
	}
	copy(s.cost[:s.n], s.prob.C)
	for i := 0; i < s.m; i++ {
		s.cost[s.n+i] = 0
	}
	return WarmAccepted
}

// initBasis places structural variables on their nearest finite bound
// (or zero for free variables) and installs a starting basis that
// absorbs the residual: a slack crash seats feasible singleton columns
// first, and artificials cover whatever remains. On the interval LPs,
// whose capacity rows are all inequalities, the crash leaves phase 1
// only the rows no slack can cover.
func (s *solver) initBasis() {
	for j := 0; j < s.n; j++ {
		s.inRow[j] = -1
		l, u := s.prob.L[j], s.prob.U[j]
		switch {
		case math.IsInf(l, -1) && math.IsInf(u, 1):
			s.state[j] = stFree
		case math.IsInf(l, -1):
			s.state[j] = stUpper
		case math.IsInf(u, 1):
			s.state[j] = stLower
		case math.Abs(l) <= math.Abs(u):
			s.state[j] = stLower
		default:
			s.state[j] = stUpper
		}
	}
	for i := 0; i < s.m; i++ {
		s.basisOf[i] = -1
	}
	s.slackCrash()
	s.installArtificialBasis()
}

// slackCrash seats singleton structural columns — in practice the lp
// layer's inequality slacks — basic on their rows wherever the implied
// value lands inside the column's bounds. Each seated column satisfies
// its row exactly, so the artificial for that row starts (and with cost
// 1 stays) nonbasic and phase 1 only has to price out artificials on
// the uncovered rows. Columns are scanned in ascending order so the
// crash is deterministic.
func (s *solver) slackCrash() {
	// Residual r = b − A·x_N with every structural at its initial
	// nonbasic placement.
	r := s.v2
	copy(r, s.prob.B)
	for j := 0; j < s.n; j++ {
		if v := s.value(j); v != 0 {
			idx, val := s.prob.A.Col(j)
			for k, i := range idx {
				r[i] -= val[k] * v
			}
		}
	}
	for j := 0; j < s.n; j++ {
		idx, val := s.prob.A.Col(j)
		if len(idx) != 1 || math.Abs(val[0]) < 1e-7 {
			continue
		}
		i := idx[0]
		if s.basisOf[i] >= 0 {
			continue
		}
		// Value the column must take to absorb the row residual, adding
		// back its own nonbasic contribution already counted in r.
		xj := (r[i] + val[0]*s.value(j)) / val[0]
		if xj < s.lb(j) || xj > s.ub(j) {
			continue
		}
		s.state[j] = stBasic
		s.inRow[j] = i
		s.basisOf[i] = j
	}
	for i := range r {
		r[i] = 0
	}
}

// installArtificialBasis makes the artificial variable basic on every
// row not already covered by a crash-seated column, signed to absorb
// the residual b − A·x_N of the current nonbasic structural values.
func (s *solver) installArtificialBasis() {
	// Residual r = b − A·x_N. Crash-seated basic columns contribute
	// nothing here (value() is 0 for stBasic); their rows' entries are
	// unused below and xB is recomputed from the factorization anyway.
	r := s.v2
	copy(r, s.prob.B)
	for j := 0; j < s.n; j++ {
		if v := s.value(j); v != 0 {
			idx, val := s.prob.A.Col(j)
			for k, i := range idx {
				r[i] -= val[k] * v
			}
		}
	}
	for i := 0; i < s.m; i++ {
		j := s.n + i
		if s.basisOf[i] >= 0 && s.basisOf[i] < s.n {
			// Row covered by the slack crash: its artificial starts
			// nonbasic at zero.
			s.artSign[i] = 1
			s.state[j] = stLower
			s.inRow[j] = -1
			continue
		}
		sign := 1.0
		if r[i] < 0 {
			sign = -1
		}
		s.artSign[i] = sign
		s.state[j] = stBasic
		s.inRow[j] = i
		s.basisOf[i] = j
		s.xB[i] = sign * r[i] // = |r_i| ≥ 0
	}
	if err := s.refactor(); err != nil {
		// The crash basis is lower-triangular up to a permutation
		// (singleton columns plus ±identity artificials), so this
		// cannot fail.
		panic(err)
	}
}

// basisMatrix assembles the current basis columns into the m×m CSC
// matrix the LU factorization reads, reusing the solver's buffers.
// Columns of A are already sorted and duplicate-free (Validate), so a
// straight copy that drops explicit zeros is the matrix
// sparse.FromTriplets would build from them.
func (s *solver) basisMatrix() *sparse.Matrix {
	bm := &s.bmat
	bm.Rows, bm.Cols = s.m, s.m
	bm.ColPtr = append(bm.ColPtr[:0], 0)
	bm.RowIdx, bm.Val = bm.RowIdx[:0], bm.Val[:0]
	for rpos := 0; rpos < s.m; rpos++ {
		if j := s.basisOf[rpos]; j < s.n {
			idx, val := s.prob.A.Col(j)
			for k, i := range idx {
				if val[k] != 0 {
					bm.RowIdx = append(bm.RowIdx, i)
					bm.Val = append(bm.Val, val[k])
				}
			}
		} else {
			bm.RowIdx = append(bm.RowIdx, j-s.n)
			bm.Val = append(bm.Val, s.artSign[j-s.n])
		}
		bm.ColPtr = append(bm.ColPtr, len(bm.RowIdx))
	}
	return bm
}

// refactor rebuilds the LU factorization from the current basis and
// recomputes xB from scratch to shed accumulated roundoff. A singular
// basis comes back as an error wrapping lu.ErrSingular, with the
// phase, iteration and refactorization count.
func (s *solver) refactor() error {
	s.nRefactor++
	if err := s.bas.refactor(s.basisMatrix()); err != nil {
		return fmt.Errorf("simplex: basis refactorization failed (phase %d, iteration %d, refactorization %d): %w",
			s.phase, s.iters, s.nRefactor, err)
	}
	// xB = B⁻¹ (b − Σ_nonbasic a_j v_j)
	r := s.v2
	copy(r, s.prob.B)
	for j := 0; j < s.total; j++ {
		if s.state[j] == stBasic {
			continue
		}
		if v := s.value(j); v != 0 {
			if j < s.n {
				idx, val := s.prob.A.Col(j)
				for k, i := range idx {
					r[i] -= val[k] * v
				}
			} else {
				r[j-s.n] -= s.artSign[j-s.n] * v
			}
		}
	}
	s.bas.ftran(r)
	copy(s.xB, r)
	for i := range r {
		r[i] = 0
	}
	s.pivots = 0
	return nil
}

// basicFeasible reports whether every basic value respects its bounds,
// under the same scaled tolerance as the phase-1 exit check.
func (s *solver) basicFeasible() bool {
	slack := tol * (1 + sparse.InfNorm(s.prob.B)) * 10
	for i := 0; i < s.m; i++ {
		j := s.basisOf[i]
		if v := s.xB[i]; v < s.lb(j)-slack || v > s.ub(j)+slack {
			return false
		}
	}
	return true
}

// computeDuals fills s.y with B⁻ᵀ c_B.
func (s *solver) computeDuals() {
	for i := 0; i < s.m; i++ {
		s.y[i] = s.cost[s.basisOf[i]]
	}
	s.bas.btran(s.y)
}

// recomputeReducedCosts refreshes the incrementally-maintained reduced
// costs from scratch (one BTran plus one pass over the matrix). Called
// at phase starts and after refactorizations to shed drift.
func (s *solver) recomputeReducedCosts() {
	s.computeDuals()
	for j := 0; j < s.total; j++ {
		if s.state[j] == stBasic {
			s.ddw[2*j] = 0
			continue
		}
		s.ddw[2*j] = s.cost[j] - s.colDot(j, s.y)
	}
	s.treeStale = true
}

// resetDevex restores the Devex reference framework.
func (s *solver) resetDevex() {
	for j := 0; j < s.total; j++ {
		s.ddw[2*j+1] = 1
	}
	s.treeStale = true
}

// leaf returns column j's pricing-tree leaf: its score d_j²/w_j when it
// may enter (−1 otherwise; a score of exactly 0 never wins the ascending
// scan) and its Devex weight when nonbasic (0 when basic).
func (s *solver) leaf(j int) (score, w float64) {
	if s.state[j] == stBasic {
		return -1, 0
	}
	score, w = -1, s.ddw[2*j+1]
	if _, ok := s.eligible(j); ok {
		d := s.ddw[2*j]
		if sc := d * d / w; sc > 0 {
			score = sc
		}
	}
	return score, w
}

// priceLeaf refreshes column j's leaf of the pricing tree. A stale tree
// is left to its rebuild.
func (s *solver) priceLeaf(j int) {
	if !s.treeStale {
		score, w := s.leaf(j)
		s.tree.setLeaf(j, score, w)
	}
}

// pricingTree returns the pricing tree, rebuilt first if stale.
func (s *solver) pricingTree() *devexTree {
	if s.treeStale {
		s.treeStale = false
		for j := 0; j < s.total; j++ {
			score, w := s.leaf(j)
			s.tree.store(j, score, w)
		}
		s.tree.rebuild()
	}
	return s.tree
}

// eligible reports whether nonbasic variable j can improve the
// objective, and in which direction (+1 increase, −1 decrease).
func (s *solver) eligible(j int) (dir float64, ok bool) {
	d := s.ddw[2*j]
	switch s.state[j] {
	case stLower:
		if s.lb(j) == s.ub(j) {
			return 0, false // fixed
		}
		if d < -tol {
			return 1, true
		}
	case stUpper:
		if d > tol {
			return -1, true
		}
	case stFree:
		if d < -tol {
			return 1, true
		}
		if d > tol {
			return -1, true
		}
	}
	return 0, false
}

// price selects an entering variable using Devex pricing (d_j²/w_j;
// highest score, smallest index on ties), or Bland's smallest-index
// rule in anti-cycling mode. Returns -1 when the basis is optimal for
// the current costs.
func (s *solver) price() (jEnter int, dir float64) {
	if s.bland {
		for j := 0; j < s.total; j++ {
			if s.state[j] == stBasic {
				continue
			}
			if dr, ok := s.eligible(j); ok {
				return j, dr
			}
		}
		return -1, 0
	}
	best, _ := s.pricingTree().root()
	if best < 0 {
		return -1, 0
	}
	dir, _ = s.eligible(best)
	return best, dir
}

// updatePricingAfterPivot maintains the reduced costs and Devex
// weights across a basis change: entering variable q replaced the
// basic variable at row r with pivot element alpha = (B⁻¹a_q)_r.
// It computes the pivot row ρ = B⁻ᵀe_r and updates the columns it
// touches.
func (s *solver) updatePricingAfterPivot(q, r int, alpha float64, leaving int) {
	for _, i := range s.rhoIdx {
		s.rho[i] = 0
	}
	s.rho[r] = 1
	sparse := s.bas.btranUnit(s.rho, r, s.rhoMask)
	s.rhoIdx = support(s.rho, s.rhoMask, sparse, s.rhoIdx[:0])

	dq := s.ddw[2*q]
	wq := s.ddw[2*q+1]
	ratio := dq / alpha
	gamma := wq / (alpha * alpha)
	tree := s.pricingTree()
	// q leaves the nonbasic set before the weight maximum is read.
	tree.setLeaf(q, -1, 0)
	// Accumulate α_r = ρᵀA by rows with nonzero ρ, ascending. Per column
	// the contributions arrive in ascending row order — the order
	// ColDot adds them — and skipping ρ_i = 0 rows only skips adding
	// ±0, so each accumulated α_rj is the ColDot float (up to the sign
	// of an unobservable zero).
	arj := s.arj
	s.stampGen++
	gen := s.stampGen
	tl := s.touched[:0]
	for _, i := range s.rhoIdx {
		ri := s.rho[i]
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			c := s.rowCol[k]
			arj[c] += s.rowVal[k] * ri
			if s.stamp[c] != gen {
				s.stamp[c] = gen
				tl = append(tl, c)
			}
		}
		c := int32(s.n + i)
		arj[c] += s.artSign[i] * ri
		if s.stamp[c] != gen {
			s.stamp[c] = gen
			tl = append(tl, c)
		}
	}
	s.touched = tl
	// Apply the reduced-cost / weight deltas over the touched columns
	// only (per-column updates are independent of order), clearing the
	// accumulator as we go.
	for _, c := range tl {
		j := int(c)
		v := arj[j]
		arj[j] = 0
		if v == 0 || j == q || s.state[j] == stBasic {
			continue
		}
		jj := 2 * j
		s.ddw[jj] -= ratio * v
		if w := v * v * gamma; w > s.ddw[jj+1] {
			s.ddw[jj+1] = w
		}
		s.priceLeaf(j)
	}
	// The weight maximum over the nonbasic columns other than q, before
	// the leaving variable joins them.
	_, maxW := tree.root()
	// The leaving variable becomes nonbasic with reduced cost −d_q/α;
	// iterate refreshes its leaf once its state is set.
	s.ddw[2*leaving] = -ratio
	s.ddw[2*leaving+1] = math.Max(gamma, 1)
	s.ddw[2*q] = 0
	if maxW > 1e10 {
		s.resetDevex()
	}
}

// support appends the ascending nonzero positions of v to dst and
// resets every other entry v may hold to +0. When ok, only the
// positions set in mask can be nonzero, and mask is drained; otherwise
// all of v is scanned.
func support(v []float64, mask []uint64, ok bool, dst []int) []int {
	if !ok {
		for i, x := range v {
			if x != 0 {
				dst = append(dst, i)
			} else {
				v[i] = 0
			}
		}
		return dst
	}
	for w, word := range mask {
		if word == 0 {
			continue
		}
		mask[w] = 0
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if v[i] != 0 {
				dst = append(dst, i)
			} else {
				v[i] = 0
			}
		}
	}
	return dst
}

// perturbNoise derives a reproducible pseudo-random factor in [0.5, 1)
// and a sign bit for variable j in perturbation round seq (splitmix64
// finalizer: no global state, identical across runs and platforms).
func perturbNoise(j, seq int) (float64, bool) {
	z := (uint64(j)+1)*0x9E3779B97F4A7C15 + uint64(seq)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return 0.5 + float64(z>>11)/float64(1<<54), z&1 == 1
}

// perturb applies a bounded deterministic cost perturbation to break a
// degenerate stall: each non-fixed variable's cost moves by
// ε_j = mag·(1+|c_j|)·ψ_j, signed to keep the current point
// near-optimal (at-lower-bound reduced costs pushed up, at-upper
// pushed down), with mag doubling on each escalation. The true costs
// are saved in savedCost; unperturb restores them, and every terminal
// status is re-verified against them before being reported.
func (s *solver) perturb() {
	if s.perturbed {
		copy(s.cost, s.savedCost) // escalate from the true costs
	} else {
		s.savedCost = append(s.savedCost[:0], s.cost...)
		s.perturbed = true
	}
	s.nPerturb++
	esc := s.nPerturb - 1
	if esc > 6 {
		esc = 6
	}
	mag := 100 * tol * float64(int(1)<<uint(esc))
	for j := 0; j < s.total; j++ {
		if s.lb(j) == s.ub(j) {
			continue // fixed variables cannot move; perturbing them is noise
		}
		psi, flip := perturbNoise(j, s.nPerturb)
		e := mag * (1 + math.Abs(s.cost[j])) * psi
		switch s.state[j] {
		case stUpper:
			e = -e
		case stBasic, stFree:
			if flip {
				e = -e
			}
		}
		s.cost[j] += e
	}
	s.bland = false
	s.degenStreak = 0
	s.recomputeReducedCosts()
	s.resetDevex()
}

// unperturb restores the true phase costs after a perturbation;
// reprice refreshes the reduced costs for callers that keep iterating.
func (s *solver) unperturb(reprice bool) {
	if !s.perturbed {
		return
	}
	copy(s.cost, s.savedCost)
	s.perturbed = false
	if reprice {
		s.recomputeReducedCosts()
	}
}

// ratioResult describes the outcome of the ratio test.
type ratioResult struct {
	t         float64 // step length
	leaveRow  int     // basis row leaving, or -1 for a bound flip
	leaveAt   int8    // stLower or stUpper for the leaving variable
	unbounded bool
}

// ratioTest computes the maximum step for entering variable j moving
// in direction dir with FTran'd column w (nonzeros listed in wIdx).
func (s *solver) ratioTest(j int, dir float64, w []float64, wIdx []int) ratioResult {
	pivTol := minPivot
	if s.perturbed {
		// Harris tightening under anti-degeneracy perturbation: refuse
		// the tiny pivots that drive bases singular during stalls. A
		// column rejected wholesale reports unbounded; iterate then
		// unperturbs (dropping the tightening) and re-prices, so no
		// genuine pivot is ever lost.
		pivTol = 1e-8
	}
	stepLimit := math.Inf(1)
	if l, u := s.lb(j), s.ub(j); !math.IsInf(l, -1) && !math.IsInf(u, 1) {
		stepLimit = u - l
	}

	// Pass 1: relaxed minimum ratio (bounds expanded by tol).
	tMax := stepLimit
	for _, i := range wIdx {
		wi := w[i]
		if math.Abs(wi) <= pivTol {
			continue
		}
		delta := -dir * wi // d(xB_i)/dt
		bi := s.basisOf[i]
		if delta < 0 {
			if l := s.lb(bi); !math.IsInf(l, -1) {
				if t := (s.xB[i] - (l - tol)) / -delta; t < tMax {
					tMax = t
				}
			}
		} else {
			if u := s.ub(bi); !math.IsInf(u, 1) {
				if t := ((u + tol) - s.xB[i]) / delta; t < tMax {
					tMax = t
				}
			}
		}
	}
	if math.IsInf(tMax, 1) {
		return ratioResult{unbounded: true}
	}

	// Pass 2: among rows whose exact ratio is ≤ tMax, pick the largest
	// pivot magnitude for numerical stability.
	bestRow := -1
	var bestPiv, bestT float64
	var bestAt int8
	for _, i := range wIdx {
		wi := w[i]
		if math.Abs(wi) <= pivTol {
			continue
		}
		delta := -dir * wi
		bi := s.basisOf[i]
		var t float64
		var at int8
		if delta < 0 {
			l := s.lb(bi)
			if math.IsInf(l, -1) {
				continue
			}
			t = (s.xB[i] - l) / -delta
			at = stLower
		} else {
			u := s.ub(bi)
			if math.IsInf(u, 1) {
				continue
			}
			t = (u - s.xB[i]) / delta
			at = stUpper
		}
		if t <= tMax {
			if p := math.Abs(wi); p > bestPiv {
				bestPiv, bestRow, bestT, bestAt = p, i, t, at
			}
		}
	}
	if bestRow < 0 || stepLimit <= bestT {
		// Bound flip: the entering variable runs to its other bound first.
		return ratioResult{t: stepLimit, leaveRow: -1}
	}
	if bestT < 0 {
		bestT = 0
	}
	return ratioResult{t: bestT, leaveRow: bestRow, leaveAt: bestAt}
}

// iterate runs simplex iterations for the current cost vector until
// optimality, unboundedness, or the iteration limit. Reduced costs are
// maintained incrementally (updated from the pivot row each basis
// change) and refreshed from scratch after refactorizations; Devex
// weights guide the entering choice.
func (s *solver) iterate(phase int) (Status, error) {
	s.phase = phase
	degenLimit := 2*s.m + 200
	// Budget of cumulative degenerate pivots between perturbations:
	// generous enough that small LPs never perturb (their historical
	// pivot sequences stay untouched), tight enough that a 25k-row
	// basis perturbs long before burning tens of thousands of pivots.
	perturbLimit := 500 + s.m/8
	s.recomputeReducedCosts()
	s.resetDevex()
	verifiedOptimal := false
	for {
		if s.iters >= s.opt.MaxIter {
			s.unperturb(false)
			return IterLimit, nil
		}
		// Poll cancellation between pivots. The stride keeps the check
		// off the hot path; an uncancelled context never changes the
		// pivot sequence.
		if s.iters%cancelCheckEvery == 0 {
			if err := s.ctx.Err(); err != nil {
				s.unperturb(false)
				return 0, err
			}
		}
		j, dir := s.price()
		if j < 0 {
			if s.perturbed {
				// Optimal for the perturbed costs only: restore the true
				// costs and re-verify (renewed stalling may perturb again).
				s.unperturb(true)
				verifiedOptimal = true
				continue
			}
			if !verifiedOptimal {
				// Guard against reduced-cost drift: refresh and re-price
				// once before declaring optimality.
				s.recomputeReducedCosts()
				verifiedOptimal = true
				continue
			}
			s.bland = false
			return Optimal, nil
		}
		verifiedOptimal = false

		// FTran the entering column. The scattered column's row index
		// list is its support, so the LU solve can skip pattern
		// discovery.
		for _, i := range s.wIdx {
			s.w[i] = 0
		}
		s.scatterCol(j, s.w)
		var supp []int
		if j < s.n {
			supp, _ = s.prob.A.Col(j)
		} else {
			s.suppOne[0] = j - s.n
			supp = s.suppOne[:]
		}
		sparse := s.bas.ftranSupp(s.w, supp, s.wMask)
		s.wIdx = support(s.w, s.wMask, sparse, s.wIdx[:0])

		// Exact reduced cost of the entering column (c_j − c_B·B⁻¹a_j):
		// cheap given the FTran'd column, and it corrects any drift in
		// the stored value before we commit to the pivot.
		dq := s.cost[j]
		for _, i := range s.wIdx {
			dq -= s.cost[s.basisOf[i]] * s.w[i]
		}
		s.ddw[2*j] = dq
		s.priceLeaf(j)
		if _, ok := s.eligible(j); !ok {
			// The stored reduced cost was stale; the entry is now
			// corrected, so re-price.
			continue
		}

		res := s.ratioTest(j, dir, s.w, s.wIdx)
		if res.unbounded {
			if s.perturbed {
				// The ray is eligible only under the perturbed costs, or
				// the tightened ratio test rejected every pivot: restore
				// the true costs and re-price before believing it.
				s.unperturb(true)
				verifiedOptimal = false
				continue
			}
			if phase == 1 {
				// Phase-1 objective is bounded below by zero; an
				// unbounded ray indicates numerical trouble.
				return IterLimit, fmt.Errorf("simplex: phase 1 claims unbounded (numerical failure)")
			}
			return Unbounded, nil
		}
		s.iters++

		if res.t <= tol {
			s.nDegen++
			s.degenStreak++
			if s.degenStreak > degenLimit && !s.bland {
				s.bland = true
			}
			// Stalling on large LPs is diffuse — thousands of short
			// degenerate bursts interleaved with tiny real steps — so
			// the trigger is cumulative degenerate work since the last
			// perturbation, not consecutive-streak length.
			if s.nDegen-s.degenAtPerturb > perturbLimit && s.nPerturb < maxPerturb {
				s.perturb()
				s.degenAtPerturb = s.nDegen
				continue // re-price under the perturbed costs
			}
		} else {
			s.degenStreak = 0
			if s.bland {
				s.bland = false
			}
		}

		if res.leaveRow < 0 {
			// Bound flip: no basis change, reduced costs unchanged.
			t := res.t
			for _, i := range s.wIdx {
				s.xB[i] -= dir * s.w[i] * t
			}
			if s.state[j] == stLower {
				s.state[j] = stUpper
			} else {
				s.state[j] = stLower
			}
			s.priceLeaf(j)
			continue
		}

		r := res.leaveRow
		if math.Abs(s.w[r]) < 1e-9 && s.bas.etaCount() > 0 {
			// Pivot too small on a stale factorization: refresh and retry.
			if err := s.refactor(); err != nil {
				return IterLimit, err
			}
			s.recomputeReducedCosts()
			s.iters-- // retry does not consume budget
			continue
		}
		leaving := s.basisOf[r]

		// Maintain pricing state across the basis change (needs the
		// pre-pivot factorization, so this comes before pushEta).
		s.updatePricingAfterPivot(j, r, s.w[r], leaving)

		// Apply the step to the basic values.
		t := res.t
		for _, i := range s.wIdx {
			s.xB[i] -= dir * s.w[i] * t
		}
		// Entering variable's new value.
		var enterVal float64
		switch s.state[j] {
		case stLower:
			enterVal = s.lb(j) + t
		case stUpper:
			enterVal = s.ub(j) - t
		default: // free
			enterVal = dir * t
		}
		s.state[leaving] = res.leaveAt
		if s.lb(leaving) == s.ub(leaving) {
			s.state[leaving] = stLower
		}
		s.inRow[leaving] = -1
		s.basisOf[r] = j
		s.inRow[j] = r
		s.state[j] = stBasic
		s.xB[r] = enterVal
		s.priceLeaf(leaving)

		s.bas.pushEta(r, s.w, s.wIdx, 1e-12)
		s.pivots++
		if s.pivots >= refactorEvery || s.bas.etaNnz() > 40*s.m {
			if err := s.refactor(); err != nil {
				return IterLimit, err
			}
			s.recomputeReducedCosts()
		}
	}
}

// finish assembles the Solution, refreshing the factorization so the
// reported primal/dual values are clean. A basis that no longer
// factorizes fails the solve: the duals need a complete factorization.
func (s *solver) finish(status Status) (*Solution, error) {
	if err := s.refactor(); err != nil {
		return nil, err
	}
	sol := &Solution{
		Status:     status,
		X:          make([]float64, s.n),
		Y:          make([]float64, s.m),
		D:          make([]float64, s.n),
		Iterations: s.iters,
		WarmStart:  s.warm,
	}
	for j := 0; j < s.n; j++ {
		v := s.basicValueOf(j)
		// Snap within bounds to shed roundoff.
		if l := s.prob.L[j]; v < l {
			if l-v < 1e-6 {
				v = l
			}
		}
		if u := s.prob.U[j]; v > u {
			if v-u < 1e-6 {
				v = u
			}
		}
		sol.X[j] = v
		sol.Obj += s.prob.C[j] * v
	}
	s.computeDuals()
	copy(sol.Y, s.y)
	for j := 0; j < s.n; j++ {
		sol.D[j] = s.prob.C[j] - s.prob.A.ColDot(j, s.y)
	}
	if status == Optimal {
		exportable := true
		for _, j := range s.basisOf {
			if j >= s.n {
				exportable = false
				break
			}
		}
		if exportable {
			wb := &Basis{M: s.m, N: s.n, State: make([]int8, s.n)}
			copy(wb.State, s.state[:s.n])
			sol.Basis = wb
		}
	}
	return sol, nil
}
