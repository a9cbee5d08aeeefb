// Package lu implements a sparse LU factorization with partial
// pivoting using the Gilbert–Peierls left-looking algorithm. It is the
// basis-factorization engine for the revised simplex solver in
// internal/simplex, standing in for the proprietary LP solver the
// paper uses (Gurobi).
//
// The factorization computes P·B·Q = L·U where P is a row permutation
// chosen by partial pivoting, Q is a static column permutation chosen
// for sparsity (columns ordered by increasing nonzero count), L is
// unit lower triangular and U is upper triangular. Solves with B and
// Bᵀ are provided against dense right-hand sides.
//
// Pivoting is strict partial pivoting: each column pivots on its
// largest-magnitude candidate, and a column whose best candidate is at
// most pivotTol in magnitude makes Factor fail with ErrSingular.
package lu

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sparse"
)

// ErrSingular is returned (wrapped) when no acceptable pivot exists in
// some column, i.e. the matrix is singular or numerically so.
var ErrSingular = errors.New("lu: matrix is singular")

// pivotTol is the absolute magnitude at or below which a candidate
// pivot is considered zero.
const pivotTol = 1e-10

// Factorization holds the L and U factors and the permutations.
// A Factorization can be reused: calling Factor again reuses the
// internal workspace.
type Factorization struct {
	n int

	// L: unit lower triangular, stored by column in pivot order.
	// Row indices are ORIGINAL row ids; the unit diagonal is implicit.
	lColPtr []int
	lRowIdx []int
	lVal    []float64

	// U: upper triangular in pivot coordinates, stored by column.
	// Row indices are pivot positions k ≤ j; the diagonal is stored
	// separately in uDiag.
	uColPtr []int
	uRowIdx []int
	uVal    []float64
	uDiag   []float64

	p    []int // p[k] = original row pivoted at step k
	pinv []int // pinv[origRow] = pivot step, or -1 during factorization
	q    []int // q[k] = original column eliminated at step k

	// workspace
	x     []float64
	xi    []int // topological order stack
	stack []int // DFS stack (node)
	pstk  []int // DFS stack (position within column)
	mark  []bool

	// Transposed adjacency of the factors, built lazily per Factor for
	// the sparse-RHS transpose solve (see SolveTranspose): uRow lists,
	// for pivot position k, the pivot columns j > k with U[k,j] ≠ 0;
	// lRow lists, for pivot position m, the columns k < m whose L column
	// contains original row p[m].
	transOK bool
	uRowPtr []int32
	uRowCol []int32
	lRowPtr []int32
	lRowCol []int32
	patBuf  []int
	ordBuf  []int
	cntBuf  []int
	qinv    []int
	// posBits is a bitset over pivot positions, all zero between calls:
	// the sparse solve sets the positions it reached and drains them in
	// ascending or descending order, so ordering a reach set costs
	// O(n/64 + reach).
	posBits []uint64

	ordCols []int // static elimination order (column ids)
	// complete reports whether the stored factors describe a full-rank
	// factorization usable by the solves: true after a successful
	// Factor, false after an error.
	complete bool
}

// New returns a Factorization sized for n×n matrices.
func New(n int) *Factorization {
	f := &Factorization{}
	f.resize(n)
	return f
}

// N reports the dimension of the factorized matrix.
func (f *Factorization) N() int { return f.n }

// LNnz reports the number of off-diagonal nonzeros stored in L.
func (f *Factorization) LNnz() int { return len(f.lRowIdx) }

// UNnz reports the number of nonzeros stored in U including diagonal.
func (f *Factorization) UNnz() int { return len(f.uRowIdx) + f.n }

func (f *Factorization) resize(n int) {
	f.n = n
	f.lColPtr = grow(f.lColPtr, n+1)
	f.uColPtr = grow(f.uColPtr, n+1)
	f.uDiag = growF(f.uDiag, n)
	f.p = grow(f.p, n)
	f.pinv = grow(f.pinv, n)
	f.q = grow(f.q, n)
	f.qinv = grow(f.qinv, n)
	f.x = growF(f.x, n)
	f.xi = grow(f.xi, n)
	f.stack = grow(f.stack, n)
	f.pstk = grow(f.pstk, n)
	if w := (n + 63) / 64; cap(f.posBits) < w {
		f.posBits = make([]uint64, w)
	} else {
		f.posBits = f.posBits[:w]
	}
	if cap(f.mark) < n {
		f.mark = make([]bool, n)
	}
	f.mark = f.mark[:n]
}

func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Factor computes the LU factorization of the square matrix m.
// It returns an error wrapping ErrSingular when a column admits no
// pivot above the tolerance; the error reports the elimination step,
// the offending column, and the best rejected candidate's magnitude.
// After an error the stored factors are incomplete and the solves
// panic until a later Factor succeeds.
func (f *Factorization) Factor(m *sparse.Matrix) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("lu: matrix is %dx%d, want square", m.Rows, m.Cols)
	}
	n := m.Rows
	f.resize(n)
	f.transOK = false
	f.complete = false
	f.lRowIdx = f.lRowIdx[:0]
	f.lVal = f.lVal[:0]
	f.uRowIdx = f.uRowIdx[:0]
	f.uVal = f.uVal[:0]
	for i := 0; i < n; i++ {
		f.pinv[i] = -1
		f.qinv[i] = -1
		f.x[i] = 0
		f.mark[i] = false
	}

	// Static column order: increasing nonzero count. Ties broken by
	// index for determinism — a stable counting sort over the nonzero
	// counts, producing exactly the (count, index) order the previous
	// sort.SliceStable produced without the comparison-sort overhead.
	ord := grow(f.ordCols, n)
	f.ordCols = ord
	maxNnz := 0
	for j := 0; j < n; j++ {
		if c := m.ColNnz(j); c > maxNnz {
			maxNnz = c
		}
	}
	cnt := grow(f.cntBuf, maxNnz+2)
	f.cntBuf = cnt
	for i := range cnt {
		cnt[i] = 0
	}
	for j := 0; j < n; j++ {
		cnt[m.ColNnz(j)+1]++
	}
	for c := 1; c < len(cnt); c++ {
		cnt[c] += cnt[c-1]
	}
	for j := 0; j < n; j++ {
		c := m.ColNnz(j)
		ord[cnt[c]] = j
		cnt[c]++
	}

	for j := 0; j < n; j++ {
		c := ord[j]
		bIdx, bVal := m.Col(c)

		// Symbolic: compute the reach of the column pattern through
		// the graph of L (iterative DFS, reverse-postorder into xi).
		top := f.reach(bIdx)

		// Numeric: scatter b, then eliminate in topological order.
		for _, i := range bIdx {
			f.x[i] = 0
		}
		for p := top; p < n; p++ {
			f.x[f.xi[p]] = 0
		}
		for k, i := range bIdx {
			f.x[i] += bVal[k]
		}
		for p := top; p < n; p++ {
			i := f.xi[p]
			k := f.pinv[i]
			if k < 0 {
				continue
			}
			xi := f.x[i]
			if xi == 0 {
				continue
			}
			lo, hi := f.lColPtr[k], f.lColPtr[k+1]
			for t := lo; t < hi; t++ {
				f.x[f.lRowIdx[t]] -= f.lVal[t] * xi
			}
		}

		// Pivot: the largest magnitude among rows not yet pivotal.
		piv := -1
		var pivAbs float64
		for p := top; p < n; p++ {
			i := f.xi[p]
			if f.pinv[i] >= 0 {
				continue
			}
			if a := math.Abs(f.x[i]); a > pivAbs {
				pivAbs = a
				piv = i
			}
		}
		if piv < 0 || pivAbs <= pivotTol {
			f.clearColumn(top)
			return fmt.Errorf("lu: step %d (column %d, best candidate %.3g vs tolerance %.3g): %w",
				j, c, pivAbs, pivotTol, ErrSingular)
		}
		pivVal := f.x[piv]
		f.pinv[piv] = j
		f.p[j] = piv
		f.q[j] = c
		f.qinv[c] = j
		f.uDiag[j] = pivVal

		// Split the work vector into U (pivotal rows) and L
		// (remaining rows, scaled by the pivot).
		for p := top; p < n; p++ {
			i := f.xi[p]
			f.mark[i] = false
			v := f.x[i]
			f.x[i] = 0
			if i == piv || v == 0 {
				continue
			}
			if k := f.pinv[i]; k >= 0 && k < j {
				f.uRowIdx = append(f.uRowIdx, k)
				f.uVal = append(f.uVal, v)
			} else {
				f.lRowIdx = append(f.lRowIdx, i)
				f.lVal = append(f.lVal, v/pivVal)
			}
		}
		f.lColPtr[j+1] = len(f.lRowIdx)
		f.uColPtr[j+1] = len(f.uRowIdx)
	}
	f.complete = true
	return nil
}

// checkComplete guards the solves against a factorization that
// failed: its partial factors would silently produce garbage.
func (f *Factorization) checkComplete() {
	if !f.complete {
		panic("lu: solve on an incomplete (failed) factorization")
	}
}

// clearColumn resets marks and x after a failed pivot so the
// factorization object stays reusable.
func (f *Factorization) clearColumn(top int) {
	for p := top; p < f.n; p++ {
		i := f.xi[p]
		f.mark[i] = false
		f.x[i] = 0
	}
}

// reach performs an iterative DFS from the rows in pattern through the
// graph of L, storing a reverse postorder in xi[top:n] and returning
// top. Visited nodes remain marked; the caller resets marks.
func (f *Factorization) reach(pattern []int) int {
	top := f.n
	for _, root := range pattern {
		if f.mark[root] {
			continue
		}
		// Iterative DFS with an explicit (node, position) stack.
		depth := 0
		f.stack[0] = root
		f.pstk[0] = 0
		f.mark[root] = true
		for depth >= 0 {
			i := f.stack[depth]
			k := f.pinv[i]
			done := true
			if k >= 0 {
				lo, hi := f.lColPtr[k], f.lColPtr[k+1]
				for t := lo + f.pstk[depth]; t < hi; t++ {
					r := f.lRowIdx[t]
					if f.mark[r] {
						continue
					}
					// Descend into r; remember resume position.
					f.pstk[depth] = t - lo + 1
					depth++
					f.stack[depth] = r
					f.pstk[depth] = 0
					f.mark[r] = true
					done = false
					break
				}
			}
			if done {
				top--
				f.xi[top] = i
				depth--
			}
		}
	}
	return top
}

// ensureTranspose builds the row-major adjacency of U and L (pivot
// coordinates) used by the sparse transpose solve. Rebuilt lazily after
// each Factor.
func (f *Factorization) ensureTranspose() {
	if f.transOK {
		return
	}
	n := f.n
	if cap(f.uRowPtr) < n+1 {
		f.uRowPtr = make([]int32, n+1)
		f.lRowPtr = make([]int32, n+1)
	}
	f.uRowPtr = f.uRowPtr[:n+1]
	f.lRowPtr = f.lRowPtr[:n+1]
	for i := range f.uRowPtr {
		f.uRowPtr[i] = 0
		f.lRowPtr[i] = 0
	}
	for _, k := range f.uRowIdx {
		f.uRowPtr[k+1]++
	}
	for _, i := range f.lRowIdx {
		f.lRowPtr[f.pinv[i]+1]++
	}
	for k := 0; k < n; k++ {
		f.uRowPtr[k+1] += f.uRowPtr[k]
		f.lRowPtr[k+1] += f.lRowPtr[k]
	}
	if cap(f.uRowCol) < len(f.uRowIdx) {
		f.uRowCol = make([]int32, len(f.uRowIdx))
	}
	f.uRowCol = f.uRowCol[:len(f.uRowIdx)]
	if cap(f.lRowCol) < len(f.lRowIdx) {
		f.lRowCol = make([]int32, len(f.lRowIdx))
	}
	f.lRowCol = f.lRowCol[:len(f.lRowIdx)]
	next := f.xi // free between solves
	for k := 0; k < n; k++ {
		next[k] = int(f.uRowPtr[k])
	}
	for j := 0; j < n; j++ {
		for t := f.uColPtr[j]; t < f.uColPtr[j+1]; t++ {
			k := f.uRowIdx[t]
			f.uRowCol[next[k]] = int32(j)
			next[k]++
		}
	}
	for k := 0; k < n; k++ {
		next[k] = int(f.lRowPtr[k])
	}
	for j := 0; j < n; j++ {
		for t := f.lColPtr[j]; t < f.lColPtr[j+1]; t++ {
			m := f.pinv[f.lRowIdx[t]]
			f.lRowCol[next[m]] = int32(j)
			next[m]++
		}
	}
	f.transOK = true
}

// reachGraph is reach over an explicit adjacency (ptr/adj in pivot
// coordinates): DFS from roots, reverse postorder into xi[top:n]. In
// that order every node precedes the nodes reachable from it, so
// dependents come after their dependencies. Visited nodes stay marked;
// the caller clears marks.
func (f *Factorization) reachGraph(roots []int, ptr, adj []int32) int {
	top := f.n
	for _, root := range roots {
		if f.mark[root] {
			continue
		}
		depth := 0
		f.stack[0] = root
		f.pstk[0] = 0
		f.mark[root] = true
		for depth >= 0 {
			i := f.stack[depth]
			lo, hi := int(ptr[i]), int(ptr[i+1])
			done := true
			for t := lo + f.pstk[depth]; t < hi; t++ {
				r := int(adj[t])
				if f.mark[r] {
					continue
				}
				f.pstk[depth] = t - lo + 1
				depth++
				f.stack[depth] = r
				f.pstk[depth] = 0
				f.mark[r] = true
				done = false
				break
			}
			if done {
				top--
				f.xi[top] = i
				depth--
			}
		}
	}
	return top
}

// Solve computes x with B·x = b. b and x have length n and may alias.
//
// When x aliases b and b is sparse, the solve restricts itself to the
// reach of b's pattern through the factors, processing reached rows in
// the dense passes' own order (ascending pivot position forward,
// descending backward) — identical floats up to structural-zero signs.
func (f *Factorization) Solve(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("lu: Solve dimension mismatch")
	}
	f.checkComplete()
	if n >= 64 && &x[0] == &b[0] {
		pat := f.patBuf[:0]
		for i := 0; i < n && len(pat) <= n/8; i++ {
			if b[i] != 0 {
				pat = append(pat, i)
			}
		}
		f.patBuf = pat
		if len(pat) <= n/8 {
			f.solveSparse(b, x, pat, nil)
			return
		}
	}
	f.solveDense(b, x)
}

// SolveSupp is Solve for a caller that already knows a superset of b's
// nonzero pattern: supp lists original indices, ascending, and every
// entry of b outside supp is exactly zero. The pattern is filtered to
// the actual nonzeros, so the solve path and result match Solve's.
//
// It reports whether the sparse path ran. If it did and wrote is
// non-nil ((n+63)/64 words), the bit of every original index the solve
// stored a result in is ORed into wrote, and every entry of x outside
// those bits is zero. After the dense path any entry may be nonzero.
func (f *Factorization) SolveSupp(b, x []float64, supp []int, wrote []uint64) bool {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("lu: Solve dimension mismatch")
	}
	f.checkComplete()
	if n >= 64 && &x[0] == &b[0] {
		pat := f.patBuf[:0]
		for _, i := range supp {
			if b[i] != 0 {
				pat = append(pat, i)
			}
		}
		f.patBuf = pat
		if len(pat) <= n/8 {
			f.solveSparse(b, x, pat, wrote)
			return true
		}
	}
	f.solveDense(b, x)
	return false
}

func (f *Factorization) solveDense(b, x []float64) {
	n := f.n
	z := f.x // reuse workspace; zeroed on exit of Factor and solves
	// Forward: L z = P b, z indexed by pivot position.
	for k := 0; k < n; k++ {
		z[k] = b[f.p[k]]
	}
	for k := 0; k < n; k++ {
		zk := z[k]
		if zk == 0 {
			continue
		}
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		for t := lo; t < hi; t++ {
			z[f.pinv[f.lRowIdx[t]]] -= f.lVal[t] * zk
		}
	}
	// Backward: U w = z, then scatter through the column permutation.
	for j := n - 1; j >= 0; j-- {
		zj := z[j]
		if zj == 0 {
			// The quotient would be ±0; leaving the stored +0 differs
			// only in the sign of a zero.
			continue
		}
		wj := zj / f.uDiag[j]
		z[j] = wj
		if wj == 0 {
			continue
		}
		lo, hi := f.uColPtr[j], f.uColPtr[j+1]
		for t := lo; t < hi; t++ {
			z[f.uRowIdx[t]] -= f.uVal[t] * wj
		}
	}
	// x[q[j]] = w_j. All of b was read in the forward pass, so writing
	// x is safe even when x aliases b. Clear the workspace as we go.
	for j := n - 1; j >= 0; j-- {
		x[f.q[j]] = z[j]
		z[j] = 0
	}
}

// solveSparse is the sparse-pattern solve: pat lists the original rows
// i with b[i] ≠ 0, ascending. x aliases b. The original indices of the
// results are ORed into wrote when it is non-nil.
func (f *Factorization) solveSparse(b, x []float64, pat []int, wrote []uint64) {
	n := f.n
	z := f.x
	// Forward reach through L (original-row space, as in Factor), then
	// eliminate in ascending pivot order — the dense pass's order, so
	// every scatter target accumulates its contributions in the same
	// sequence. Untouched rows hold the exact zeros the dense pass
	// would compute.
	top := f.reach(pat)
	for p := top; p < n; p++ {
		i := f.xi[p]
		f.mark[i] = false
		k := f.pinv[i]
		f.posBits[k>>6] |= 1 << (uint(k) & 63)
	}
	ord := f.drainAscending(f.ordBuf[:0])
	for _, i := range pat {
		z[f.pinv[i]] = b[i]
	}
	for _, k := range ord {
		zk := z[k]
		if zk == 0 {
			continue
		}
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		for t := lo; t < hi; t++ {
			z[f.pinv[f.lRowIdx[t]]] -= f.lVal[t] * zk
		}
	}
	// Backward through U: the forward result's structural nonzeros seed
	// a reach over U's column graph (column j scatters into pivot rows
	// k < j); descending order again matches the dense pass.
	top = f.reachU(ord)
	for p := top; p < n; p++ {
		j := f.xi[p]
		f.mark[j] = false
		f.posBits[j>>6] |= 1 << (uint(j) & 63)
	}
	ord2 := f.drainDescending(ord[:0]) // forward order no longer needed
	for _, j := range ord2 {
		zj := z[j]
		if zj == 0 {
			continue
		}
		wj := zj / f.uDiag[j]
		z[j] = wj
		if wj == 0 {
			continue
		}
		lo, hi := f.uColPtr[j], f.uColPtr[j+1]
		for t := lo; t < hi; t++ {
			z[f.uRowIdx[t]] -= f.uVal[t] * wj
		}
	}
	// Output: clear the input nonzeros (x aliases b), scatter results,
	// restore the zero workspace invariant.
	for _, i := range pat {
		x[i] = 0
	}
	for _, j := range ord2 {
		i := f.q[j]
		x[i] = z[j]
		z[j] = 0
		if wrote != nil {
			wrote[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	f.ordBuf = ord2
}

// drainAscending appends the positions set in posBits to dst in
// ascending order, clearing the bitset.
func (f *Factorization) drainAscending(dst []int) []int {
	for w, word := range f.posBits {
		if word == 0 {
			continue
		}
		f.posBits[w] = 0
		for word != 0 {
			dst = append(dst, w<<6|bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// drainDescending is drainAscending in descending order.
func (f *Factorization) drainDescending(dst []int) []int {
	for w := len(f.posBits) - 1; w >= 0; w-- {
		word := f.posBits[w]
		if word == 0 {
			continue
		}
		f.posBits[w] = 0
		for word != 0 {
			b := 63 - bits.LeadingZeros64(word)
			dst = append(dst, w<<6|b)
			word &^= 1 << uint(b)
		}
	}
	return dst
}

// reachU is reach over U's column graph in pivot coordinates: DFS from
// roots (pivot positions), successors of j are the pivot rows of U's
// column j. Reverse postorder into xi[top:n]; caller clears marks.
func (f *Factorization) reachU(roots []int) int {
	top := f.n
	for _, root := range roots {
		if f.mark[root] {
			continue
		}
		depth := 0
		f.stack[0] = root
		f.pstk[0] = 0
		f.mark[root] = true
		for depth >= 0 {
			j := f.stack[depth]
			lo, hi := f.uColPtr[j], f.uColPtr[j+1]
			done := true
			for t := lo + f.pstk[depth]; t < hi; t++ {
				r := f.uRowIdx[t]
				if f.mark[r] {
					continue
				}
				f.pstk[depth] = t - lo + 1
				depth++
				f.stack[depth] = r
				f.pstk[depth] = 0
				f.mark[r] = true
				done = false
				break
			}
			if done {
				top--
				f.xi[top] = j
				depth--
			}
		}
	}
	return top
}

// SolveTranspose computes x with Bᵀ·x = b. b and x have length n and
// may alias.
//
// When x aliases b and b is sparse, the solve restricts itself to the
// reach of b's pattern through the transposed factors: rows outside the
// reach are structurally zero, and rows inside keep the exact gather
// the dense path performs (same entries, same order), so the result is
// bit-identical up to the sign of structural zeros.
func (f *Factorization) SolveTranspose(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("lu: SolveTranspose dimension mismatch")
	}
	f.checkComplete()
	if n >= 64 && &x[0] == &b[0] {
		pat := f.patBuf[:0]
		for j := 0; j < n && len(pat) <= n/8; j++ {
			if b[f.q[j]] != 0 {
				pat = append(pat, j)
			}
		}
		f.patBuf = pat
		if len(pat) <= n/8 {
			f.solveTransposeSparse(b, x, pat, nil)
			return
		}
	}
	f.solveTransposeDense(b, x)
}

// SolveTransposeSupp is SolveTranspose for a caller that already knows
// a superset of b's nonzero pattern: supp lists original indices (any
// order) and every entry of b outside supp is exactly zero. The pattern
// is filtered to the actual nonzeros — the same set SolveTranspose's
// scan finds — and root order does not affect the computed values, so
// the result matches SolveTranspose's. The result and wrote work as in
// SolveSupp.
func (f *Factorization) SolveTransposeSupp(b, x []float64, supp []int, wrote []uint64) bool {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("lu: SolveTranspose dimension mismatch")
	}
	f.checkComplete()
	if n >= 64 && &x[0] == &b[0] {
		pat := f.patBuf[:0]
		for _, i := range supp {
			if b[i] != 0 {
				pat = append(pat, f.qinv[i])
			}
		}
		f.patBuf = pat
		if len(pat) <= n/8 {
			f.solveTransposeSparse(b, x, pat, wrote)
			return true
		}
	}
	f.solveTransposeDense(b, x)
	return false
}

func (f *Factorization) solveTransposeDense(b, x []float64) {
	n := f.n
	z := f.x
	// Uᵀ z = b', with b'_j = b[q[j]]. Uᵀ is lower triangular, so go
	// ascending; each step is a gather over U's column j.
	for j := 0; j < n; j++ {
		s := b[f.q[j]]
		lo, hi := f.uColPtr[j], f.uColPtr[j+1]
		for t := lo; t < hi; t++ {
			s -= f.uVal[t] * z[f.uRowIdx[t]]
		}
		z[j] = s / f.uDiag[j]
	}
	// Lᵀ w = z. Lᵀ is upper triangular (unit diagonal), go descending;
	// gather over L's column k, whose rows live strictly below k in
	// pivot order.
	for k := n - 1; k >= 0; k-- {
		s := z[k]
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		for t := lo; t < hi; t++ {
			s -= f.lVal[t] * z[f.pinv[f.lRowIdx[t]]]
		}
		z[k] = s
	}
	// x[p[k]] = w_k.
	for k := n - 1; k >= 0; k-- {
		x[f.p[k]] = z[k]
	}
	// Clear workspace (x may alias b but never aliases f.x).
	for k := 0; k < n; k++ {
		z[k] = 0
	}
}

// solveTransposeSparse is the sparse-pattern transpose solve: pat lists
// the pivot positions j with b[q[j]] ≠ 0, ascending. x aliases b. The
// original indices of the results are ORed into wrote when it is
// non-nil.
func (f *Factorization) solveTransposeSparse(b, x []float64, pat []int, wrote []uint64) {
	n := f.n
	f.ensureTranspose()
	z := f.x
	// Uᵀ z = b' over the reach of the pattern, in topological order
	// (dependencies of a node are its DFS ancestors, stored earlier).
	// Each computed row keeps the dense path's full column gather —
	// untouched rows read as the exact zeros they are.
	topU := f.reachGraph(pat, f.uRowPtr, f.uRowCol)
	ord := f.ordBuf[:0]
	for p := topU; p < n; p++ {
		j := f.xi[p]
		f.mark[j] = false
		ord = append(ord, j)
		s := b[f.q[j]]
		lo, hi := f.uColPtr[j], f.uColPtr[j+1]
		for t := lo; t < hi; t++ {
			s -= f.uVal[t] * z[f.uRowIdx[t]]
		}
		z[j] = s / f.uDiag[j]
	}
	f.ordBuf = ord
	// Lᵀ w = z: the structural nonzeros of z seed a second reach, this
	// time downward (row k of Lᵀ reads rows m > k).
	topL := f.reachGraph(ord, f.lRowPtr, f.lRowCol)
	for p := topL; p < n; p++ {
		k := f.xi[p]
		s := z[k]
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		for t := lo; t < hi; t++ {
			s -= f.lVal[t] * z[f.pinv[f.lRowIdx[t]]]
		}
		z[k] = s
	}
	// Output: clear the input nonzeros (x aliases b), then scatter the
	// computed rows and restore the zero workspace invariant.
	for _, j := range pat {
		x[f.q[j]] = 0
	}
	for p := topL; p < n; p++ {
		k := f.xi[p]
		f.mark[k] = false
		i := f.p[k]
		x[i] = z[k]
		z[k] = 0
		if wrote != nil {
			wrote[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// Residual returns ‖B·x − b‖∞ for diagnostics.
func Residual(m *sparse.Matrix, x, b []float64) float64 {
	y := make([]float64, m.Rows)
	m.MulVec(x, y)
	var worst float64
	for i := range y {
		if d := math.Abs(y[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}
