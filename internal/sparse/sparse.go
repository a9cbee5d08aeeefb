// Package sparse provides the sparse linear-algebra primitives used by
// the LP solver substrate: compressed sparse column (CSC) matrices
// assembled from triplets, and the column access and matrix–vector
// kernels that the LU factorization and the revised simplex method are
// built on.
//
// The package is deliberately minimal: it implements exactly what a
// bounded-variable revised simplex with a Gilbert–Peierls LU needs.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Matrix is a sparse matrix in compressed sparse column (CSC) form.
// Only SetTriplets writes one; every other method only reads it. Row
// indices within a column are not required to be sorted unless stated
// otherwise; FromTriplets, SetTriplets and Builder sort them.
type Matrix struct {
	Rows, Cols int
	ColPtr     []int     // length Cols+1
	RowIdx     []int     // length nnz
	Val        []float64 // length nnz
}

// Nnz reports the number of stored entries.
func (m *Matrix) Nnz() int { return len(m.RowIdx) }

// Col returns the row indices and values of column j. The returned
// slices alias the matrix storage and must not be modified.
func (m *Matrix) Col(j int) ([]int, []float64) {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	return m.RowIdx[lo:hi], m.Val[lo:hi]
}

// ColNnz reports the number of stored entries in column j.
func (m *Matrix) ColNnz(j int) int { return m.ColPtr[j+1] - m.ColPtr[j] }

// At returns the value at (i, j), scanning column j. Intended for
// tests and small matrices, not for inner loops.
func (m *Matrix) At(i, j int) float64 {
	idx, val := m.Col(j)
	var sum float64
	for k, r := range idx {
		if r == i {
			sum += val[k]
		}
	}
	return sum
}

type columnSorter struct {
	idx []int
	val []float64
}

func (c columnSorter) Len() int           { return len(c.idx) }
func (c columnSorter) Less(i, j int) bool { return c.idx[i] < c.idx[j] }
func (c columnSorter) Swap(i, j int) {
	c.idx[i], c.idx[j] = c.idx[j], c.idx[i]
	c.val[i], c.val[j] = c.val[j], c.val[i]
}

// MulVec computes y = A·x densely: y has length Rows, x length Cols.
func (m *Matrix) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < m.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		for k := lo; k < hi; k++ {
			y[m.RowIdx[k]] += m.Val[k] * xj
		}
	}
}

// MulVecT computes y = Aᵀ·x densely: x has length Rows, y length Cols.
func (m *Matrix) MulVecT(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("sparse: MulVecT dimension mismatch")
	}
	for j := 0; j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		var sum float64
		for k := lo; k < hi; k++ {
			sum += m.Val[k] * x[m.RowIdx[k]]
		}
		y[j] = sum
	}
}

// ColDot returns the dot product of column j with the dense vector x.
func (m *Matrix) ColDot(j int, x []float64) float64 {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	var sum float64
	for k := lo; k < hi; k++ {
		sum += m.Val[k] * x[m.RowIdx[k]]
	}
	return sum
}

// Dense expands the matrix into a dense row-major [][]float64. For
// tests and debugging only.
func (m *Matrix) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
	}
	for j := 0; j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		for k := lo; k < hi; k++ {
			d[m.RowIdx[k]][j] += m.Val[k]
		}
	}
	return d
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Rows > 20 || m.Cols > 20 {
		return fmt.Sprintf("sparse.Matrix{%dx%d, nnz=%d}", m.Rows, m.Cols, m.Nnz())
	}
	var b strings.Builder
	d := m.Dense()
	for i := range d {
		for j := range d[i] {
			fmt.Fprintf(&b, "%8.3g ", d[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Builder accumulates triplets and produces a CSC Matrix. Duplicate
// (i, j) entries are summed.
type Builder struct {
	rows, cols int
	is, js     []int32
	vs         []float64
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Add appends the entry a[i,j] += v. Zero values are dropped.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Builder.Add out of range (%d,%d) in %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.is = append(b.is, int32(i))
	b.js = append(b.js, int32(j))
	b.vs = append(b.vs, v)
}

// Nnz reports the number of accumulated triplets (before duplicate merging).
func (b *Builder) Nnz() int { return len(b.is) }

// Build produces the CSC matrix of the accumulated triplets (see
// FromTriplets).
func (b *Builder) Build() *Matrix {
	return FromTriplets(b.rows, b.cols, b.is, b.js, b.vs, nil)
}

// shortColumn is the longest column FromTriplets orders by insertion
// sort; longer ones go through sort.Stable.
const shortColumn = 32

// FromTriplets assembles the CSC matrix whose first cols columns hold
// the entries a[is[k], js[k]] += vs[k], followed by one unit column e_i
// per row i of units (the slack columns of a standard form). Duplicates
// are summed in triplet order; entries that cancel to exactly zero are
// kept to retain the pattern. Row indices within each column come out
// ascending. The triplets are read in place: a counting sort by column
// scatters them straight into the matrix's own arrays.
func FromTriplets(rows, cols int, is, js []int32, vs []float64, units []int32) *Matrix {
	m := new(Matrix)
	m.SetTriplets(rows, cols, is, js, vs, units)
	return m
}

// SetTriplets sets m to the matrix FromTriplets(rows, cols, is, js, vs,
// units) returns, reusing m's arrays where they are large enough.
func (m *Matrix) SetTriplets(rows, cols int, is, js []int32, vs []float64, units []int32) {
	total, nnz := cols+len(units), len(vs)+len(units)
	m.Rows, m.Cols = rows, total
	m.ColPtr = slices.Grow(m.ColPtr[:0], total+1)[:total+1]
	clear(m.ColPtr)
	m.RowIdx = slices.Grow(m.RowIdx[:0], nnz)[:nnz]
	m.Val = slices.Grow(m.Val[:0], nnz)[:nnz]
	ptr := m.ColPtr
	for _, j := range js {
		ptr[j+1]++
	}
	for j := 0; j < cols; j++ {
		ptr[j+1] += ptr[j]
	}
	// Scatter with ptr[j] as column j's next free slot; afterwards it
	// holds the column's end, and the shift restores the starts.
	for k, j := range js {
		p := ptr[j]
		m.RowIdx[p], m.Val[p] = int(is[k]), vs[k]
		ptr[j] = p + 1
	}
	copy(ptr[1:cols+1], ptr[:cols])
	ptr[0] = 0
	for t, i := range units {
		p := len(vs) + t
		m.RowIdx[p], m.Val[p] = int(i), 1
		ptr[cols+t+1] = p + 1
	}
	// Order each column's rows stably, then merge duplicates in place.
	w := 0
	for j := 0; j < total; j++ {
		lo, hi := ptr[j], ptr[j+1]
		m.sortColumn(lo, hi)
		ptr[j] = w
		for k := lo; k < hi; {
			i, v := m.RowIdx[k], m.Val[k]
			for k++; k < hi && m.RowIdx[k] == i; k++ {
				v += m.Val[k]
			}
			m.RowIdx[w], m.Val[w] = i, v
			w++
		}
	}
	ptr[total] = w
	m.RowIdx, m.Val = m.RowIdx[:w], m.Val[:w]
}

// sortColumn orders entries lo..hi-1 by row, keeping equal rows in
// their original order.
func (m *Matrix) sortColumn(lo, hi int) {
	if hi-lo > shortColumn {
		sort.Stable(columnSorter{m.RowIdx[lo:hi], m.Val[lo:hi]})
		return
	}
	for k := lo + 1; k < hi; k++ {
		i, v := m.RowIdx[k], m.Val[k]
		p := k
		for ; p > lo && m.RowIdx[p-1] > i; p-- {
			m.RowIdx[p], m.Val[p] = m.RowIdx[p-1], m.Val[p-1]
		}
		m.RowIdx[p], m.Val[p] = i, v
	}
}

// Identity returns the n×n identity matrix in CSC form.
func Identity(n int) *Matrix {
	m := &Matrix{
		Rows:   n,
		Cols:   n,
		ColPtr: make([]int, n+1),
		RowIdx: make([]int, n),
		Val:    make([]float64, n),
	}
	for j := 0; j < n; j++ {
		m.ColPtr[j+1] = j + 1
		m.RowIdx[j] = j
		m.Val[j] = 1
	}
	return m
}

// InfNorm returns the max absolute entry of the dense slice x.
func InfNorm(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
