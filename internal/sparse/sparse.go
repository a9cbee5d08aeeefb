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

// Matrix is an immutable sparse matrix in compressed sparse column
// (CSC) form. Row indices within a column are not required to be
// sorted unless stated otherwise; use SortColumns when order matters.
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

// SortColumns sorts row indices within every column in increasing
// order, keeping values aligned.
func (m *Matrix) SortColumns() {
	var col columnSorter // one heap allocation, not one per column
	for j := 0; j < m.Cols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		col.idx, col.val = m.RowIdx[lo:hi], m.Val[lo:hi]
		sort.Sort(&col)
	}
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
	is, js     []int
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
	b.is = append(b.is, i)
	b.js = append(b.js, j)
	b.vs = append(b.vs, v)
}

// Grow reserves room for n more triplets, so a caller that knows its
// entry count fills the builder without reallocating.
func (b *Builder) Grow(n int) {
	b.is = slices.Grow(b.is, n)
	b.js = slices.Grow(b.js, n)
	b.vs = slices.Grow(b.vs, n)
}

// Nnz reports the number of accumulated triplets (before duplicate merging).
func (b *Builder) Nnz() int { return len(b.is) }

// Build produces the CSC matrix. Duplicates are summed; entries that
// cancel to exactly zero are kept (harmless) to retain the pattern.
// Row indices within each column come out sorted.
func (b *Builder) Build() *Matrix {
	m := &Matrix{Rows: b.rows, Cols: b.cols, ColPtr: make([]int, b.cols+1)}
	// Count entries per column.
	counts := make([]int, b.cols)
	for _, j := range b.js {
		counts[j]++
	}
	for j := 0; j < b.cols; j++ {
		m.ColPtr[j+1] = m.ColPtr[j] + counts[j]
	}
	nnz := m.ColPtr[b.cols]
	m.RowIdx = make([]int, nnz)
	m.Val = make([]float64, nnz)
	next := make([]int, b.cols)
	copy(next, m.ColPtr[:b.cols])
	for k := range b.is {
		j := b.js[k]
		p := next[j]
		m.RowIdx[p] = b.is[k]
		m.Val[p] = b.vs[k]
		next[j]++
	}
	m.SortColumns()
	// Merge duplicates in place.
	writePtr := 0
	newColPtr := make([]int, b.cols+1)
	for j := 0; j < b.cols; j++ {
		newColPtr[j] = writePtr
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		for k := lo; k < hi; {
			i := m.RowIdx[k]
			v := m.Val[k]
			k++
			for k < hi && m.RowIdx[k] == i {
				v += m.Val[k]
				k++
			}
			m.RowIdx[writePtr] = i
			m.Val[writePtr] = v
			writePtr++
		}
	}
	newColPtr[b.cols] = writePtr
	m.ColPtr = newColPtr
	m.RowIdx = m.RowIdx[:writePtr]
	m.Val = m.Val[:writePtr]
	return m
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
