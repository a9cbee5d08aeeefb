package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderBuildSmall(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(1, 1, 2)
	b.Add(2, 2, 3)
	b.Add(0, 2, 4)
	m := b.Build()
	if m.Nnz() != 4 {
		t.Fatalf("nnz = %d, want 4", m.Nnz())
	}
	if got := m.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if got := m.At(0, 2); got != 4 {
		t.Errorf("At(0,2) = %v, want 4", got)
	}
	if got := m.At(2, 0); got != 0 {
		t.Errorf("At(2,0) = %v, want 0", got)
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2.5)
	b.Add(1, 0, -1)
	m := b.Build()
	if m.Nnz() != 2 {
		t.Fatalf("nnz = %d, want 2 after merge", m.Nnz())
	}
	if got := m.At(0, 0); got != 3.5 {
		t.Errorf("At(0,0) = %v, want 3.5", got)
	}
}

func TestBuilderDropsExplicitZeros(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 0)
	b.Add(1, 1, 1)
	if m := b.Build(); m.Nnz() != 1 {
		t.Fatalf("nnz = %d, want 1", m.Nnz())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestSortColumns(t *testing.T) {
	b := NewBuilder(4, 1)
	b.Add(3, 0, 3)
	b.Add(1, 0, 1)
	b.Add(2, 0, 2)
	m := b.Build()
	idx, val := m.Col(0)
	for k := 1; k < len(idx); k++ {
		if idx[k-1] >= idx[k] {
			t.Fatalf("column not sorted: %v", idx)
		}
	}
	for k, i := range idx {
		if val[k] != float64(i) {
			t.Fatalf("value misaligned after sort: idx=%v val=%v", idx, val)
		}
	}
}

// randomTriplets builds a random matrix both as dense and via Builder.
func randomTriplets(rng *rand.Rand, rows, cols, n int) ([][]float64, *Matrix) {
	d := make([][]float64, rows)
	for i := range d {
		d[i] = make([]float64, cols)
	}
	b := NewBuilder(rows, cols)
	for k := 0; k < n; k++ {
		i, j := rng.Intn(rows), rng.Intn(cols)
		v := rng.NormFloat64()
		d[i][j] += v
		b.Add(i, j, v)
	}
	return d, b.Build()
}

func TestBuildMatchesDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(12)
		cols := 1 + r.Intn(12)
		d, m := randomTriplets(r, rows, cols, r.Intn(40))
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(m.At(i, j)-d[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSetTripletsReusesLikeFresh refills one matrix with triplet sets
// that grow and shrink, slack columns included: each refill must equal
// a fresh FromTriplets, down to the stored entries.
func TestSetTripletsReusesLikeFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var m Matrix
	for _, sz := range []struct{ rows, cols, n, units int }{{4, 5, 12, 1}, {9, 12, 60, 6}, {3, 2, 4, 0}, {6, 8, 30, 4}} {
		var is, js []int32
		var vs []float64
		for k := 0; k < sz.n; k++ {
			is, js = append(is, int32(rng.Intn(sz.rows))), append(js, int32(rng.Intn(sz.cols)))
			vs = append(vs, rng.NormFloat64())
		}
		units := make([]int32, sz.units)
		for t := range units {
			units[t] = int32(rng.Intn(sz.rows))
		}
		m.SetTriplets(sz.rows, sz.cols, is, js, vs, units)
		want := FromTriplets(sz.rows, sz.cols, is, js, vs, units)
		if m.Rows != want.Rows || m.Cols != want.Cols || !slices.Equal(m.ColPtr, want.ColPtr) ||
			!slices.Equal(m.RowIdx, want.RowIdx) || !slices.Equal(m.Val, want.Val) {
			t.Fatalf("%+v: refilled matrix %v differs from a fresh one %v", sz, m, *want)
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(10)
		cols := 1 + r.Intn(10)
		d, m := randomTriplets(r, rows, cols, r.Intn(30))
		x := make([]float64, cols)
		for j := range x {
			x[j] = r.NormFloat64()
		}
		y := make([]float64, rows)
		m.MulVec(x, y)
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(y[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(10)
		cols := 1 + r.Intn(10)
		d, m := randomTriplets(r, rows, cols, r.Intn(30))
		x := make([]float64, rows)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		y := make([]float64, cols)
		m.MulVecT(x, y)
		for j := 0; j < cols; j++ {
			var want float64
			for i := 0; i < rows; i++ {
				want += d[i][j] * x[i]
			}
			if math.Abs(y[j]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestColDot(t *testing.T) {
	b := NewBuilder(3, 2)
	b.Add(0, 0, 2)
	b.Add(2, 0, -1)
	b.Add(1, 1, 5)
	m := b.Build()
	x := []float64{1, 10, 100}
	if got := m.ColDot(0, x); got != 2-100 {
		t.Errorf("ColDot(0) = %v, want -98", got)
	}
	if got := m.ColDot(1, x); got != 50 {
		t.Errorf("ColDot(1) = %v, want 50", got)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	m.MulVec(x, y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity MulVec: got %v", y)
		}
	}
}

func TestInfNorm(t *testing.T) {
	if got := InfNorm([]float64{1, -7, 3}); got != 7 {
		t.Fatalf("InfNorm = %v, want 7", got)
	}
	if got := InfNorm(nil); got != 0 {
		t.Fatalf("InfNorm(nil) = %v, want 0", got)
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	bld := NewBuilder(n, n)
	for k := 0; k < 10*n; k++ {
		bld.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	m := bld.Build()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x, y)
	}
}
