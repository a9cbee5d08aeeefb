package simplex

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
)

// degenerateLP builds a deliberately nasty feasible LP: a random base
// system made rank-deficient by exactly duplicated rows, padded with
// near-parallel column pairs, and priced with zero-cost ties so the
// optimal face is fat and the simplex path heavily degenerate.
func degenerateLP(r *rand.Rand) *Problem {
	mBase := 3 + r.Intn(8)
	n := mBase + 2 + r.Intn(10)
	bld := sparse.NewBuilder(mBase, n)
	for i := 0; i < mBase; i++ {
		k := 2 + r.Intn(3)
		for t := 0; t < k; t++ {
			bld.Add(i, r.Intn(n), math.Round(r.NormFloat64()*4)/2)
		}
	}
	a := bld.Build()

	l := make([]float64, n)
	u := make([]float64, n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		l[j] = -float64(r.Intn(3))
		u[j] = l[j] + float64(1+r.Intn(4))
		// Many variables start exactly on a bound: primal degeneracy.
		switch r.Intn(3) {
		case 0:
			x0[j] = l[j]
		case 1:
			x0[j] = u[j]
		default:
			x0[j] = l[j] + (u[j]-l[j])*r.Float64()
		}
	}
	b := make([]float64, mBase)
	a.MulVec(x0, b)

	// Re-assemble with duplicated rows (consistent, so still feasible)
	// and near-parallel duplicate columns.
	dupRows := 1 + r.Intn(3)
	dupCols := 1 + r.Intn(3)
	m2 := mBase + dupRows
	n2 := n + dupCols
	bld2 := sparse.NewBuilder(m2, n2)
	rowOf := make([]int, m2)
	for i := 0; i < mBase; i++ {
		rowOf[i] = i
	}
	for d := 0; d < dupRows; d++ {
		rowOf[mBase+d] = r.Intn(mBase)
	}
	colOf := make([]int, n2)
	for j := 0; j < n; j++ {
		colOf[j] = j
	}
	for d := 0; d < dupCols; d++ {
		colOf[n+d] = r.Intn(n)
	}
	for i2 := 0; i2 < m2; i2++ {
		src := rowOf[i2]
		for j := 0; j < n; j++ {
			if v := a.At(src, j); v != 0 {
				bld2.Add(i2, j, v)
			}
		}
		for d := 0; d < dupCols; d++ {
			if v := a.At(src, colOf[n+d]); v != 0 {
				eps := 0.0
				if r.Intn(2) == 0 {
					eps = 1e-9 * r.NormFloat64() // near-parallel, not exact
				}
				bld2.Add(i2, n+d, v+eps)
			}
		}
	}
	b2 := make([]float64, m2)
	for i2 := 0; i2 < m2; i2++ {
		b2[i2] = b[rowOf[i2]]
	}
	l2 := make([]float64, n2)
	u2 := make([]float64, n2)
	c2 := make([]float64, n2)
	copy(l2, l)
	copy(u2, u)
	for d := 0; d < dupCols; d++ {
		// Duplicate columns fixed at zero keep the duplicated-row system
		// consistent while their near-parallel data still enters bases.
		l2[n+d] = 0
		u2[n+d] = float64(r.Intn(2)) // half of them genuinely movable
	}
	// Zero-cost ties: most variables share cost 0 or ±1.
	for j := 0; j < n2; j++ {
		c2[j] = float64(r.Intn(3) - 1)
	}
	return &Problem{A: bld2.Build(), B: b2, C: c2, L: l2, U: u2}
}

// TestDegenerateLPsNeverSingular is the robustness property the
// solver must keep without any singular-basis recovery: whatever a
// rank-deficient, tie-riddled LP does to the basis, Solve must come
// back with a verdict — optimal, infeasible, unbounded, or iteration
// limit — never a surfaced lu.ErrSingular.
func TestDegenerateLPsNeverSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 400; iter++ {
		r := rand.New(rand.NewSource(rng.Int63()))
		p := degenerateLP(r)
		sol, err := Solve(context.Background(), p, Options{MaxIter: 5000})
		if err != nil {
			if errors.Is(err, lu.ErrSingular) {
				t.Fatalf("iter %d: Solve surfaced a singular basis: %v", iter, err)
			}
			t.Fatalf("iter %d: Solve failed: %v", iter, err)
		}
		switch sol.Status {
		case Optimal:
			// The construction is feasible by design; sanity-check the
			// reported point against constraints and bounds.
			res := make([]float64, p.A.Rows)
			p.A.MulVec(sol.X, res)
			scale := 1 + sparse.InfNorm(p.B)
			for i := range res {
				if math.Abs(res[i]-p.B[i]) > 1e-5*scale {
					t.Fatalf("iter %d: optimal point violates row %d: %g vs %g",
						iter, i, res[i], p.B[i])
				}
			}
			for j, v := range sol.X {
				if v < p.L[j]-1e-6 || v > p.U[j]+1e-6 {
					t.Fatalf("iter %d: x[%d]=%g outside [%g,%g]", iter, j, v, p.L[j], p.U[j])
				}
			}
		case Infeasible, Unbounded, IterLimit:
			// Acceptable verdicts for a numerically nasty instance.
		default:
			t.Fatalf("iter %d: unexpected status %v", iter, sol.Status)
		}
	}
}

// singularBasisSolver returns a solver for a 2×2 LP whose two
// structural columns are parallel, with both installed as the basis.
func singularBasisSolver() *solver {
	bld := sparse.NewBuilder(2, 2)
	bld.Add(0, 0, 1)
	bld.Add(1, 0, 2)
	bld.Add(0, 1, 2)
	bld.Add(1, 1, 4) // col 1 = 2·col 0
	p := &Problem{
		A: bld.Build(),
		B: []float64{1, 2},
		C: []float64{1, 1},
		L: []float64{0, 0},
		U: []float64{10, 10},
	}
	s := new(solver)
	s.reset(context.Background(), p, Options{})
	copy(s.basisOf, []int{0, 1}) // both structural columns: singular basis
	copy(s.inRow, []int{0, 1, -1, -1})
	copy(s.artSign, []float64{1, 1})
	s.state[0], s.state[1] = stBasic, stBasic
	s.state[2], s.state[3] = stLower, stLower
	return s
}

// TestRefactorErrorCarriesContext checks the enriched singular-basis
// error format end to end at the lu layer the solver wraps.
func TestRefactorErrorCarriesContext(t *testing.T) {
	err := singularBasisSolver().refactor()
	if err == nil {
		t.Fatal("refactor of a singular basis returned nil")
	}
	if !errors.Is(err, lu.ErrSingular) {
		t.Fatalf("error %v does not wrap lu.ErrSingular", err)
	}
	for _, want := range []string{"phase", "iteration", "refactorization", "step", "column"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q lacks %q context", err.Error(), want)
		}
	}
}

// TestFinishReportsFailedRefactor checks that a basis which fails the
// final refactorization fails the solve with an error, instead of
// computing duals from the incomplete factorization (which panics).
func TestFinishReportsFailedRefactor(t *testing.T) {
	sol, err := singularBasisSolver().finish(Optimal)
	if err == nil {
		t.Fatalf("finish on a singular basis returned %+v and no error", sol)
	}
	if !errors.Is(err, lu.ErrSingular) {
		t.Fatalf("error %v does not wrap lu.ErrSingular", err)
	}
}
