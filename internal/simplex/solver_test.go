package simplex

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

const testTol = 1e-6

// buildProblem is a compact helper: dense rows, all equalities.
func buildProblem(rows [][]float64, b, c, l, u []float64) *Problem {
	m, n := len(rows), len(c)
	bld := sparse.NewBuilder(m, n)
	for i, row := range rows {
		for j, v := range row {
			bld.Add(i, j, v)
		}
	}
	return &Problem{A: bld.Build(), B: b, C: c, L: l, U: u}
}

func inf() float64 { return math.Inf(1) }

func TestSimpleEquality(t *testing.T) {
	// min -x1 - 2 x2  s.t.  x1 + x2 + s1 = 4; x1 + 3 x2 + s2 = 6; 0 ≤ x, s.
	// Optimum: x2 = (6-x1)/3... classic: vertex x1=3, x2=1, obj=-5.
	p := buildProblem(
		[][]float64{{1, 1, 1, 0}, {1, 3, 0, 1}},
		[]float64{4, 6},
		[]float64{-1, -2, 0, 0},
		[]float64{0, 0, 0, 0},
		[]float64{inf(), inf(), inf(), inf()},
	)
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Obj-(-5)) > testTol {
		t.Fatalf("obj = %v, want -5 (x=%v)", sol.Obj, sol.X)
	}
	if math.Abs(sol.X[0]-3) > testTol || math.Abs(sol.X[1]-1) > testTol {
		t.Fatalf("x = %v, want [3 1 0 0]", sol.X)
	}
}

func TestUpperBoundsRespected(t *testing.T) {
	// min -x1 - x2  s.t.  x1 + x2 + s = 10; x1 ≤ 3, x2 ≤ 4. Opt: 3+4=7 used, obj -7.
	p := buildProblem(
		[][]float64{{1, 1, 1}},
		[]float64{10},
		[]float64{-1, -1, 0},
		[]float64{0, 0, 0},
		[]float64{3, 4, inf()},
	)
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-(-7)) > testTol {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Obj, sol.X)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x1  s.t. x1 + x2 = 5, x2 ∈ [0, 2], x1 free. Opt: x2=2, x1=3.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]float64{5},
		[]float64{1, 0},
		[]float64{math.Inf(-1), 0},
		[]float64{inf(), 2},
	)
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.X[0]-3) > testTol {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestNegativeBounds(t *testing.T) {
	// min x  with x ∈ [-5, -1], x + s = 0, s free. Opt x=-5.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]float64{0},
		[]float64{1, 0},
		[]float64{-5, math.Inf(-1)},
		[]float64{-1, inf()},
	)
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.X[0]-(-5)) > testTol {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestFixedVariable(t *testing.T) {
	// x1 fixed at 2; min x2 s.t. x1 + x2 = 5 → x2 = 3.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]float64{5},
		[]float64{0, 1},
		[]float64{2, 0},
		[]float64{2, inf()},
	)
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.X[1]-3) > testTol {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestInfeasibleDetected(t *testing.T) {
	// x1 + x2 = 10 with x ∈ [0,1]² is infeasible.
	p := buildProblem(
		[][]float64{{1, 1}},
		[]float64{10},
		[]float64{1, 1},
		[]float64{0, 0},
		[]float64{1, 1},
	)
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible (x=%v)", sol.Status, sol.X)
	}
}

func TestUnboundedDetected(t *testing.T) {
	// min -x1 s.t. x1 - x2 = 0, x unbounded above.
	p := buildProblem(
		[][]float64{{1, -1}},
		[]float64{0},
		[]float64{-1, 0},
		[]float64{0, 0},
		[]float64{inf(), inf()},
	)
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestValidateErrors(t *testing.T) {
	p := buildProblem([][]float64{{1}}, []float64{1}, []float64{1}, []float64{2}, []float64{1})
	if _, err := Solve(context.Background(), p, Options{}); err == nil {
		t.Fatal("expected error for L > U")
	}
	if _, err := Solve(context.Background(), &Problem{}, Options{}); err == nil {
		t.Fatal("expected error for nil matrix")
	}
	bad := buildProblem([][]float64{{1}}, []float64{1, 2}, []float64{1}, []float64{0}, []float64{1})
	if _, err := Solve(context.Background(), bad, Options{}); err == nil {
		t.Fatal("expected error for rhs length mismatch")
	}
	// Columns must list their rows strictly ascending, as
	// sparse.Builder produces them: descending, duplicated and
	// out-of-range rows are all rejected.
	for _, rows := range [][]int{{1, 0}, {0, 0}, {0, 2}} {
		p := &Problem{
			A: &sparse.Matrix{Rows: 2, Cols: 1, ColPtr: []int{0, 2}, RowIdx: rows, Val: []float64{1, 1}},
			B: []float64{1, 1}, C: []float64{1}, L: []float64{0}, U: []float64{2},
		}
		if _, err := Solve(context.Background(), p, Options{}); err == nil {
			t.Fatalf("expected error for column rows %v", rows)
		}
	}
}

// checkKKT certifies that sol is optimal for p: primal feasibility,
// dual feasibility (reduced-cost signs vs. variable positions) and
// strong duality for the bounded-variable dual.
func checkKKT(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	m, n := p.A.Rows, p.A.Cols
	// Primal feasibility.
	ax := make([]float64, m)
	p.A.MulVec(sol.X, ax)
	for i := 0; i < m; i++ {
		if math.Abs(ax[i]-p.B[i]) > 1e-5*(1+math.Abs(p.B[i])) {
			t.Fatalf("row %d infeasible: Ax=%g b=%g", i, ax[i], p.B[i])
		}
	}
	for j := 0; j < n; j++ {
		if sol.X[j] < p.L[j]-1e-6 || sol.X[j] > p.U[j]+1e-6 {
			t.Fatalf("var %d out of bounds: x=%g ∉ [%g,%g]", j, sol.X[j], p.L[j], p.U[j])
		}
	}
	// Dual feasibility + complementary slackness via reduced costs.
	dualObj := 0.0
	for i := 0; i < m; i++ {
		dualObj += sol.Y[i] * p.B[i]
	}
	for j := 0; j < n; j++ {
		d := sol.D[j]
		atL := sol.X[j] <= p.L[j]+1e-6
		atU := sol.X[j] >= p.U[j]-1e-6
		switch {
		case atL && atU: // fixed: any d
		case atL:
			if d < -1e-5 {
				t.Fatalf("var %d at lower with d=%g < 0", j, d)
			}
		case atU:
			if d > 1e-5 {
				t.Fatalf("var %d at upper with d=%g > 0", j, d)
			}
		default:
			if math.Abs(d) > 1e-5 {
				t.Fatalf("var %d strictly interior with d=%g ≠ 0", j, d)
			}
		}
		if d > 0 {
			dualObj += d * p.L[j]
		} else if d < 0 {
			dualObj += d * p.U[j]
		}
	}
	if math.Abs(dualObj-sol.Obj) > 1e-4*(1+math.Abs(sol.Obj)) {
		t.Fatalf("duality gap: primal %g vs dual %g", sol.Obj, dualObj)
	}
}

// randomFeasibleLP builds an LP with finite bounds and a guaranteed
// interior feasible point (so it is feasible and bounded).
func randomFeasibleLP(r *rand.Rand, m, n int) *Problem {
	bld := sparse.NewBuilder(m, n)
	for i := 0; i < m; i++ {
		// 2-5 entries per row, always at least one.
		k := 2 + r.Intn(4)
		for t := 0; t < k; t++ {
			bld.Add(i, r.Intn(n), math.Round(r.NormFloat64()*4)/2)
		}
	}
	a := bld.Build()
	l := make([]float64, n)
	u := make([]float64, n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		l[j] = -float64(r.Intn(5))
		u[j] = l[j] + 1 + float64(r.Intn(6))
		x0[j] = l[j] + (u[j]-l[j])*r.Float64()
	}
	b := make([]float64, m)
	a.MulVec(x0, b)
	c := make([]float64, n)
	for j := 0; j < n; j++ {
		c[j] = math.Round(r.NormFloat64() * 10)
	}
	return &Problem{A: a, B: b, C: c, L: l, U: u}
}

func TestRandomLPsSatisfyKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(12)
		n := m + r.Intn(15)
		p := randomFeasibleLP(r, m, n)
		sol, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if sol.Status != Optimal {
			t.Logf("seed %d: status %v", seed, sol.Status)
			return false
		}
		checkKKT(t, p, sol)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceAssignment solves the n×n assignment problem exactly by
// enumeration (n ≤ 7).
func bruteForceAssignment(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(k int, acc float64)
	rec = func(k int, acc float64) {
		if acc >= best {
			return
		}
		if k == n {
			best = acc
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k+1, acc+cost[k][perm[k]])
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0, 0)
	return best
}

func TestAssignmentLPIntegralOptimum(t *testing.T) {
	// The assignment polytope is integral, so the LP optimum equals the
	// combinatorial optimum. This is a highly degenerate LP — a good
	// stress test for the anti-cycling machinery.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(4) // 3..6
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(20))
			}
		}
		want := bruteForceAssignment(cost)

		// Variables x[i][j] ≥ 0; rows: Σ_j x[i][j] = 1 and Σ_i x[i][j] = 1.
		bld := sparse.NewBuilder(2*n, n*n)
		c := make([]float64, n*n)
		l := make([]float64, n*n)
		u := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := i*n + j
				bld.Add(i, v, 1)
				bld.Add(n+j, v, 1)
				c[v] = cost[i][j]
				u[v] = inf()
			}
		}
		b := make([]float64, 2*n)
		for i := range b {
			b[i] = 1
		}
		p := &Problem{A: bld.Build(), B: b, C: c, L: l, U: u}
		sol, err := Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if math.Abs(sol.Obj-want) > 1e-5 {
			t.Fatalf("trial %d: LP obj %g, assignment optimum %g", trial, sol.Obj, want)
		}
		checkKKT(t, p, sol)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 suppliers (supply 30, 20), 3 consumers (demand 15, 25, 10).
	// Costs chosen so the optimum is easy to verify by hand:
	// c = [[2 4 5],[3 1 7]]. Send s2→c2 (20 @1), s1→c1 (15 @2),
	// s1→c2 (5 @4), s1→c3 (10 @5) → 20+30+20+50 = 120.
	costs := [][]float64{{2, 4, 5}, {3, 1, 7}}
	supply := []float64{30, 20}
	demand := []float64{15, 25, 10}
	bld := sparse.NewBuilder(5, 6)
	c := make([]float64, 6)
	l := make([]float64, 6)
	u := make([]float64, 6)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			v := i*3 + j
			bld.Add(i, v, 1)   // supply row
			bld.Add(2+j, v, 1) // demand row
			c[v] = costs[i][j]
			u[v] = inf()
		}
	}
	b := append(append([]float64{}, supply...), demand...)
	p := &Problem{A: bld.Build(), B: b, C: c, L: l, U: u}
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-120) > 1e-6 {
		t.Fatalf("status=%v obj=%v x=%v", sol.Status, sol.Obj, sol.X)
	}
	checkKKT(t, p, sol)
}

func TestIterLimitReported(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomFeasibleLP(rng, 10, 25)
	sol, err := Solve(context.Background(), p, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want iteration limit", sol.Status)
	}
}

func TestLargerStructuredLP(t *testing.T) {
	// A multiperiod "machine scheduling" LP exercising refactorization
	// and eta accumulation: T periods, K jobs, per-period capacity.
	rng := rand.New(rand.NewSource(99))
	T, K := 40, 30
	// Variables x[k][t] ∈ [0,1]; Σ_t x[k][t] = 1; Σ_k x[k][t] ≤ cap.
	nVars := K*T + T // plus slack per period
	bld := sparse.NewBuilder(K+T, nVars)
	c := make([]float64, nVars)
	l := make([]float64, nVars)
	u := make([]float64, nVars)
	for k := 0; k < K; k++ {
		for tt := 0; tt < T; tt++ {
			v := k*T + tt
			bld.Add(k, v, 1)
			bld.Add(K+tt, v, 1)
			c[v] = float64(tt) * (1 + rng.Float64())
			u[v] = 1
		}
	}
	for tt := 0; tt < T; tt++ {
		v := K*T + tt
		bld.Add(K+tt, v, 1)
		u[v] = inf()
	}
	b := make([]float64, K+T)
	for k := 0; k < K; k++ {
		b[k] = 1
	}
	for tt := 0; tt < T; tt++ {
		b[K+tt] = 2.0 // capacity
	}
	p := &Problem{A: bld.Build(), B: b, C: c, L: l, U: u}
	sol, err := Solve(context.Background(), p, Options{RefactorEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v after %d iters", sol.Status, sol.Iterations)
	}
	checkKKT(t, p, sol)
}

func TestEqualityOnlyNoSlackPhase1(t *testing.T) {
	// Pure equality system requiring real phase-1 work:
	// x1 + x2 = 2; x1 - x2 = 0 → x = (1,1). min x1 → 1.
	p := buildProblem(
		[][]float64{{1, 1}, {1, -1}},
		[]float64{2, 0},
		[]float64{1, 0},
		[]float64{0, 0},
		[]float64{inf(), inf()},
	)
	sol, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.X[0]-1) > testTol || math.Abs(sol.X[1]-1) > testTol {
		t.Fatalf("status=%v x=%v", sol.Status, sol.X)
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Optimal:    "optimal",
		Infeasible: "infeasible",
		Unbounded:  "unbounded",
		IterLimit:  "iteration limit",
		Status(9):  "status(9)",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

func BenchmarkSolveStructured(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := randomFeasibleLP(rng, 150, 450)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(context.Background(), p, Options{})
		if err != nil || sol.Status != Optimal {
			b.Fatalf("err=%v status=%v", err, sol.Status)
		}
	}
}
