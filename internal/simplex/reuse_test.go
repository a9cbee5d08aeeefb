package simplex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// assignmentLP is the n×n assignment problem with random integer costs
// below maxCost: 2n equality rows, n² columns with two entries each. It
// is highly degenerate, so from n = 30 on the solve perturbs its costs.
func assignmentLP(n int, seed int64, maxCost int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	bld := sparse.NewBuilder(2*n, n*n)
	c := make([]float64, n*n)
	u := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := i*n + j
			bld.Add(i, v, 1)
			bld.Add(n+j, v, 1)
			c[v] = float64(rng.Intn(maxCost))
			u[v] = inf()
		}
	}
	b := make([]float64, 2*n)
	for i := range b {
		b[i] = 1
	}
	return &Problem{A: bld.Build(), B: b, C: c, L: make([]float64, n*n), U: u}
}

// cancelAfter is a context that reports cancellation from its n-th
// Err poll on, so a solve stops partway through its pivots.
type cancelAfter struct {
	context.Context
	polls, n int
}

func (c *cancelAfter) Err() error {
	if c.polls++; c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// reuseCase is one solve of the reuse sequence with the outcome a fresh
// workspace must give: a status, or an error wrapping err.
type reuseCase struct {
	name    string
	p       *Problem
	opt     Options
	ctx     func() context.Context // nil: context.Background
	status  Status
	warm    WarmOutcome
	perturb bool // the solve perturbs its costs
	err     error
}

// reuseSequence grows and shrinks in m and n, perturbs twice (the
// second time on a larger problem), rejects warm starts for each
// reason a fitting basis can fail, ends Infeasible and at the
// iteration limit, and is cancelled mid-pivot before a normal solve.
// It solves one LP twice in a row, so that generation stamps left by
// the first solve would meet the same generations in the second.
func reuseSequence(t *testing.T) []reuseCase {
	small := buildProblem(
		[][]float64{{1, 1, 1, 0}, {1, 3, 0, 1}},
		[]float64{4, 6},
		[]float64{-1, -2, 0, 0},
		[]float64{0, 0, 0, 0},
		[]float64{inf(), inf(), inf(), inf()},
	)
	rng := rand.New(rand.NewSource(5))
	medium := randomFeasibleLP(rng, 12, 20)
	large := randomFeasibleLP(rng, 40, 70)
	infeasible := buildProblem([][]float64{{1, 1}}, []float64{5}, []float64{1, 1}, []float64{0, 0}, []float64{2, 2})
	// x1 − x2 = b: the optimum for b = 4 has x1 basic, which lands
	// below its bound for b = −3.
	shifted := func(b float64) *Problem {
		return buildProblem([][]float64{{1, -1}}, []float64{b}, []float64{1, 1}, []float64{0, 0}, []float64{10, 10})
	}
	// Column 1 is twice column 0, so a basis of both is singular.
	parallel := buildProblem([][]float64{{1, 2, 1, 0}, {2, 4, 0, 1}}, []float64{1, 2}, []float64{1, 1, 0, 0},
		[]float64{0, 0, 0, 0}, []float64{10, 10, inf(), inf()})
	singular := &Basis{M: 2, N: 4, State: []int8{VarBasic, VarBasic, VarLower, VarLower}}

	basisOf := func(p *Problem) *Basis {
		sol, err := Solve(context.Background(), p, Options{})
		if err != nil || sol.Basis == nil {
			t.Fatalf("no optimal basis to warm-start from: %v", err)
		}
		return sol.Basis
	}
	return []reuseCase{
		{name: "small", p: small, status: Optimal},
		{name: "assignment-30", p: assignmentLP(30, 30, 5), status: Optimal, perturb: true},
		{name: "medium-warm", p: medium, opt: Options{WarmStart: basisOf(medium)}, status: Optimal, warm: WarmAccepted},
		{name: "infeasible", p: infeasible, status: Infeasible},
		{name: "assignment-60", p: assignmentLP(60, 60, 100), status: Optimal, perturb: true},
		{name: "cancelled", p: assignmentLP(40, 40, 5), err: context.Canceled,
			ctx: func() context.Context { return &cancelAfter{Context: context.Background(), n: 3} }},
		{name: "large", p: large, status: Optimal},
		{name: "large-again", p: large, status: Optimal},
		{name: "warm-dims", p: medium, opt: Options{WarmStart: basisOf(large)}, status: Optimal, warm: WarmRejectedDims},
		{name: "warm-infeasible", p: shifted(-3), opt: Options{WarmStart: basisOf(shifted(4))}, status: Optimal, warm: WarmRejectedInfeasible},
		{name: "warm-singular", p: parallel, opt: Options{WarmStart: singular}, status: Optimal, warm: WarmRejectedSingular},
		{name: "iteration-limit", p: assignmentLP(40, 41, 100), opt: Options{MaxIter: 150}, status: IterLimit},
		{name: "small-again", p: small, status: Optimal},
	}
}

// solveCase solves c on s and returns the solution, the solve's
// telemetry and the error.
func solveCase(s *solver, c reuseCase) (*Solution, map[string]int64, error) {
	ctx := context.Background()
	if c.ctx != nil {
		ctx = c.ctx()
	}
	opt := c.opt
	opt.Obs = obs.NewRegistry()
	sol, err := s.solve(ctx, c.p, opt)
	return sol, opt.Obs.Snapshot().Counters, err
}

// TestWorkspaceReuseMatchesFresh solves one sequence of LPs on a single
// workspace and again with a new workspace per solve: every result, and
// every counter the solves report, must be equal bit for bit.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	reused := new(solver)
	for _, c := range reuseSequence(t) {
		want, wantObs, wantErr := solveCase(new(solver), c)
		switch {
		case c.err != nil:
			if !errors.Is(wantErr, c.err) {
				t.Fatalf("%s: fresh solve returned %v, want %v", c.name, wantErr, c.err)
			}
		case wantErr != nil:
			t.Fatalf("%s: fresh solve: %v", c.name, wantErr)
		case want.Status != c.status || want.WarmStart != c.warm:
			t.Fatalf("%s: fresh solve ended %v with warm start %v, want %v and %v",
				c.name, want.Status, want.WarmStart, c.status, c.warm)
		case c.perturb != (wantObs["simplex_perturbations_total"] > 0):
			t.Fatalf("%s: fresh solve perturbed %d times", c.name, wantObs["simplex_perturbations_total"])
		}

		checkResetState(t, c.name, reused, c.p, c.opt)
		got, gotObs, gotErr := solveCase(reused, c)
		if !errors.Is(gotErr, c.err) || (c.err == nil && gotErr != nil) {
			t.Fatalf("%s: reused workspace returned error %v, fresh %v", c.name, gotErr, wantErr)
		}
		if d := solutionDiff(got, want); d != "" {
			t.Errorf("%s: reused workspace differs from a fresh one: %s", c.name, d)
		}
		if fmt.Sprint(gotObs) != fmt.Sprint(wantObs) {
			t.Errorf("%s: reused workspace reports %v, fresh %v", c.name, gotObs, wantObs)
		}
	}
}

// checkResetState resets s and a new solver for p and requires the two
// to be equal, except where a solve writes before it reads: the LU
// factors, the eta file and the basis matrix buffers (the first
// refactorization replaces them), the pricing tree's leaves for the
// columns and its internal nodes (stored and rebuilt before the first
// pricing), and the saved costs (perturb sizes them).
func checkResetState(t *testing.T, name string, s *solver, p *Problem, opt Options) {
	t.Helper()
	fresh := new(solver)
	for _, v := range []*solver{s, fresh} {
		v.reset(context.Background(), p, opt)
	}
	rest := func(v *solver) string {
		c := *v
		c.bas, c.bmat, c.tree, c.savedCost = nil, sparse.Matrix{}, nil, nil
		return fmt.Sprintf("%+v", c) // nil and empty slices print alike
	}
	tree := func(v *solver) string {
		tr, pad := v.tree, v.tree.size+v.total
		return fmt.Sprintf("%d %d %v %v %v %v %v %v %v", v.bas.m, tr.size, tr.gen, tr.stamp, tr.queue, tr.next,
			tr.score[pad:], tr.best[pad:], tr.maxW[pad:])
	}
	if rest(s) != rest(fresh) || tree(s) != tree(fresh) {
		t.Errorf("%s: a reset workspace differs from a new one", name)
	}
}

// solutionDiff names the first field in which a and b differ, comparing
// floats by their bits; "" when they are identical.
func solutionDiff(a, b *Solution) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("solution %v vs %v", a, b)
		}
		return ""
	}
	floats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case math.Float64bits(a.Obj) != math.Float64bits(b.Obj):
		return fmt.Sprintf("objective %v vs %v", a.Obj, b.Obj)
	case !floats(a.X, b.X):
		return "primal values"
	case !floats(a.Y, b.Y):
		return "duals"
	case !floats(a.D, b.D):
		return "reduced costs"
	case a.Iterations != b.Iterations:
		return fmt.Sprintf("iterations %d vs %d", a.Iterations, b.Iterations)
	case a.WarmStart != b.WarmStart:
		return fmt.Sprintf("warm start %v vs %v", a.WarmStart, b.WarmStart)
	case (a.Basis == nil) != (b.Basis == nil):
		return "basis presence"
	case a.Basis != nil && (a.Basis.M != b.Basis.M || a.Basis.N != b.Basis.N || !slices.Equal(a.Basis.State, b.Basis.State)):
		return "basis"
	}
	return ""
}

// TestLUTelemetryPerSolve solves twice into one registry: the LU layer
// must count the two solves' factorizations and no earlier ones, and
// report the second solve's fill, also when both solves run on one
// workspace.
func TestLUTelemetryPerSolve(t *testing.T) {
	first, second := assignmentLP(30, 30, 5), randomFeasibleLP(rand.New(rand.NewSource(9)), 40, 70)
	ws := new(solver)
	for _, via := range []struct {
		name  string
		solve func(*Problem, Options) (*Solution, error)
	}{
		{"Solve", func(p *Problem, opt Options) (*Solution, error) { return Solve(context.Background(), p, opt) }},
		{"workspace", func(p *Problem, opt Options) (*Solution, error) { return ws.solve(context.Background(), p, opt) }},
	} {
		name, solve := via.name, via.solve
		for _, p := range []*Problem{first, second} { // leave factorizations behind
			if _, err := solve(p, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		reg, last := obs.NewRegistry(), obs.NewRegistry()
		for _, p := range []*Problem{first, second} {
			if _, err := solve(p, Options{Obs: reg}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Solve(context.Background(), second, Options{Obs: last}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if lu, re := snap.Counters["lu_factorizations_total"], snap.Counters["simplex_refactorizations_total"]; lu != re || lu == 0 {
			t.Errorf("%s: lu_factorizations_total = %d, simplex_refactorizations_total = %d", name, lu, re)
		}
		if fill, want := snap.Gauges["lu_fill_nnz"], last.Snapshot().Gauges["lu_fill_nnz"]; fill != want || fill == 0 {
			t.Errorf("%s: lu_fill_nnz = %d, the last solve's fill is %d", name, fill, want)
		}
	}
}

// panicAfter is a context whose n-th Err poll panics.
type panicAfter struct {
	context.Context
	polls, n int
}

func (c *panicAfter) Err() error {
	if c.polls++; c.polls >= c.n {
		panic("poll")
	}
	return nil
}

// TestSolveReturnsWorkspaceUnlessPanicked: Solve takes the workspace
// last put on the free list and puts it back after a normal return,
// also after an error, but drops it when the solve panics.
func TestSolveReturnsWorkspaceUnlessPanicked(t *testing.T) {
	// No collection may age the workspace off the list meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := assignmentLP(20, 20, 5)
	for _, c := range []struct {
		name string
		ctx  context.Context
		err  error
	}{
		{"optimal", context.Background(), nil},
		{"cancelled", &cancelAfter{Context: context.Background(), n: 2}, context.Canceled},
	} {
		ws := new(solver)
		workspaces.Put(ws)
		if _, err := Solve(c.ctx, p, Options{}); !errors.Is(err, c.err) {
			t.Fatalf("%s: solve returned %v, want %v", c.name, err, c.err)
		}
		if got := workspaces.Get(); got != ws {
			t.Fatalf("%s: the solve did not return the workspace it took", c.name)
		}
	}
	ws := new(solver)
	workspaces.Put(ws)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the solve did not panic")
			}
		}()
		// The first poll is Solve's own; the second, in the pivot loop,
		// panics.
		_, _ = Solve(&panicAfter{Context: context.Background(), n: 2}, p, Options{})
	}()
	if got := workspaces.Get(); got == ws {
		t.Fatal("a solve that panicked returned its workspace to the list")
	}
}
