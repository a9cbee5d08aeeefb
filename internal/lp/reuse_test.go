package lp

import (
	"context"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/simplex"
)

// feasibleModel builds a model over n variables bounded to [lb, ub]
// with random objective and eq equality rows followed by ineq
// inequality rows of alternating sense, each satisfied with room by
// the middle of the bound box.
func feasibleModel(rng *rand.Rand, n, eq, ineq int, lb, ub float64, maximize bool) *Model {
	m := NewModel("reuse")
	m.SetMaximize(maximize)
	vars := make([]VarID, n)
	for j := range vars {
		vars[j] = m.AddVar("", lb, ub, float64(rng.Intn(11)-5))
	}
	mid := (lb + ub) / 2
	for i := 0; i < eq+ineq; i++ {
		coefs := make([]float64, n)
		lhs := 0.0
		for j := range coefs {
			if rng.Intn(2) == 0 {
				coefs[j] = float64(rng.Intn(7) - 3)
				lhs += coefs[j] * mid
			}
		}
		var c ConstrID
		switch {
		case i < eq:
			c = m.AddConstr("", EQ, lhs)
		case i%2 == 0:
			c = m.AddConstr("", LE, lhs+1)
		default:
			c = m.AddConstr("", GE, lhs-1)
		}
		for j, v := range vars {
			m.AddTerm(c, v, coefs[j])
		}
	}
	return m
}

// solveIn solves m with warm on the standard-form buffers f: it puts f
// on the free list, where SolveWarm takes it from, and requires the
// solve to return it there.
func solveIn(t *testing.T, m *Model, f *standardForm, warm *Basis) *Solution {
	t.Helper()
	forms.Put(f)
	sol, err := m.SolveWarm(context.Background(), simplex.Options{}, warm)
	if err != nil {
		t.Fatal(err)
	}
	if forms.Get() != f {
		t.Fatal("the solve did not return the standard form it took")
	}
	return sol
}

// TestReusedStandardFormSolvesLikeFresh solves a model with many slack
// columns, other bounds and a maximize objective on the buffers of a
// warm-started model with more variables and one inequality row, cold
// and warm: the result must be bit-equal to that of fresh buffers. The
// first model's costs sit where the second's slack columns go, so a
// slack cost left over from it would show.
func TestReusedStandardFormSolvesLikeFresh(t *testing.T) {
	// No collection may age the buffers off the list between solves.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(4))
	first := feasibleModel(rng, 14, 5, 1, 0, 4, false)
	second := feasibleModel(rng, 5, 1, 8, -2, 3, true)
	var bases [2]*Basis
	for i, m := range []*Model{first, second} {
		sol := solveIn(t, m, new(standardForm), nil)
		if sol.Status != simplex.Optimal || sol.Basis == nil {
			t.Fatalf("model %d: status %v, basis %v", i, sol.Status, sol.Basis)
		}
		bases[i] = sol.Basis
	}
	for _, warm := range []*Basis{nil, bases[1]} {
		f := new(standardForm)
		solveIn(t, first, f, bases[0])
		got := solveIn(t, second, f, warm)
		want := solveIn(t, second, new(standardForm), warm)
		if d := lpSolutionDiff(got, want); d != "" {
			t.Errorf("warm basis %v: reused buffers differ from fresh ones: %s", warm != nil, d)
		}
		if warm != nil && want.WarmStart != simplex.WarmAccepted {
			t.Errorf("the model's own basis was not accepted: %v", want.WarmStart)
		}
	}
}

// lpSolutionDiff names the first field in which a and b differ,
// comparing floats by their bits; "" when they are identical.
func lpSolutionDiff(a, b *Solution) string {
	floats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case a.Status != b.Status:
		return "status"
	case math.Float64bits(a.Obj) != math.Float64bits(b.Obj):
		return "objective"
	case !floats(a.x, b.x):
		return "primal values"
	case !floats(a.y, b.y):
		return "duals"
	case !floats(a.d, b.d):
		return "reduced costs"
	case a.iters != b.iters:
		return "iterations"
	case a.WarmStart != b.WarmStart:
		return "warm start"
	case (a.Basis == nil) != (b.Basis == nil):
		return "basis presence"
	case a.Basis != nil && (!slices.Equal(a.Basis.Vars, b.Basis.Vars) || !slices.Equal(a.Basis.Cons, b.Basis.Cons)):
		return "basis"
	}
	return ""
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

// TestPanickedSolveDropsStandardForm: a solve that panics does not
// return its standard-form buffers to the free list.
func TestPanickedSolveDropsStandardForm(t *testing.T) {
	m := feasibleModel(rand.New(rand.NewSource(4)), 12, 5, 1, 0, 4, false)
	f := new(standardForm)
	forms.Put(f)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the solve did not panic")
			}
		}()
		// simplex.Solve polls once before pivoting and again at the
		// first pivot, which panics.
		_, _ = m.SolveWarm(&panicAfter{Context: context.Background(), n: 2}, simplex.Options{}, nil)
	}()
	if forms.Get() == f {
		t.Fatal("a solve that panicked returned its standard form to the list")
	}
}
