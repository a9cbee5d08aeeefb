package lp

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/simplex"
)

func TestModelBasicMin(t *testing.T) {
	m := NewModel("basic")
	x := m.AddVar("x", 0, math.Inf(1), -1)
	y := m.AddVar("y", 0, math.Inf(1), -2)
	c1 := m.AddConstr("c1", LE, 4)
	m.AddTerm(c1, x, 1)
	m.AddTerm(c1, y, 1)
	c2 := m.AddConstr("c2", LE, 6)
	m.AddTerm(c2, x, 1)
	m.AddTerm(c2, y, 3)
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != simplex.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Obj-(-5)) > 1e-6 {
		t.Fatalf("obj = %v, want -5", sol.Obj)
	}
	if math.Abs(sol.Value(x)-3) > 1e-6 || math.Abs(sol.Value(y)-1) > 1e-6 {
		t.Fatalf("x=%v y=%v", sol.Value(x), sol.Value(y))
	}
}

func TestModelMaximize(t *testing.T) {
	m := NewModel("max")
	x := m.AddVar("x", 0, 5, 3)
	m.SetMaximize(true)
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj-15) > 1e-6 || math.Abs(sol.Value(x)-5) > 1e-6 {
		t.Fatalf("obj=%v x=%v", sol.Obj, sol.Value(x))
	}
}

func TestModelGEConstraint(t *testing.T) {
	// min x + y s.t. x + y >= 3 → obj 3.
	m := NewModel("ge")
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	c := m.AddConstr("cover", GE, 3)
	m.AddTerm(c, x, 1)
	m.AddTerm(c, y, 1)
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != simplex.Optimal || math.Abs(sol.Obj-3) > 1e-6 {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Obj)
	}
}

func TestModelEquality(t *testing.T) {
	m := NewModel("eq")
	x := m.AddVar("x", 0, math.Inf(1), 2)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	c := m.AddConstr("bal", EQ, 7)
	m.AddTerm(c, x, 1)
	m.AddTerm(c, y, 1)
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj-7) > 1e-6 || math.Abs(sol.Value(y)-7) > 1e-6 {
		t.Fatalf("obj=%v y=%v", sol.Obj, sol.Value(y))
	}
}

func TestModelDualsOnMaximize(t *testing.T) {
	// max 3x s.t. x <= 4 (as a row). Dual of the row should be 3.
	m := NewModel("dual")
	x := m.AddVar("x", 0, math.Inf(1), 3)
	m.SetMaximize(true)
	c := m.AddConstr("cap", LE, 4)
	m.AddTerm(c, x, 1)
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj-12) > 1e-6 {
		t.Fatalf("obj = %v", sol.Obj)
	}
	if math.Abs(sol.Dual(c)-3) > 1e-5 {
		t.Fatalf("dual = %v, want 3", sol.Dual(c))
	}
}

func TestModelAccessors(t *testing.T) {
	m := NewModel("acc")
	v := m.AddVar("v", 1, 2, 5)
	if m.VarName(v) != "v" || m.Obj(v) != 5 {
		t.Fatal("accessors wrong")
	}
	if l, u := m.Bounds(v); l != 1 || u != 2 {
		t.Fatal("bounds wrong")
	}
	c := m.AddConstr("row", EQ, 1)
	if m.ConstrName(c) != "row" {
		t.Fatal("ConstrName wrong")
	}
	if m.NumVars() != 1 || m.NumConstrs() != 1 {
		t.Fatal("counts wrong")
	}
	if m.Name() != "acc" {
		t.Fatal("name wrong")
	}
}

// TestSolveWarmPositionalBasis re-solves a model with LE, EQ and GE
// rows from its own optimal basis, which must install without a pivot,
// and from bases one entry short, which must be rejected on dimensions
// without changing the optimum.
func TestSolveWarmPositionalBasis(t *testing.T) {
	ctx := context.Background()
	// min x + 3y + 3z s.t. x + y ≤ 10, x + z = 4, y + z ≥ 3 → x=1, z=3.
	m := NewModel("warm")
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 3)
	z := m.AddVar("z", 0, math.Inf(1), 3)
	le := m.AddConstr("le", LE, 10)
	m.AddTerm(le, x, 1)
	m.AddTerm(le, y, 1)
	eq := m.AddConstr("eq", EQ, 4)
	m.AddTerm(eq, x, 1)
	m.AddTerm(eq, z, 1)
	ge := m.AddConstr("ge", GE, 3)
	m.AddTerm(ge, y, 1)
	m.AddTerm(ge, z, 1)

	cold, err := m.Solve(ctx, simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != simplex.Optimal || math.Abs(cold.Obj-10) > 1e-9 {
		t.Fatalf("cold solve: status %v obj %v, want optimal 10", cold.Status, cold.Obj)
	}
	b := cold.Basis
	if b == nil || len(b.Vars) != 3 || len(b.Cons) != 3 {
		t.Fatalf("exported basis %+v, want 3 variables and 3 constraints", b)
	}

	// The equality row's entry is ignored: no slack carries it.
	same := &Basis{Vars: b.Vars, Cons: append([]int8(nil), b.Cons...)}
	same.Cons[eq] = simplex.VarFree
	for _, warm := range []*Basis{b, same} {
		sol, err := m.SolveWarm(ctx, simplex.Options{}, warm)
		if err != nil {
			t.Fatal(err)
		}
		if sol.WarmStart != simplex.WarmAccepted || sol.Iterations() != 0 {
			t.Fatalf("own basis: outcome %v after %d iterations, want accepted after 0", sol.WarmStart, sol.Iterations())
		}
		if sol.Obj != cold.Obj {
			t.Fatalf("own basis: obj %v, want %v", sol.Obj, cold.Obj)
		}
	}

	for _, short := range []*Basis{
		{Vars: b.Vars[:2], Cons: b.Cons},
		{Vars: b.Vars, Cons: b.Cons[:2]},
	} {
		sol, err := m.SolveWarm(ctx, simplex.Options{}, short)
		if err != nil {
			t.Fatal(err)
		}
		if sol.WarmStart != simplex.WarmRejectedDims {
			t.Fatalf("basis of %d variables and %d constraints: outcome %v, want %v",
				len(short.Vars), len(short.Cons), sol.WarmStart, simplex.WarmRejectedDims)
		}
		if sol.Status != simplex.Optimal || math.Abs(sol.Obj-cold.Obj) > 1e-9 {
			t.Fatalf("basis of %d variables and %d constraints: status %v obj %v, want optimal %v",
				len(short.Vars), len(short.Cons), sol.Status, sol.Obj, cold.Obj)
		}
	}
}

func TestModelNoVarsError(t *testing.T) {
	if _, err := NewModel("empty").Solve(context.Background(), simplex.Options{}); err == nil {
		t.Fatal("expected error on empty model")
	}
}

func TestParseLPRoundTrip(t *testing.T) {
	src := `
// a comment
min: 2 x + 3 y - z;
c1: x + y >= 4;
c2: x - 2 y <= 3;    # another comment
c3: x + z = 5;
x <= 10;
0 <= y <= 8;
free z;
`
	m, err := ParseLP(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVars() != 3 || m.NumConstrs() != 3 {
		t.Fatalf("vars=%d constrs=%d", m.NumVars(), m.NumConstrs())
	}
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != simplex.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	// Write, re-parse, re-solve: objective must match.
	var sb strings.Builder
	if err := WriteLP(&sb, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ParseLP(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	sol2, err := m2.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj-sol2.Obj) > 1e-6 {
		t.Fatalf("round-trip obj %v vs %v\n%s", sol.Obj, sol2.Obj, sb.String())
	}
}

func TestParseLPReversedRelation(t *testing.T) {
	m, err := ParseLP(strings.NewReader("min: x;\nc: 4 <= x + y;\n"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != simplex.Optimal || math.Abs(sol.Obj) > 1e-9 {
		// y covers the demand for free, so min x = 0.
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Obj)
	}
}

func TestParseLPErrors(t *testing.T) {
	cases := []string{
		"c1: x + y >= 4;",            // missing objective
		"min: x; min: y;",            // duplicate objective
		"min: x; c: x + >= ;",        // junk
		"min: x; c: 3 4 x >= 1;",     // consecutive numbers
		"min: x; weird statement;",   // no relation
		"min: x; c: x + y >= zebra;", // non-numeric rhs both sides non-numeric? rhs is symbol -> error
		"min: x; 1 <= x + y <= 2;",   // range over expression unsupported
	}
	for _, src := range cases {
		if _, err := ParseLP(strings.NewReader(src)); err == nil {
			t.Errorf("ParseLP(%q) succeeded, want error", src)
		}
	}
}

func TestParseLPMaximize(t *testing.T) {
	m, err := ParseLP(strings.NewReader("max: 2 x;\nx <= 3;\n"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj-6) > 1e-6 {
		t.Fatalf("obj = %v, want 6", sol.Obj)
	}
}

func TestParseLPSingleVarBoundForms(t *testing.T) {
	m, err := ParseLP(strings.NewReader("min: x + y + z;\nx >= 2;\ny = 3;\nz >= 1;\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumConstrs() != 0 {
		t.Fatalf("single-variable rows should become bounds, got %d constraints", m.NumConstrs())
	}
	sol, err := m.Solve(context.Background(), simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj-6) > 1e-6 {
		t.Fatalf("obj = %v, want 6", sol.Obj)
	}
}

// Fuzz-ish: random models solved through the layer agree with duality.
func TestModelRandomDualityGap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		m := NewModel("rand")
		n := 2 + rng.Intn(8)
		vars := make([]VarID, n)
		for j := 0; j < n; j++ {
			lb := float64(-rng.Intn(3))
			ub := lb + 1 + float64(rng.Intn(5))
			vars[j] = m.AddVar("", lb, ub, math.Round(rng.NormFloat64()*5))
		}
		rows := 1 + rng.Intn(5)
		for i := 0; i < rows; i++ {
			sense := Sense(rng.Intn(3))
			// rhs chosen from a random feasible point
			var lhsAt float64
			coefs := make([]float64, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					coefs[j] = math.Round(rng.NormFloat64() * 3)
				}
				l, u := m.Bounds(vars[j])
				lhsAt += coefs[j] * (l + (u-l)*0.5)
			}
			c := m.AddConstr("", sense, lhsAt)
			for j := 0; j < n; j++ {
				m.AddTerm(c, vars[j], coefs[j])
			}
		}
		sol, err := m.Solve(context.Background(), simplex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != simplex.Optimal {
			t.Fatalf("trial %d: status %v (midpoint is feasible by construction)", trial, sol.Status)
		}
		// Recompute objective from values; must match sol.Obj.
		var obj float64
		for j := 0; j < n; j++ {
			obj += m.Obj(vars[j]) * sol.Value(vars[j])
		}
		if math.Abs(obj-sol.Obj) > 1e-6*(1+math.Abs(obj)) {
			t.Fatalf("trial %d: obj mismatch %v vs %v", trial, obj, sol.Obj)
		}
	}
}
