package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/workload"
)

func warmTestInstance(t *testing.T, n int, seed int64) *coflow.Instance {
	t.Helper()
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: graph.SWAN(1), NumCoflows: n, Seed: seed,
		MeanInterarrival: 1, AssignPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func lbClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

// TestWarmBasisPerturbedInstance solves an instance cold, perturbs the
// flow demands slightly, and re-solves warm from the exported basis:
// the warm solve must reach the same LP optimum the cold solve of the
// perturbed instance finds — the warm start may only change the path,
// never the answer.
func TestWarmBasisPerturbedInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 3; trial++ {
		in := warmTestInstance(t, 6, int64(10+trial))
		opt := Options{Grid: DefaultGrid(in, coflow.SinglePath, 24)}
		base, err := SolveLP(context.Background(), in, coflow.SinglePath, opt)
		if err != nil {
			t.Fatalf("trial %d: base solve: %v", trial, err)
		}
		if base.Basis == nil {
			t.Fatalf("trial %d: base solve exported no basis", trial)
		}

		// Perturb demands by ±1%; the model keeps the same variables
		// and constraints, only coefficients move.
		pert := *in
		pert.Coflows = append([]coflow.Coflow(nil), in.Coflows...)
		for j := range pert.Coflows {
			pert.Coflows[j].Flows = append([]coflow.Flow(nil), in.Coflows[j].Flows...)
			for i := range pert.Coflows[j].Flows {
				pert.Coflows[j].Flows[i].Demand *= 1 + 0.01*rng.NormFloat64()
			}
		}

		cold, err := SolveLP(context.Background(), &pert, coflow.SinglePath, opt)
		if err != nil {
			t.Fatalf("trial %d: cold solve of perturbed instance: %v", trial, err)
		}
		wopt := opt
		wopt.WarmBasis = base.Basis
		warm, err := SolveLP(context.Background(), &pert, coflow.SinglePath, wopt)
		if err != nil {
			t.Fatalf("trial %d: warm solve of perturbed instance: %v", trial, err)
		}
		if !lbClose(cold.LowerBound, warm.LowerBound) {
			t.Fatalf("trial %d: cold LP bound %v, warm LP bound %v",
				trial, cold.LowerBound, warm.LowerBound)
		}
		for j := range cold.CStar {
			// Completion variables are driven by the (unique) optimal
			// objective through the weighted sum; individual values may
			// differ between optimal vertices, so compare the bound
			// they induce rather than the raw vector.
			if math.IsNaN(warm.CStar[j]) {
				t.Fatalf("trial %d: warm CStar[%d] is NaN", trial, j)
			}
		}
	}
}

// TestWarmBasisResidualInstance mimics an epoch re-plan: drop the first
// coflow (it "finished") and warm-start the residual solve from the
// full instance's basis. The residual LP is smaller, so the positional
// basis does not fit it: the solver must reject it on dimensions and
// still reach the cold solve's answer.
func TestWarmBasisResidualInstance(t *testing.T) {
	in := warmTestInstance(t, 6, 3)
	opt := Options{Grid: DefaultGrid(in, coflow.SinglePath, 24)}
	base, err := SolveLP(context.Background(), in, coflow.SinglePath, opt)
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}
	if base.Basis == nil {
		t.Fatal("base solve exported no basis")
	}

	res := *in
	res.Coflows = append([]coflow.Coflow(nil), in.Coflows[1:]...)
	ropt := Options{Grid: DefaultGrid(&res, coflow.SinglePath, 24)}

	cold, err := SolveLP(context.Background(), &res, coflow.SinglePath, ropt)
	if err != nil {
		t.Fatalf("cold residual solve: %v", err)
	}
	wopt := ropt
	wopt.WarmBasis = base.Basis
	warm, err := SolveLP(context.Background(), &res, coflow.SinglePath, wopt)
	if err != nil {
		t.Fatalf("warm residual solve: %v", err)
	}
	if !lbClose(cold.LowerBound, warm.LowerBound) {
		t.Fatalf("cold LP bound %v, warm LP bound %v", cold.LowerBound, warm.LowerBound)
	}
	if warm.WarmStart != simplex.WarmRejectedDims {
		t.Fatalf("warm residual solve reports outcome %v, want %v", warm.WarmStart, simplex.WarmRejectedDims)
	}
}

// TestWarmBasisSameInstanceFewerIterations checks warm-starting is
// actually doing something: re-solving the identical instance from its
// own optimal basis must use far fewer simplex iterations than a cold
// start. The cold baseline is a solve at the lp layer, which never
// seeds a basis; SolveLP itself starts from the greedy vertex.
func TestWarmBasisSameInstanceFewerIterations(t *testing.T) {
	ctx := context.Background()
	in := warmTestInstance(t, 8, 6)
	opt := Options{Grid: DefaultGrid(in, coflow.SinglePath, 24)}
	l, err := model.BuildSinglePath(in, opt.Grid)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := l.Model.SolveWarm(ctx, simplex.Options{}, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if cold.Status != simplex.Optimal {
		t.Fatalf("cold solve ended %v", cold.Status)
	}
	if cold.WarmStart != simplex.WarmNone {
		t.Fatalf("cold solve reports warm outcome %v, want none", cold.WarmStart)
	}
	seeded, err := SolveLP(ctx, in, coflow.SinglePath, opt)
	if err != nil {
		t.Fatalf("seeded solve: %v", err)
	}
	if seeded.Basis == nil {
		t.Fatal("seeded solve exported no basis")
	}
	wopt := opt
	wopt.WarmBasis = seeded.Basis
	warm, err := SolveLP(ctx, in, coflow.SinglePath, wopt)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if !lbClose(cold.Obj, seeded.LowerBound) || !lbClose(cold.Obj, warm.LowerBound) {
		t.Fatalf("LP bounds differ: cold %v, seeded %v, warm %v", cold.Obj, seeded.LowerBound, warm.LowerBound)
	}
	if warm.Iterations > cold.Iterations()/4 {
		t.Fatalf("warm resolve took %d iterations vs %d cold: warm start not engaging",
			warm.Iterations, cold.Iterations())
	}
	if warm.WarmStart != simplex.WarmAccepted {
		t.Fatalf("warm resolve reports outcome %v, want accepted", warm.WarmStart)
	}
	t.Logf("iterations: cold %d, greedy-seeded %d, warm %d", cold.Iterations(), seeded.Iterations, warm.Iterations)
}
