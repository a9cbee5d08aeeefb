package model

// The edge formulation of the free path model: one variable per (flow,
// slot, edge), conserved at every node. It is the reference the
// column generation optimum of BuildFreePath and TestPivotSequencePin's
// free path LP are checked against; no program builds it.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/simplex"
	"repro/internal/timegrid"
	"repro/internal/topo"
	"repro/internal/workload"
)

// buildEdgeFreePath constructs the Section 3.1.2 relaxation: per-edge
// flow variables with conservation, constraints (1)–(5) and (7)–(10),
// with interval-scaled capacities for non-uniform grids (20)–(23).
// Its LP solves only through l.Model: SolveWarm's extraction and
// pricing read the path form.
func buildEdgeFreePath(inst *coflow.Instance, grid timegrid.Grid) (*LP, error) {
	if err := inst.Validate(coflow.FreePath); err != nil {
		return nil, err
	}
	l, err := buildCommon(inst, grid, coflow.FreePath)
	if err != nil {
		return nil, err
	}
	m := l.Model
	g := inst.Graph
	k := grid.NumSlots()
	ne := g.NumEdges()

	l.xr = make([][][]lp.VarID, len(l.flows))
	for f, ref := range l.flows {
		fl := inst.FlowAt(ref)
		l.xr[f] = make([][]lp.VarID, k)
		for t := l.first[f]; t < k; t++ {
			evars := make([]lp.VarID, ne)
			for e := 0; e < ne; e++ {
				evars[e] = m.AddVar("", 0, 1, 0)
			}
			l.xr[f][t] = evars
			AddConservation(m, g, fl.Source, fl.Sink, evars, l.x[f][t], 1)
		}
	}

	// Capacity rows (10)/(23): Σ_f σ_f · x_f(t,e) ≤ c(e)·len(t).
	for e := 0; e < ne; e++ {
		capE := g.Edge(graph.EdgeID(e)).Capacity
		for t := 0; t < k; t++ {
			row := lp.ConstrID(-1)
			for f := range l.flows {
				if t < l.first[f] {
					continue
				}
				if row < 0 {
					row = m.AddConstr("", lp.LE, capE*grid.Len(t))
				}
				m.AddTerm(row, l.xr[f][t][e], inst.FlowAt(l.flows[f]).Demand)
			}
		}
	}
	return l, nil
}

// matchesReference solves in on grid by column generation and by the
// edge formulation and requires the same verdict and, when optimal,
// the same LP bound within 1e-9 relative. It returns the verdict.
func matchesReference(t *testing.T, name string, in *coflow.Instance, grid timegrid.Grid) simplex.Status {
	t.Helper()
	ctx := context.Background()
	ref, err := buildEdgeFreePath(in, grid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Model.Solve(ctx, simplex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := BuildFreePath(in, grid)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := l.Solve(ctx, simplex.Options{})
	got := simplex.Optimal
	if se, ok := err.(*StatusError); ok {
		got = se.Status
	} else if err != nil {
		t.Fatal(err)
	}
	if got != want.Status {
		t.Fatalf("%s: column generation ends %v, the edge formulation %v", name, got, want.Status)
	}
	if got == simplex.Optimal && math.Abs(sol.LowerBound-want.Obj) > 1e-9*math.Abs(want.Obj) {
		t.Fatalf("%s: column generation bound %.12g, the edge formulation %.12g", name, sol.LowerBound, want.Obj)
	}
	return got
}

// TestColumnGenerationMatchesEdgeReference solves one FB instance per
// topology at a grid too short for it and at one long enough, by
// column generation and by the edge formulation: the verdicts and the
// optima agree.
func TestColumnGenerationMatchesEdgeReference(t *testing.T) {
	for _, c := range []struct {
		topo         string
		coflows      int
		seed         int64
		tight, roomy int
	}{
		{"swan", 4, 1, 6, 8},
		{"gscale", 3, 2, 3, 4},
		{"fat-tree:k=4", 4, 4, 6, 8},
		{"leaf-spine:leaves=3,spines=2,hosts=2", 3, 2, 6, 8},
		{"erdos-renyi", 3, 1, 8, 10},
	} {
		top := &topo.Topology{Graph: graph.SWAN(1)}
		if c.topo == "gscale" {
			top.Graph = graph.GScale(1)
		} else if c.topo != "swan" {
			var err error
			if top, err = topo.New(c.topo); err != nil {
				t.Fatal(err)
			}
		}
		in, err := workload.Generate(workload.Config{
			Kind: workload.FB, Graph: top.Graph, NumCoflows: c.coflows, Seed: c.seed,
			MeanInterarrival: 1.5, Endpoints: top.Endpoints,
		})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/n=%d/seed=%d", c.topo, c.coflows, c.seed)
		if st := matchesReference(t, name, in, timegrid.Uniform(c.tight)); st != simplex.Infeasible {
			t.Errorf("%s: %d slots solve %v, want a grid too short", name, c.tight, st)
		}
		if st := matchesReference(t, name, in, timegrid.Uniform(c.roomy)); st != simplex.Optimal {
			t.Errorf("%s: %d slots solve %v, want a grid long enough", name, c.roomy, st)
		}
	}
}
