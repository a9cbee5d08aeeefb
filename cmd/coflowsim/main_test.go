package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coflow"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/spec"

	repro "repro"
)

// The resolver logic the CLI used to own lives in internal/spec now;
// these tests pin the CLI-visible behavior through the shared
// functions so a regression in either layer still fails here.

func TestResolveSchedulersUnknownListsRegistry(t *testing.T) {
	_, err := spec.ResolveSchedulers("bogus", coflow.SinglePath)
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"stretch", "heuristic", "sincronia-greedy"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %q", err, want)
		}
	}
}

func TestResolveSchedulersRejectsUnsupportedModel(t *testing.T) {
	if _, err := spec.ResolveSchedulers("terra", coflow.SinglePath); err == nil {
		t.Fatal("terra is free-path only; expected error")
	}
	names, err := spec.ResolveSchedulers(" stretch , heuristic ", coflow.FreePath)
	if err != nil || len(names) != 2 || names[0] != "stretch" {
		t.Fatalf("names = %v, err = %v", names, err)
	}
}

func TestResolvePoliciesUnknownListsRegistry(t *testing.T) {
	_, err := spec.ResolvePolicies("nope")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"las", "fair", "epoch:stretch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %q", err, want)
		}
	}
	all, err := spec.ResolvePolicies("all")
	if err != nil || len(all) == 0 {
		t.Fatalf("all = %v, err = %v", all, err)
	}
}

func TestParseTopologyAcceptsSpecs(t *testing.T) {
	top, err := spec.ParseTopology("fat-tree:k=4")
	if err != nil {
		t.Fatal(err)
	}
	if top.Graph.NumNodes() != 36 || len(top.Endpoints) != 16 {
		t.Fatalf("fat-tree:k=4: %d nodes / %d endpoints", top.Graph.NumNodes(), len(top.Endpoints))
	}
	for _, name := range []string{"swan", "SWAN", "gscale", "g-scale"} {
		top, err := spec.ParseTopology(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if top.Graph.NumNodes() < 5 {
			t.Fatalf("%s: %d nodes", name, top.Graph.NumNodes())
		}
	}
	if _, err := spec.ParseTopology("torus:n=4"); err == nil || !strings.Contains(err.Error(), "fat-tree") {
		t.Fatalf("unknown topology error should list families, got %v", err)
	}
}

// TestTopologyEndpointGuard: a topology without two usable endpoints
// must be rejected with a clear error before any workload generation.
func TestTopologyEndpointGuard(t *testing.T) {
	_, err := spec.ParseTopology("big-switch:n=1")
	if err == nil {
		t.Fatal("big-switch:n=1 accepted")
	}
	for _, want := range []string{"endpoint", "at least 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	topology, wl := compileWorkload("", "fb", "big-switch:n=1", 4, 1, 1)
	if _, err := (repro.Spec{Topology: topology, Workload: wl, Policy: "fifo"}).Materialize(); err == nil {
		t.Fatal("Materialize accepted a 1-endpoint topology")
	}
}

// TestRunBenchFailsFast pins the -bench error paths that must not cost
// a full suite run: an unknown tier and an unreadable baseline file
// both fail before any benchmark executes.
func TestRunBenchFailsFast(t *testing.T) {
	ctx := context.Background()
	out := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := runBench(ctx, "9000k", out, "", 0.25, 0, false); err == nil ||
		!strings.Contains(err.Error(), "tier") {
		t.Fatalf("want tier error, got %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBench(ctx, "1k", out, bad, 0.25, 0, false); err == nil ||
		!strings.Contains(err.Error(), "baseline") {
		t.Fatalf("want baseline error, got %v", err)
	}
}

// TestCompiledWorkloadOnGeneratedTopology pins that the compiled Spec
// keeps flows on the topology's endpoint set.
func TestCompiledWorkloadOnGeneratedTopology(t *testing.T) {
	topology, wl := compileWorkload("", "fb", "leaf-spine:leaves=3,spines=2,hosts=2", 5, 2, 1)
	in, err := repro.Spec{Topology: topology, Workload: wl, Policy: "fifo"}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	top, err := spec.ParseTopology("leaf-spine:leaves=3,spines=2,hosts=2")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[graph.NodeID]bool{}
	for _, ep := range top.Endpoints {
		allowed[ep] = true
	}
	for _, c := range in.Coflows {
		for _, f := range c.Flows {
			if !allowed[f.Source] || !allowed[f.Sink] {
				t.Fatalf("flow %v→%v uses a non-endpoint node", f.Source, f.Sink)
			}
		}
	}
}

// TestRunSpecFileEndToEnd drives -spec on a real file: a Spec prints
// one report, a SweepSpec streams cells, and both round-trip through
// the public ParseSpec.
func TestRunSpecFileEndToEnd(t *testing.T) {
	dir := t.TempDir()
	runPath := filepath.Join(dir, "run.json")
	specJSON := `{"topology":"line:n=4","workload":{"kind":"fb","coflows":3,"seed":7},"scheduler":"sincronia-greedy","validate":true}`
	if err := os.WriteFile(runPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSpec(context.Background(), runPath, 0, nil); err != nil {
		t.Fatal(err)
	}
	sweepPath := filepath.Join(dir, "sweep.json")
	sweepJSON := `{"base":{"topology":"line:n=4","workload":{"coflows":2}},"policies":["fifo","las"],"seeds":[1,2]}`
	if err := os.WriteFile(sweepPath, []byte(sweepJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSpec(context.Background(), sweepPath, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := runSpec(context.Background(), filepath.Join(dir, "missing.json"), 0, nil); err == nil {
		t.Fatal("missing spec file accepted")
	}
	if err := runSpec(context.Background(), "preset:nope", 0, nil); err == nil || !strings.Contains(err.Error(), "figure9") {
		t.Fatalf("unknown preset error should list presets, got %v", err)
	}
}

// TestRunInstanceEndToEnd drives -run on a generated instance file in
// the single and free path models with -validate and a -stats
// registry: each run must record its simplex pivots in the registry,
// and -model multi stays rejected.
// TestRunFiguresRecordsStats: the -stats registry reaches the figure
// harness, so a Figure 8 run leaves its simplex counters in it.
func TestRunFiguresRecordsStats(t *testing.T) {
	cfg := experiments.Small()
	cfg.MaxSlots = 2
	cfg.Obs = repro.NewTelemetry()
	if err := runFigures(context.Background(), "8", cfg, ""); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Obs.Snapshot().Counters["simplex_pivots_total"]; n <= 0 {
		t.Fatalf("simplex_pivots_total = %d, want > 0", n)
	}
}

func TestRunInstanceEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := generate("fb", "swan", 3, 7, true, path); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"single", "free"} {
		reg := repro.NewTelemetry()
		if err := runInstance(context.Background(), path, model, 2, 1, 16, 1, true, reg); err != nil {
			t.Fatalf("-model %s: %v", model, err)
		}
		if n := reg.Snapshot().Counters["simplex_pivots_total"]; n <= 0 {
			t.Fatalf("-model %s: simplex_pivots_total = %d, want > 0", model, n)
		}
	}
	err := runInstance(context.Background(), path, "multi", 2, 1, 16, 1, false, nil)
	if err == nil || !strings.Contains(err.Error(), "single|free") {
		t.Fatalf("-model multi: want rejection, got %v", err)
	}
}
