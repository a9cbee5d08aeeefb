package repro

import (
	"context"
	"testing"
)

func smallInstance(t *testing.T, paths bool) *Instance {
	t.Helper()
	in, err := GenerateWorkload(WorkloadConfig{
		Kind: TPCH, Graph: NewSWAN(1), NumCoflows: 3, Seed: 11,
		MeanInterarrival: 1, AssignPaths: paths,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// runOffline runs the named engine scheduler on an inline instance
// through the Spec front door.
func runOffline(t *testing.T, name string, in *Instance, model string, opt SpecOptions) *SchedulerResult {
	t.Helper()
	rep, err := Run(context.Background(), Spec{Instance: in, Model: model, Scheduler: name, Options: opt})
	if err != nil {
		t.Fatalf("%s (%s): %v", name, model, err)
	}
	return rep.Engine
}

// runOnline runs the named sim policy on an inline instance through
// the Spec front door.
func runOnline(t *testing.T, policy string, in *Instance, opt SpecOptions) *SimResult {
	t.Helper()
	rep, err := Run(context.Background(), Spec{Instance: in, Policy: policy, Options: opt})
	if err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	return rep.Sim
}

// TestScheduleFreePathFacade: the Stretch pipeline in the free path
// model reports a heuristic above the LP bound and one sample per
// trial.
func TestScheduleFreePathFacade(t *testing.T) {
	in := smallInstance(t, false)
	res := runOffline(t, "stretch", in, "free", SpecOptions{MaxSlots: 24, Trials: 3, Seed: 1}).Core
	if res.Heuristic.Weighted < res.LowerBound-1e-6 {
		t.Fatalf("heuristic %v below bound %v", res.Heuristic.Weighted, res.LowerBound)
	}
	if res.Stretch == nil || len(res.Stretch.Samples) != 3 {
		t.Fatalf("stretch stats missing or wrong size: %+v", res.Stretch)
	}
}

// TestScheduleSinglePathFacade: negative Trials keeps only the λ=1
// heuristic, whose single path schedule verifies.
func TestScheduleSinglePathFacade(t *testing.T) {
	in := smallInstance(t, true)
	res := runOffline(t, "stretch", in, "single", SpecOptions{MaxSlots: 24, Trials: -1}).Core
	if res.Stretch != nil {
		t.Fatal("negative Trials should disable stretch")
	}
	if err := res.Heuristic.Schedule.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTopologies(t *testing.T) {
	if NewSWAN(2).NumNodes() != 5 || NewGScale(2).NumNodes() != 12 {
		t.Fatal("topology constructors wrong")
	}
	g := NewGraph()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b, 1)
	if g.NumEdges() != 1 {
		t.Fatal("NewGraph broken")
	}
	if UniformGrid(5).NumSlots() != 5 {
		t.Fatal("UniformGrid broken")
	}
}

func TestFacadeModelsDiffer(t *testing.T) {
	// Free path LP bound ≤ single path LP bound on the same instance.
	in := smallInstance(t, true)
	opt := SpecOptions{MaxSlots: 24, Trials: -1}
	sp := runOffline(t, "stretch", in, "single", opt).Core
	fp := runOffline(t, "stretch", in, "free", opt).Core
	if fp.LowerBound > sp.LowerBound+1e-6 {
		t.Fatalf("free path bound %v above single path %v", fp.LowerBound, sp.LowerBound)
	}
}

func TestDeterministicPipeline(t *testing.T) {
	in := smallInstance(t, false)
	opt := SpecOptions{MaxSlots: 24, Trials: 4, Seed: 7}
	a := runOffline(t, "stretch", in, "free", opt).Core
	b := runOffline(t, "stretch", in, "free", opt).Core
	if a.LowerBound != b.LowerBound || a.Stretch.AvgWeighted != b.Stretch.AvgWeighted {
		t.Fatal("pipeline is not deterministic for a fixed seed")
	}
}

func TestSchedulersRegistry(t *testing.T) {
	names := Schedulers()
	if len(names) < 5 {
		t.Fatalf("want ≥ 5 registered schedulers, got %v", names)
	}
}

// TestScheduleWithFacade: every registered scheduler runs by name
// through Run, and an unknown name is rejected.
func TestScheduleWithFacade(t *testing.T) {
	single := smallInstance(t, true)
	free := smallInstance(t, false)
	for _, tc := range []struct {
		name  string
		in    *Instance
		model string
	}{
		{"stretch", free, "free"},
		{"heuristic", single, "single"},
		{"terra", free, "free"},
		{"jahanjou", single, "single"},
		{"sincronia-greedy", single, "single"},
	} {
		res := runOffline(t, tc.name, tc.in, tc.model,
			SpecOptions{MaxSlots: 24, Trials: 3, Seed: 1, Workers: 2})
		if res.Scheduler != tc.name || res.Weighted <= 0 {
			t.Fatalf("%s: bad result %+v", tc.name, res)
		}
	}
	if _, err := Run(context.Background(), Spec{Instance: free, Model: "free", Scheduler: "nope"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestFacadeWorkersDeterministic: the top-level API inherits the
// engine's determinism guarantee.
func TestFacadeWorkersDeterministic(t *testing.T) {
	in := smallInstance(t, false)
	a := runOffline(t, "stretch", in, "free", SpecOptions{MaxSlots: 24, Trials: 6, Seed: 9, Workers: 1}).Core
	b := runOffline(t, "stretch", in, "free", SpecOptions{MaxSlots: 24, Trials: 6, Seed: 9, Workers: 8}).Core
	if a.Stretch.BestWeighted != b.Stretch.BestWeighted ||
		a.Stretch.AvgWeighted != b.Stretch.AvgWeighted ||
		a.Stretch.BestLambda != b.Stretch.BestLambda {
		t.Fatalf("worker count changed results: %+v vs %+v", a.Stretch, b.Stretch)
	}
}

// TestSimulateFacade: the online simulator is reachable through Run
// and its policy registry is populated.
func TestSimulateFacade(t *testing.T) {
	in := smallInstance(t, true)
	res := runOnline(t, "las", in, SpecOptions{})
	if res.Policy != "las" || res.Makespan <= 0 || len(res.Completions) != len(in.Coflows) {
		t.Fatalf("bad result %+v", res)
	}
	names := SimPolicies()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"fifo", "las", "fair", "sincronia-online", "epoch:stretch"} {
		if !seen[want] {
			t.Fatalf("SimPolicies() = %v missing %q", names, want)
		}
	}
}

// TestSimulateVsOfflineUnits: online and offline results share units —
// on a zero-release instance the epoch adapter must land within 2× of
// the clairvoyant engine run (the ISSUE acceptance bound).
func TestSimulateVsOfflineUnits(t *testing.T) {
	in, err := GenerateWorkload(WorkloadConfig{
		Kind: FB, Graph: NewSWAN(1), NumCoflows: 4, Seed: 3, AssignPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := SpecOptions{MaxSlots: 16, Trials: 3, Seed: 5}
	off := runOffline(t, "stretch", in, "single", opt)
	on := runOnline(t, "epoch:stretch", in, opt)
	if on.WeightedCCT > 2*off.Weighted {
		t.Fatalf("online %.3f > 2x offline %.3f", on.WeightedCCT, off.Weighted)
	}
}

func TestTopologyFacade(t *testing.T) {
	fams := Topologies()
	if len(fams) < 8 {
		t.Fatalf("Topologies() = %v, want ≥ 8 families", fams)
	}
	top, err := NewTopology("fat-tree:k=4")
	if err != nil {
		t.Fatal(err)
	}
	if top.Graph.NumNodes() != 36 || len(top.Endpoints) != 16 {
		t.Fatalf("fat-tree:k=4 has %d nodes / %d endpoints", top.Graph.NumNodes(), len(top.Endpoints))
	}
	if _, err := NewTopology("moebius:n=4"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestValidateFacade runs a scheduler and an online policy on a
// generated topology and passes both results through the public
// validation facade; then checks tampering is rejected.
func TestValidateFacade(t *testing.T) {
	top, err := NewTopology("leaf-spine:leaves=3,spines=2,hosts=2")
	if err != nil {
		t.Fatal(err)
	}
	in, err := GenerateWorkload(WorkloadConfig{
		Kind: FB, Graph: top.Graph, NumCoflows: 4, Seed: 5,
		MeanInterarrival: 1, AssignPaths: true, Endpoints: top.Endpoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runOffline(t, "sincronia-greedy", in, "single", SpecOptions{MaxSlots: 16})
	if err := Validate(in, res); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	res.Completions[0] = 0.001
	if Validate(in, res) == nil {
		t.Fatal("tampered result accepted")
	}

	sres := runOnline(t, "las", in, SpecOptions{Seed: 1})
	opt := SimOptions{} // not clairvoyant, like the run
	if err := ValidateSim(in, sres, opt); err != nil {
		t.Fatalf("valid sim result rejected: %v", err)
	}
	sres.WeightedCCT *= 2
	if ValidateSim(in, sres, opt) == nil {
		t.Fatal("tampered sim result accepted")
	}
}
