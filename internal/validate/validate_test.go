package validate

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/coflow"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/timegrid"
	"repro/internal/workload"
)

// oneEdgeInstance is the smallest interesting fixture: one directed
// unit-capacity edge a→b and one coflow with one flow of demand 2, so
// every feasible schedule needs ≥ 2 slots and the trivial lower bound
// is exactly 2.
func oneEdgeInstance(release float64) *coflow.Instance {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	e := g.AddEdge(a, b, 1)
	return &coflow.Instance{
		Graph: g,
		Coflows: []coflow.Coflow{{
			ID: 0, Weight: 1, Release: release,
			Flows: []coflow.Flow{{Source: a, Sink: b, Demand: 2, Path: []graph.EdgeID{e}}},
		}},
	}
}

// feasibleSchedule ships the oneEdgeInstance demand at full rate over
// slots [start, start+2).
func feasibleSchedule(in *coflow.Instance, slots, start int) *schedule.Schedule {
	s := &schedule.Schedule{
		Inst:  in,
		Mode:  coflow.SinglePath,
		Grid:  timegrid.Uniform(slots),
		Flows: in.FlattenFlows(),
		Frac:  [][]float64{make([]float64, slots)},
	}
	s.Frac[0][start] = 0.5
	s.Frac[0][start+1] = 0.5
	return s
}

func wrap(in *coflow.Instance, s *schedule.Schedule, comps []float64) *engine.Result {
	res := &engine.Result{Mode: coflow.SinglePath, Completions: comps, Schedule: s}
	for j, c := range comps {
		res.Weighted += in.Coflows[j].Weight * c
		res.Total += c
	}
	return res
}

func TestOracleAcceptsFeasibleSchedule(t *testing.T) {
	in := oneEdgeInstance(0)
	s := feasibleSchedule(in, 4, 0)
	r, comps := Schedule(s)
	if !r.OK() {
		t.Fatalf("feasible schedule rejected: %v", r.Err())
	}
	if len(comps) != 1 || comps[0] != 2 {
		t.Fatalf("replayed completions %v, want [2]", comps)
	}
	if err := Result(in, wrap(in, s, []float64{2})).Err(); err != nil {
		t.Fatalf("feasible result rejected: %v", err)
	}
}

func TestOracleCatchesCapacityViolation(t *testing.T) {
	in := oneEdgeInstance(0)
	s := feasibleSchedule(in, 4, 0)
	// Ship the whole demand (2 volume) in one unit-capacity slot.
	s.Frac[0] = []float64{1, 0, 0, 0}
	r, _ := Schedule(s)
	if r.Count(KindCapacity) == 0 {
		t.Fatalf("capacity violation not caught: %v", r.Violations)
	}
}

func TestOracleCatchesReleaseViolation(t *testing.T) {
	in := oneEdgeInstance(1.5)
	s := feasibleSchedule(in, 4, 0) // transmits from t=0, release is 1.5
	r, _ := Schedule(s)
	if r.Count(KindRelease) == 0 {
		t.Fatalf("release violation not caught: %v", r.Violations)
	}
	// The same shape starting after the release is clean.
	r, _ = Schedule(feasibleSchedule(in, 4, 2))
	if !r.OK() {
		t.Fatalf("post-release schedule rejected: %v", r.Err())
	}
}

func TestOracleCatchesDemandShortfall(t *testing.T) {
	in := oneEdgeInstance(0)
	s := feasibleSchedule(in, 4, 0)
	s.Frac[0] = []float64{0.4, 0, 0, 0}
	r, _ := Schedule(s)
	if r.Count(KindDemand) == 0 {
		t.Fatalf("demand shortfall not caught: %v", r.Violations)
	}
}

func TestOracleCatchesCCTMismatch(t *testing.T) {
	in := oneEdgeInstance(0)
	s := feasibleSchedule(in, 4, 0)
	// Schedule replays to completion 2, the result claims 1.
	r := Result(in, wrap(in, s, []float64{1}))
	if r.Count(KindCompletion) == 0 {
		t.Fatalf("CCT mismatch not caught: %v", r.Violations)
	}
	if r.Count(KindLowerBound) == 0 {
		t.Fatalf("sub-lower-bound completion not caught: %v", r.Violations)
	}
}

func TestOracleCatchesAggregateMismatch(t *testing.T) {
	in := oneEdgeInstance(0)
	res := wrap(in, nil, []float64{2})
	res.Weighted = 5
	r := Result(in, res)
	if r.Count(KindAggregate) == 0 {
		t.Fatalf("aggregate mismatch not caught: %v", r.Violations)
	}
}

// diamond is s—v1—t and s—v2—t with unit capacities, one coflow
// shipping demand 2 from s to t, and the two s→t paths as its
// candidate paths.
func diamond() (*coflow.Instance, [][]graph.EdgeID) {
	g := graph.New()
	s := g.AddNode("s")
	v1 := g.AddNode("v1")
	v2 := g.AddNode("v2")
	tn := g.AddNode("t")
	sv1, _ := g.AddLink(s, v1, 1)
	v1t, _ := g.AddLink(v1, tn, 1)
	sv2, _ := g.AddLink(s, v2, 1)
	v2t, _ := g.AddLink(v2, tn, 1)
	paths := [][]graph.EdgeID{{sv1, v1t}, {sv2, v2t}}
	in := &coflow.Instance{
		Graph: g,
		Coflows: []coflow.Coflow{{
			ID: 0, Weight: 1,
			Flows: []coflow.Flow{{Source: s, Sink: tn, Demand: 2, AltPaths: paths}},
		}},
	}
	return in, paths
}

// diamondSchedule ships the diamond's demand in slot 0, half on each
// path, in the given routed model.
func diamondSchedule(mode coflow.Model) *schedule.Schedule {
	in, paths := diamond()
	return &schedule.Schedule{
		Inst:  in,
		Mode:  mode,
		Grid:  timegrid.Uniform(2),
		Flows: in.FlattenFlows(),
		Frac:  [][]float64{{1, 0}},
		Paths: [][][]graph.EdgeID{paths},
		Route: [][][]float64{{{0.5, 0.5}, {0, 0}}},
	}
}

// TestOracleCatchesFreePathConservationViolation routes half the flow
// on a route that leaves s for v2 but never reaches t: the path form
// of an edge flow that is not conserved at v2.
func TestOracleCatchesFreePathConservationViolation(t *testing.T) {
	sch := diamondSchedule(coflow.FreePath)
	if r, _ := Schedule(sch); !r.OK() {
		t.Fatalf("feasible free path schedule rejected: %v", r.Err())
	}
	sch.Paths[0][1] = sch.Paths[0][1][:1]
	r, _ := Schedule(sch)
	if r.Count(KindRouting) == 0 {
		t.Fatalf("conservation violation not caught: %v", r.Violations)
	}
}

// TestOracleCatchesPathRateViolations corrupts a feasible diamond
// schedule's path rates and paths one way at a time.
func TestOracleCatchesPathRateViolations(t *testing.T) {
	for _, c := range []struct {
		name    string
		mode    coflow.Model
		kind    Kind
		corrupt func(s *schedule.Schedule)
	}{
		{"path rates that do not sum to Frac", coflow.FreePath, KindRouting,
			func(s *schedule.Schedule) { s.Route[0][0][1] = 0.25 }},
		{"a negative path rate", coflow.FreePath, KindStructure,
			func(s *schedule.Schedule) { s.Route[0][0] = []float64{1.5, -0.5} }},
		{"multi path paths that are not the AltPaths", coflow.MultiPath, KindRouting,
			func(s *schedule.Schedule) { s.Paths[0] = [][]graph.EdgeID{s.Paths[0][1], s.Paths[0][0]} }},
	} {
		s := diamondSchedule(c.mode)
		if r, _ := Schedule(s); !r.OK() {
			t.Fatalf("%s: feasible schedule rejected: %v", c.name, r.Err())
		}
		c.corrupt(s)
		if r, _ := Schedule(s); r.Count(c.kind) == 0 {
			t.Errorf("%s: no %s violation in %v", c.name, c.kind, r.Violations)
		}
	}
}

// TestOracleReportsTruncatedRoutingArrays: malformed Route
// shapes must surface as structure violations, not panics.
func TestOracleReportsTruncatedRoutingArrays(t *testing.T) {
	in := oneEdgeInstance(0)
	path := in.Coflows[0].Flows[0].Path
	s := feasibleSchedule(in, 4, 0)
	s.Mode = coflow.MultiPath
	s.Paths = [][][]graph.EdgeID{{path}}
	s.Route = [][][]float64{} // non-nil but empty
	r, _ := Schedule(s)
	if r.Count(KindStructure) == 0 {
		t.Fatalf("empty Route not caught: %v", r.Violations)
	}
	s = feasibleSchedule(in, 4, 0)
	s.Mode = coflow.FreePath
	s.Paths = [][][]graph.EdgeID{{path}}
	s.Route = [][][]float64{{{0}}} // one slot instead of four
	r, _ = Schedule(s)
	if r.Count(KindStructure) == 0 {
		t.Fatalf("short Route not caught: %v", r.Violations)
	}
	s = feasibleSchedule(in, 4, 0)
	s.Mode = coflow.FreePath
	s.Paths = [][][]graph.EdgeID{{{99}}} // no such edge
	s.Route = [][][]float64{{{0.5}, {0.5}, {0}, {0}}}
	r, _ = Schedule(s)
	if r.Count(KindRouting) == 0 {
		t.Fatalf("path over a missing edge not caught: %v", r.Violations)
	}
}

func TestLowerBounds(t *testing.T) {
	// s connects to t via three disjoint 2-hop unit paths: single path
	// rate 1, free path rate 3.
	g := graph.Figure2()
	s, _ := g.Node("s")
	tn, _ := g.Node("t")
	in := &coflow.Instance{
		Graph: g,
		Coflows: []coflow.Coflow{{
			ID: 0, Weight: 1, Release: 1,
			Flows: []coflow.Flow{{Source: s, Sink: tn, Demand: 6, Path: g.ShortestPath(s, tn)}},
		}},
	}
	lbSingle := CoflowLowerBounds(in, coflow.SinglePath)
	if math.Abs(lbSingle[0]-7) > 1e-9 { // 1 + 6/1
		t.Fatalf("single path LB %g, want 7", lbSingle[0])
	}
	lbFree := CoflowLowerBounds(in, coflow.FreePath)
	if math.Abs(lbFree[0]-3) > 1e-9 { // 1 + 6/3
		t.Fatalf("free path LB %g, want 3", lbFree[0])
	}
	in.Coflows[0].Flows[0].AltPaths = g.KShortestPaths(s, tn, 2)
	lbMulti := CoflowLowerBounds(in, coflow.MultiPath)
	if math.Abs(lbMulti[0]-4) > 1e-9 { // 1 + 6/min(2 paths, maxflow 3)
		t.Fatalf("multi path LB %g, want 4", lbMulti[0])
	}
}

// TestOracleAcceptsEngineSchedulers runs every registered scheduler on
// a small workload in a model it supports and demands a clean report —
// the in-package half of the conformance matrix.
func TestOracleAcceptsEngineSchedulers(t *testing.T) {
	single, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: graph.SWAN(1), NumCoflows: 4, Seed: 3,
		MeanInterarrival: 1, AssignPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	free, err := workload.Generate(workload.Config{
		Kind: workload.TPCH, Graph: graph.SWAN(1), NumCoflows: 3, Seed: 5,
		MeanInterarrival: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.Names() {
		s, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var in *coflow.Instance
		var mode coflow.Model
		switch {
		case s.Supports(coflow.SinglePath):
			in, mode = single, coflow.SinglePath
		case s.Supports(coflow.FreePath):
			in, mode = free, coflow.FreePath
		default:
			continue
		}
		res, err := engine.Schedule(context.Background(), name, in, mode,
			engine.Options{MaxSlots: 16, Trials: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Result(in, res).Err(); err != nil {
			t.Errorf("%s: oracle rejects: %v", name, err)
		}
	}
}

func TestOracleAcceptsSimResult(t *testing.T) {
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: graph.SWAN(1), NumCoflows: 5, Seed: 11,
		MeanInterarrival: 1.5, AssignPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{sim.NameFIFO, sim.NameLAS, sim.NameFair, "epoch:sincronia-greedy"} {
		res, err := sim.Simulate(context.Background(), in, sim.Options{Policy: pol, Epoch: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if err := SimResult(in, res, false).Err(); err != nil {
			t.Errorf("%s: oracle rejects: %v", pol, err)
		}
	}
	// Clairvoyant traces reveal everything at t=0.
	res, err := sim.Simulate(context.Background(), in, sim.Options{Policy: sim.NameLAS, Clairvoyant: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := SimResult(in, res, true).Err(); err != nil {
		t.Errorf("clairvoyant: oracle rejects: %v", err)
	}
	// And the oracle notices when told the wrong reveal convention.
	if in.MaxRelease() > 0 {
		if SimResult(in, res, false).Count(KindCompletion) == 0 {
			t.Error("clairvoyant trace validated as non-clairvoyant")
		}
	}
}

func TestOracleCatchesTamperedSimResult(t *testing.T) {
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: graph.SWAN(1), NumCoflows: 4, Seed: 2,
		MeanInterarrival: 1, AssignPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Simulate(context.Background(), in, sim.Options{Policy: sim.NameFIFO})
	if err != nil {
		t.Fatal(err)
	}

	tamper := func() *sim.Result {
		c := *base
		c.Completions = append([]float64(nil), base.Completions...)
		c.Trace = append([]sim.Event(nil), base.Trace...)
		return &c
	}

	// A completion faster than physics allows.
	r := tamper()
	r.Completions[0] = in.Coflows[0].Release + 1e-4
	rep := SimResult(in, r, false)
	if rep.Count(KindLowerBound) == 0 {
		t.Errorf("impossibly fast completion not caught: %v", rep.Violations)
	}

	// A reordered trace.
	r = tamper()
	if len(r.Trace) >= 2 {
		r.Trace[0], r.Trace[len(r.Trace)-1] = r.Trace[len(r.Trace)-1], r.Trace[0]
		rep = SimResult(in, r, false)
		if !strings.Contains(rep.Err().Error(), "precedes") && rep.Count(KindStructure) == 0 && rep.Count(KindCompletion) == 0 {
			t.Errorf("reordered trace not caught: %v", rep.Violations)
		}
	}

	// A cooked aggregate.
	r = tamper()
	r.WeightedCCT *= 1.5
	rep = SimResult(in, r, false)
	if rep.Count(KindAggregate) == 0 {
		t.Errorf("cooked aggregate not caught: %v", rep.Violations)
	}

	// A dropped completion event.
	r = tamper()
	for i, ev := range r.Trace {
		if ev.Kind == sim.Completion {
			r.Trace = append(r.Trace[:i], r.Trace[i+1:]...)
			break
		}
	}
	rep = SimResult(in, r, false)
	if rep.Count(KindStructure) == 0 {
		t.Errorf("dropped completion event not caught: %v", rep.Violations)
	}
}

func TestReportErr(t *testing.T) {
	r := &Report{}
	if r.Err() != nil {
		t.Fatal("empty report has an error")
	}
	for i := 0; i < 8; i++ {
		r.addf(KindCapacity, "violation %d", i)
	}
	msg := r.Err().Error()
	if !strings.Contains(msg, "8 violation(s)") || !strings.Contains(msg, "and 3 more") {
		t.Fatalf("summary %q", msg)
	}
}
