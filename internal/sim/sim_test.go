package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coflow"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/workload"
)

// pipeInstance is two coflows sharing one unit-capacity edge a→b:
// coflow 0 (demand 2) released at t=0, coflow 1 (demand 1) at t=1.
func pipeInstance() *coflow.Instance {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	e := g.AddEdge(a, b, 1)
	return &coflow.Instance{
		Graph: g,
		Coflows: []coflow.Coflow{
			{ID: 0, Weight: 1, Release: 0, Flows: []coflow.Flow{
				{Source: a, Sink: b, Demand: 2, Path: []graph.EdgeID{e}}}},
			{ID: 1, Weight: 1, Release: 1, Flows: []coflow.Flow{
				{Source: a, Sink: b, Demand: 1, Path: []graph.EdgeID{e}}}},
		},
	}
}

func fbInstance(t testing.TB, n int, interarrival float64, seed int64) *coflow.Instance {
	t.Helper()
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: graph.SWAN(1), NumCoflows: n, Seed: seed,
		MeanInterarrival: interarrival, AssignPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestFIFOServesInArrivalOrder(t *testing.T) {
	res, err := Simulate(context.Background(), pipeInstance(), Options{Policy: NameFIFO})
	if err != nil {
		t.Fatal(err)
	}
	// FIFO: coflow 0 holds the edge on [0,2], coflow 1 runs on [2,3].
	if !almost(res.Completions[0], 2) || !almost(res.Completions[1], 3) {
		t.Fatalf("completions = %v, want [2 3]", res.Completions)
	}
	if !almost(res.Makespan, 3) || !almost(res.WeightedCCT, 5) {
		t.Fatalf("makespan %v weighted %v", res.Makespan, res.WeightedCCT)
	}
	// Avg response time: (2-0 + 3-1)/2 = 2.
	if !almost(res.AvgCCT, 2) {
		t.Fatalf("avg CCT %v, want 2", res.AvgCCT)
	}
}

func TestLASPreemptsForNewcomer(t *testing.T) {
	res, err := Simulate(context.Background(), pipeInstance(), Options{Policy: NameLAS})
	if err != nil {
		t.Fatal(err)
	}
	// At t=1 coflow 0 has attained 1, the newcomer 0 → LAS preempts:
	// coflow 1 runs on [1,2], coflow 0 resumes and finishes at 3.
	if !almost(res.Completions[0], 3) || !almost(res.Completions[1], 2) {
		t.Fatalf("completions = %v, want [3 2]", res.Completions)
	}
}

func TestFairSharesTheBottleneck(t *testing.T) {
	in := pipeInstance()
	in.Coflows[1].Release = 0 // both from t=0
	in.Coflows[1].Flows[0].Demand = 1
	res, err := Simulate(context.Background(), in, Options{Policy: NameFair})
	if err != nil {
		t.Fatal(err)
	}
	// Rate 1/2 each until coflow 1 (demand 1) finishes at t=2; coflow 0
	// then gets the full edge and finishes its remaining 1 at t=3.
	if !almost(res.Completions[1], 2) || !almost(res.Completions[0], 3) {
		t.Fatalf("completions = %v, want [3 2]", res.Completions)
	}
}

func TestEveryPolicyCompletesAnOnlineWorkload(t *testing.T) {
	in := fbInstance(t, 6, 1.0, 7)
	for _, name := range Names() {
		res, err := Simulate(context.Background(), in, Options{
			Policy: name, MaxSlots: 24, Trials: 2, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Policy != name || res.Events == 0 {
			t.Fatalf("%s: bad result header %+v", name, res)
		}
		for j, c := range res.Completions {
			if math.IsInf(c, 0) || math.IsNaN(c) || c < in.Coflows[j].Release {
				t.Fatalf("%s: coflow %d completion %v before release %v",
					name, j, c, in.Coflows[j].Release)
			}
		}
		if res.AvgCCT <= 0 || res.Makespan <= 0 || res.WeightedCCT <= 0 {
			t.Fatalf("%s: non-positive metrics %+v", name, res)
		}
	}
}

// TestArrivalsAreHonored checks online-ness: no coflow may receive
// service before its release, so a late heavy arrival cannot finish
// earlier than its release plus its bottleneck lower bound.
func TestArrivalsAreHonored(t *testing.T) {
	in := pipeInstance()
	for _, name := range []string{NameFIFO, NameLAS, NameFair, NameSincroniaOnline} {
		res, err := Simulate(context.Background(), in, Options{Policy: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Coflow 1: released at 1, demand 1 on a unit edge → C ≥ 2.
		if res.Completions[1] < 2-1e-9 {
			t.Fatalf("%s: coflow 1 finished at %v < 2 (served before release?)",
				name, res.Completions[1])
		}
	}
}

// TestDeterministicAcrossWorkers mirrors the Stretch-trials
// determinism tests: the epoch:stretch adapter fans LP roundings over
// the worker pool at every replan, and the event trace and metrics
// must be bit-identical at any worker count and across repeated runs.
func TestDeterministicAcrossWorkers(t *testing.T) {
	in := fbInstance(t, 5, 1.0, 3)
	run := func(workers int) *Result {
		res, err := Simulate(context.Background(), in, Options{
			Policy: "epoch:stretch", MaxSlots: 16, Trials: 4, Seed: 42, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{4, 8} {
		got := run(w)
		if !reflect.DeepEqual(got.Trace, ref.Trace) {
			t.Fatalf("workers=%d: trace diverged\n got %v\nwant %v", w, got.Trace, ref.Trace)
		}
		if !reflect.DeepEqual(got.Completions, ref.Completions) {
			t.Fatalf("workers=%d: completions diverged: %v vs %v", w, got.Completions, ref.Completions)
		}
		if got.WeightedCCT != ref.WeightedCCT || got.Replans != ref.Replans {
			t.Fatalf("workers=%d: metrics diverged", w)
		}
	}
	again := run(1)
	if !reflect.DeepEqual(again.Trace, ref.Trace) || again.WeightedCCT != ref.WeightedCCT {
		t.Fatal("same seed, same workers: second run diverged")
	}
}

// TestZeroReleaseConvergesToOffline is the acceptance criterion: with
// every coflow released at t=0 the online epoch adapter plans once
// with full information, so its weighted CCT must be within 2× of the
// clairvoyant offline Stretch result.
func TestZeroReleaseConvergesToOffline(t *testing.T) {
	in := fbInstance(t, 8, 0, 5) // MeanInterarrival 0 → all releases at t=0
	off, err := engine.Schedule(context.Background(), "stretch", in, coflow.SinglePath,
		engine.Options{MaxSlots: 24, Trials: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Simulate(context.Background(), in, Options{
		Policy: "epoch:stretch", MaxSlots: 24, Trials: 5, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if on.Replans != 1 {
		t.Fatalf("zero-release case replanned %d times, want 1", on.Replans)
	}
	if on.WeightedCCT > 2*off.Weighted+1e-9 {
		t.Fatalf("online weighted CCT %.3f > 2× offline %.3f", on.WeightedCCT, off.Weighted)
	}
}

func TestEpochTicksTriggerReplans(t *testing.T) {
	in := pipeInstance()
	res, err := Simulate(context.Background(), in, Options{
		Policy: NameSincroniaOnline, Epoch: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ticks int
	for _, ev := range res.Trace {
		if ev.Kind == EpochTick {
			ticks++
		}
	}
	if ticks == 0 {
		t.Fatal("no epoch ticks in trace")
	}
	if res.Replans <= 2 { // 2 arrivals alone; ticks must add more
		t.Fatalf("replans = %d, want > 2", res.Replans)
	}
}

func TestUnknownPolicyListsNames(t *testing.T) {
	_, err := New("bogus", Options{})
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{NameLAS, NameFair, "epoch:stretch"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %q", err, want)
		}
	}
	if _, err := New("epoch:nope", Options{}); err == nil ||
		!strings.Contains(err.Error(), "stretch") {
		t.Fatalf("epoch adapter error should list engine schedulers, got %v", err)
	}
}

func TestSlowdown(t *testing.T) {
	on := &Result{Completions: []float64{2, 6}}
	s, err := Slowdown(on, []float64{1, 3})
	if err != nil || !almost(s, 2) {
		t.Fatalf("slowdown = %v, %v; want 2", s, err)
	}
	if _, err := Slowdown(on, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
	// With arrivals, the shared release offset is subtracted from both
	// sides: response-time ratio, not completion-time ratio.
	late := &Result{Completions: []float64{12}, Arrivals: []float64{10}}
	s, err = Slowdown(late, []float64{11})
	if err != nil || !almost(s, 2) {
		t.Fatalf("response-time slowdown = %v, %v; want 2", s, err)
	}
}

// TestTinyEpochRejected: an epoch below the simulator's time
// resolution would degenerate into a tick per float step (previously
// an uninterruptible spin); it must be rejected upfront.
func TestTinyEpochRejected(t *testing.T) {
	_, err := Simulate(context.Background(), pipeInstance(), Options{
		Policy: NameFIFO, Epoch: 1e-19,
	})
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("tiny epoch must be rejected, got %v", err)
	}
	if _, err := Simulate(context.Background(), pipeInstance(), Options{
		Policy: NameFIFO, Epoch: 1e-3,
	}); err != nil {
		t.Fatalf("valid epoch rejected: %v", err)
	}
}

// TestRevealAtCoflowRelease: a coflow whose flows all release later
// than the coflow itself must still be revealed at the coflow release
// time — the reveal is its own event, not a rider on whichever
// completion or tick fires next.
func TestRevealAtCoflowRelease(t *testing.T) {
	in := pipeInstance()
	in.Coflows[1].Release = 1
	in.Coflows[1].Flows[0].Release = 5
	res, err := Simulate(context.Background(), in, Options{Policy: NameFIFO})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range res.Trace {
		if ev.Kind == Arrival && ev.Coflow == 1 {
			if !almost(ev.Time, 1) {
				t.Fatalf("coflow 1 revealed at t=%v, want 1", ev.Time)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no arrival event for coflow 1")
	}
	// The flow itself only runs from its own release at t=5.
	if res.Completions[1] < 6-1e-9 {
		t.Fatalf("coflow 1 finished at %v; its flow was not available before t=5", res.Completions[1])
	}
}

// TestIdleGapSkipsEpochTicks: epoch timers must not burn one no-op
// event per period while nothing is active — an idle gap before the
// first arrival is crossed in a single step.
func TestIdleGapSkipsEpochTicks(t *testing.T) {
	in := pipeInstance()
	in.Coflows[0].Release = 50
	in.Coflows[1].Release = 50
	res, err := Simulate(context.Background(), in, Options{
		Policy: NameFIFO, Epoch: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crossing [0,50) at epoch 0.5 would be ~100 idle tick events if
	// they fired; the busy period [50,53] legitimately ticks ~6 times.
	if res.Events > 30 {
		t.Fatalf("%d events for an idle gap plus two coflows", res.Events)
	}
	if !almost(res.Completions[0], 52) {
		t.Fatalf("completions = %v", res.Completions)
	}
}

// TestSincroniaOnlineReplanAllocatesNothing pins sincroniaOnline's
// buffer reuse: once a replan has sized the residual sub-instance and
// the ordering scratch for a backlog, replanning the unchanged backlog
// allocates nothing.
func TestSincroniaOnlineReplanAllocatesNothing(t *testing.T) {
	in := fbInstance(t, 200, 0.1, 3)
	st := newState(in)
	for j := range in.Coflows {
		st.Now = math.Max(st.Now, in.Coflows[j].Release)
		st.Active = append(st.Active, j)
		st.activeMask[j] = true
	}
	st.Replan = true
	pol, err := New(NameSincroniaOnline, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out Alloc
	replan := func() {
		out.Reset()
		if err := pol.Allocate(context.Background(), st, &out); err != nil {
			t.Fatal(err)
		}
	}
	replan()
	if len(out.Entries) == 0 {
		t.Fatal("replan granted no flow")
	}
	if n := testing.AllocsPerRun(20, replan); n != 0 {
		t.Fatalf("replan on an unchanged backlog allocates %v times", n)
	}
}
