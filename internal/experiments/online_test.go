package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

func TestFigureO1Shape(t *testing.T) {
	c := Small()
	res, err := FigureO1(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workload.Kinds) * len(c.Loads); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if len(res.Series) != 1+len(O1Policies) {
		t.Fatalf("series = %v", res.Series)
	}
	for _, row := range res.Rows {
		for _, s := range res.Series {
			v, ok := row.Values[s]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("row %q series %q: bad value %v", row.Label, s, v)
			}
		}
		// A clairvoyant-normalized slowdown far below 1 means the
		// offline reference or the simulator units are broken: the
		// reference runs in the same continuous time, so online
		// policies cannot systematically beat it.
		for _, p := range O1Policies {
			if row.Values[p] < 0.5 {
				t.Fatalf("row %q policy %q: slowdown %v implausibly small", row.Label, p, row.Values[p])
			}
		}
	}
}

// onlineInstance is the 5-coflow SWAN instance the comparison tests
// share.
func onlineInstance(t *testing.T) *coflow.Instance {
	t.Helper()
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: graph.SWAN(1), NumCoflows: 5, Seed: 9,
		MeanInterarrival: 1, AssignPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestOnlineComparisonTable(t *testing.T) {
	res, err := OnlineComparison(context.Background(), spec.Spec{
		Instance: onlineInstance(t),
		Options:  spec.Options{MaxSlots: 16, Trials: 2},
		Validate: true,
	}, []string{sim.NameFIFO, sim.NameLAS}, "sincronia-greedy", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two reference rows (clairvoyant + slotted) plus one per policy.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	if res.Rows[0].Label != "offline:sincronia-greedy" || res.Rows[0].Values["Slowdown"] != 1 {
		t.Fatalf("bad reference row %+v", res.Rows[0])
	}
	if res.Rows[1].Label != "offline:sincronia-greedy (slotted)" {
		t.Fatalf("bad slotted row %+v", res.Rows[1])
	}
	for _, row := range res.Rows[2:] {
		if row.Values["Slowdown"] <= 0 || row.Values["Weighted ΣwC"] <= 0 {
			t.Fatalf("row %q: bad values %v", row.Label, row.Values)
		}
		// The clairvoyant reference runs in the same continuous time,
		// so the online policies cannot systematically beat it; allow
		// mild heuristic noise but not the quantization deflation.
		if row.Values["Slowdown"] < 0.5 {
			t.Fatalf("row %q: slowdown %v below plausibility floor", row.Label, row.Values["Slowdown"])
		}
	}
}

// TestOnlineComparisonCountsSlottedReference requires the registry to
// see every row: the slotted offline reference schedules once, and the
// clairvoyant reference once per re-plan.
func TestOnlineComparisonCountsSlottedReference(t *testing.T) {
	reg := obs.NewRegistry()
	_, err := OnlineComparison(context.Background(), spec.Spec{
		Instance: onlineInstance(t),
		Options:  spec.Options{MaxSlots: 16, Trials: 2},
	}, nil, "sincronia-greedy", reg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	schedules := snap.Timings[`engine_schedule{scheduler="sincronia-greedy"}`].Count
	replans := snap.Counters["sim_replans_total"]
	if replans == 0 || schedules != replans+1 {
		t.Fatalf("engine schedules = %d, want re-plans (%d) + 1", schedules, replans)
	}
}
