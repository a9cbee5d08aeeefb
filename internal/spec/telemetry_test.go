package spec

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/simplex"
)

// stripTelemetry clears the fields that legitimately differ between a
// telemetry-on and telemetry-off run: the snapshot itself and the
// spec echo's Telemetry flag. Everything else must be byte-identical.
func stripTelemetry(rep *RunReport) *RunReport {
	cp := *rep
	cp.Telemetry = nil
	cp.Spec.Options.Telemetry = false
	return &cp
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTelemetryDeterminism proves the nil-registry contract: the same
// spec run with no registry, with a shared registry, and with
// Options.Telemetry set produces byte-identical reports (telemetry
// fields excluded). One offline LP spec and one online epoch-replan
// spec cover the engine, core, simplex, and sim record sites.
func TestTelemetryDeterminism(t *testing.T) {
	ctx := context.Background()
	specs := []Spec{
		{
			Scheduler: "stretch",
			Workload:  &Workload{Coflows: 4, Seed: 7},
			Options:   Options{Trials: 3, Seed: 11},
		},
		{
			Policy:   "epoch:heuristic",
			Workload: &Workload{Coflows: 4, Seed: 7},
			Options:  Options{Trials: -1, Seed: 11, CheckEvery: 1},
		},
	}
	for _, s := range specs {
		base, err := Run(ctx, s)
		if err != nil {
			t.Fatalf("%s%s: base run: %v", s.Scheduler, s.Policy, err)
		}
		if base.Telemetry != nil {
			t.Fatalf("%s%s: telemetry attached without Options.Telemetry", s.Scheduler, s.Policy)
		}
		want := mustJSON(t, base)

		reg := obs.NewRegistry()
		withReg, err := RunWith(ctx, s, reg)
		if err != nil {
			t.Fatalf("%s%s: registry run: %v", s.Scheduler, s.Policy, err)
		}
		if got := mustJSON(t, withReg); string(got) != string(want) {
			t.Errorf("%s%s: report changed when a registry was attached:\n got %s\nwant %s",
				s.Scheduler, s.Policy, got, want)
		}
		snap := reg.Snapshot()
		if snap.Counters["simplex_pivots_total"] == 0 {
			t.Errorf("%s%s: registry recorded no simplex pivots: %+v", s.Scheduler, s.Policy, snap.Counters)
		}
		if s.Policy != "" && snap.Counters[`sim_events_total{kind="arrival"}`] == 0 {
			t.Errorf("%s%s: registry recorded no sim arrivals: %+v", s.Scheduler, s.Policy, snap.Counters)
		}

		ts := s
		ts.Options.Telemetry = true
		withSnap, err := Run(ctx, ts)
		if err != nil {
			t.Fatalf("%s%s: telemetry run: %v", s.Scheduler, s.Policy, err)
		}
		if withSnap.Telemetry == nil {
			t.Fatalf("%s%s: Options.Telemetry set but no snapshot attached", s.Scheduler, s.Policy)
		}
		if withSnap.Telemetry.Counters["simplex_pivots_total"] == 0 {
			t.Errorf("%s%s: attached snapshot has no simplex pivots", s.Scheduler, s.Policy)
		}
		if got := mustJSON(t, stripTelemetry(withSnap)); string(got) != string(want) {
			t.Errorf("%s%s: scheduling output changed with Options.Telemetry:\n got %s\nwant %s",
				s.Scheduler, s.Policy, got, want)
		}
	}
}

// TestTelemetrySharedRegistryConcurrent hammers one registry from
// concurrent sweep cells plus direct runs — the coflowd usage pattern
// — and checks the counts survive. Run under -race this doubles as
// the data-race proof for the record path.
func TestTelemetrySharedRegistryConcurrent(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	sw := SweepSpec{
		Base: Spec{
			Scheduler: "heuristic",
			Workload:  &Workload{Coflows: 3},
		},
		Seeds:   []int64{1, 2, 3, 4},
		Workers: 4,
	}
	n, at, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if _, err := RunWith(ctx, Spec{
				Policy:   "las",
				Workload: &Workload{Coflows: 3, Seed: int64(i)},
			}, reg); err != nil {
				t.Errorf("concurrent las run: %v", err)
			}
		}
	}()
	cells := 0
	for _, cell := range StreamWith(ctx, n, sw.Workers, at,
		func(ctx context.Context, i int, s Spec) *Cell { return RunCellWith(ctx, i, s, reg) }) {
		if cell.Err != nil {
			t.Errorf("cell %d: %v", cell.Index, cell.Err)
		}
		cells++
	}
	wg.Wait()
	if cells != n {
		t.Fatalf("streamed %d cells, want %d", cells, n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["simplex_solves_total"]; got < int64(n) {
		t.Errorf("simplex_solves_total = %d, want ≥ %d (one per sweep cell)", got, n)
	}
	if snap.Counters[`sim_events_total{kind="arrival"}`] == 0 {
		t.Errorf("no sim arrivals recorded from the concurrent las runs: %+v", snap.Counters)
	}
}

// TestReplanSolvesStartFeasible runs the benchmark's online-replan spec
// (epoch:stretch on SWAN, 100 coflows, 8-slot cap) and gates on
// deterministic counters: at least 90% of the re-plan LPs must accept
// their warm start, the residual's greedy vertex, and a re-plan must
// average at most 100 simplex pivots. Solves that start from
// artificials spend most of their pivots in phase 1 and average
// several hundred.
func TestReplanSolvesStartFeasible(t *testing.T) {
	s := Spec{
		Policy:   "epoch:stretch",
		Topology: "swan",
		Workload: &Workload{Coflows: 100, Seed: 1, MeanInterarrival: 4},
		Options:  Options{MaxSlots: 8, Trials: 1, WarmLP: true, Workers: 1, Seed: 1},
	}
	reg := obs.NewRegistry()
	if _, err := RunWith(context.Background(), s, reg); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	var all int64
	for o := simplex.WarmAccepted; o <= simplex.WarmRejectedInfeasible; o++ {
		all += c[`simplex_warm_start_total{outcome="`+o.String()+`"}`]
	}
	accepted := c[`simplex_warm_start_total{outcome="accepted"}`]
	replans, pivots := c["sim_replans_total"], c["simplex_pivots_total"]
	t.Logf("warm starts accepted %d of %d; %d pivots over %d re-plans", accepted, all, pivots, replans)
	if replans == 0 {
		t.Fatal("no re-plans recorded")
	}
	if all == 0 || float64(accepted) < 0.9*float64(all) {
		t.Errorf("warm starts accepted %d of %d, want ≥ 90%%", accepted, all)
	}
	if per := float64(pivots) / float64(replans); per > 100 {
		t.Errorf("%.1f simplex pivots per re-plan, want ≤ 100", per)
	}
}

// TestFreePathFatTreeWorkGuard pins the work of a free path solve on a
// fabric: 5 FB coflows (17 flows) on fat-tree:k=4, heuristic under a
// 24-slot cap, which is infeasible and grows to 48 slots. Column
// generation reaches the edge formulation's LP bound in 8 142 pivots,
// where the edge formulation took 90 189, so the 30 000 bound fails if
// the free path model falls back to it.
func TestFreePathFatTreeWorkGuard(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Topology: "fat-tree:k=4",
		Workload: &Workload{Kind: "fb", Coflows: 5, Seed: 1},
		Model:    ModelFree, Scheduler: "heuristic",
		Options: Options{MaxSlots: 24, Telemetry: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 2590.090288 // the edge formulation's optimum
	if math.Abs(rep.LowerBound-bound) > 1e-9*bound {
		t.Errorf("LP bound %.10g, want %.10g", rep.LowerBound, bound)
	}
	if p := rep.Telemetry.Counters["simplex_pivots_total"]; p > 30000 {
		t.Errorf("%d simplex pivots, want at most 30 000", p)
	}
}
