package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/coflow"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/workload"
)

// TestLargeLPRobustness pins the fix for the ROADMAP "large-LP
// numerical robustness" failure. The clairvoyant stretch reference on
// leaf-spine at 30 coflows (MaxSlots 48) used to burn 62k+ simplex
// pivots and then die deterministically with `basis refactorization
// failed: lu: matrix is singular`. With Harris ratio tests plus stall
// perturbation in the simplex, the horizon lower-bound preskip, and
// the greedy warm-start basis, the same instance now solves to
// optimality in one solve at under a third of the old pivot count,
// with no singular-basis recovery. This test runs by default so a
// regression in any of those layers — a singular error resurfacing,
// or pivot counts creeping back toward the old pathology — fails CI
// instead of hiding behind an env var.
//
// The solve is deterministic, so the pivot ceiling is not flaky: the
// measured count is 19405, and the ceiling of 20000 is the acceptance
// bound the robustness work was held to. Skipped in -short runs and
// under the race detector, where the wall-clock bound is meaningless.
func TestLargeLPRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("large-LP robustness regression skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("large-LP robustness regression skipped under the race detector")
	}
	top, err := topo.New("leaf-spine:leaves=3,spines=2,hosts=2")
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: top.Graph, NumCoflows: 30, Seed: 2000,
		MeanInterarrival: 1.2, AssignPaths: true, Endpoints: top.Endpoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	start := time.Now()
	res, err := Schedule(context.Background(), NameStretch, in, coflow.SinglePath, Options{
		MaxSlots: 48,
		Trials:   1,
		Obs:      reg,
	})
	elapsed := time.Since(start)
	snap := reg.Snapshot()
	pivots := snap.Counters["simplex_pivots_total"]
	t.Logf("large-LP regression: pivots=%d refactorizations=%d perturbations=%d solves=%d elapsed=%s",
		pivots,
		snap.Counters["simplex_refactorizations_total"],
		snap.Counters["simplex_perturbations_total"],
		snap.Counters["simplex_solves_total"],
		elapsed)
	if err != nil {
		t.Fatalf("the large LP must solve cleanly now (was the known-singular baseline): %v", err)
	}
	if res == nil || !res.HasLowerBound || res.LowerBound <= 0 {
		t.Fatalf("schedule succeeded but reported no LP lower bound: %+v", res)
	}
	// The old failure burned 62k pivots before dying; the fixed stack
	// lands at 19405. A ceiling of 20000 catches any drift back toward
	// the degenerate-stall pathology while leaving headroom only for
	// benign float-level variation.
	if pivots >= 20000 {
		t.Errorf("pivot count regressed: %d >= 20000 (fixed baseline is 19405)", pivots)
	}
	// Generous wall-clock bound: the solve takes well under a minute on
	// a developer machine; minutes of pivoting means the stall
	// pathology is back.
	if limit := 5 * time.Minute; elapsed > limit {
		t.Errorf("solve took %s, over the %s regression bound", elapsed, limit)
	}
}
