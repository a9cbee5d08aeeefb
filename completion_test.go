package repro_test

// One completion rule. sincronia-greedy's priority fill can leave a
// flow's last few millionths of its demand in a slot of their own:
// on the 64-coflow default workload at seed 95, flow 76 of coflow 19
// ships its last fraction 6.3e-6 in slot 24, so the coflow completes
// at 25. schedule.CompletionTimes counts that slot, and so must the
// oracle's replay: both define a transmission as a fraction above
// schedule.Eps. These tests pin the three seeds where the two once
// disagreed, sweep the first thousand seeds, and check that the oracle
// rejects the seed-95 result reported one slot early.

import (
	"context"
	"testing"

	repro "repro"
	"repro/internal/validate"
)

// greedySpec is one sincronia-greedy run on the 64-coflow default
// workload at the given workload seed.
func greedySpec(seed int64, check bool) repro.Spec {
	return repro.Spec{
		Scheduler: "sincronia-greedy",
		Workload:  &repro.SpecWorkload{Coflows: 64, Seed: seed},
		Validate:  check,
	}
}

// TestSincroniaGreedyDustSeedsValidate pins the seeds whose last
// transmission is a fraction of 3–7·10⁻⁶.
func TestSincroniaGreedyDustSeedsValidate(t *testing.T) {
	for _, seed := range []int64{95, 223, 686} {
		if _, err := repro.Run(context.Background(), greedySpec(seed, true)); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestPropertySincroniaGreedyValidates sweeps workload seeds 1–1000
// (1–100 under -short or the race detector) through the oracle.
func TestPropertySincroniaGreedyValidates(t *testing.T) {
	n := int64(1000)
	if testing.Short() || raceEnabled {
		n = 100
	}
	for seed := int64(1); seed <= n; seed++ {
		if _, err := repro.Run(context.Background(), greedySpec(seed, true)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestOracleRejectsEarlyCompletion reports seed 95's coflow 19 at 24,
// the end of the slot before its last transmission, with the
// aggregates recomputed to match: exactly one completion violation.
func TestOracleRejectsEarlyCompletion(t *testing.T) {
	rep, err := repro.Run(context.Background(), greedySpec(95, false))
	if err != nil {
		t.Fatal(err)
	}
	res := *rep.Engine
	inst := res.Schedule.Inst
	if got := res.Completions[19]; got != 25 {
		t.Fatalf("coflow 19 completes at %v, want 25", got)
	}
	res.Completions = append([]float64(nil), res.Completions...)
	res.Completions[19] = 24
	res.Weighted, res.Total = 0, 0
	for j, c := range res.Completions {
		res.Weighted += inst.Coflows[j].Weight * c
		res.Total += c
	}
	r := validate.Result(inst, &res)
	if len(r.Violations) != 1 || r.Count(validate.KindCompletion) != 1 {
		t.Fatalf("want exactly one completion violation, got %v", r.Violations)
	}
}
