package repro_test

// Scale gates for the online simulator: the indexed event queue and
// sparse allocations must hold up at instance sizes the original
// O(n²·flows) loop could not touch. TestSimulateStress is the
// race-detector workhorse (20k coflows with the paranoid sampled
// checking on, replayed through the validity oracle);
// TestSimulate100kBigSwitch is the acceptance bar — a 100k-coflow
// FIFO run on a big-switch fabric in well under a minute. Both skip
// under -short, and the 100k run also skips under the race detector,
// whose constant-factor slowdown would measure the instrumentation
// rather than the simulator.

import (
	"context"
	"testing"
	"time"

	repro "repro"
)

// scaleInstance generates a Poisson-arrival FB workload on a
// generated topology at moderate utilization, so the backlog stays
// bounded and the run exercises steady-state arrival/completion
// interleaving rather than one giant queue.
func scaleInstance(t testing.TB, spec string, coflows int, interarrival float64) *repro.Instance {
	t.Helper()
	top, err := repro.NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind: repro.FB, Graph: top.Graph, NumCoflows: coflows, Seed: 20260728,
		MeanInterarrival: interarrival, AssignPaths: true, Endpoints: top.Endpoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSimulateStress runs a 20k-coflow instance with sampled full
// checking (every 64th event cross-verifies the incremental fast-path
// state from scratch) and replays the result through the independent
// validity oracle. CI runs it under -race.
func TestSimulateStress(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-coflow stress run skipped in -short")
	}
	in := scaleInstance(t, "big-switch:n=64", 20000, 0.3)
	for _, policy := range []string{"fifo", "las"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			rep, err := repro.Run(context.Background(), repro.Spec{
				Instance: in, Policy: policy, Options: repro.SpecOptions{CheckEvery: 64},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Events < 2*len(in.Coflows) {
				t.Fatalf("only %d events for %d coflows", rep.Events, len(in.Coflows))
			}
			if err := repro.ValidateSim(in, rep.Sim, repro.SimOptions{}); err != nil {
				t.Fatalf("oracle rejected the stress trace: %v", err)
			}
		})
	}
}

// TestSimulate100kBigSwitch is the scale acceptance criterion: a
// 100k-coflow FIFO simulation on a big-switch fabric must complete in
// under 60 seconds (it runs in a small fraction of that; the bound
// only guards against an O(n²) regression sneaking back in).
func TestSimulate100kBigSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-coflow run skipped in -short")
	}
	if raceEnabled {
		t.Skip("100k-coflow run skipped under -race (the detector's slowdown is not the simulator's)")
	}
	in := scaleInstance(t, "big-switch:n=64", 100000, 0.25)
	start := time.Now()
	rep, err := repro.Run(context.Background(), repro.Spec{
		Instance: in, Policy: "fifo", Options: repro.SpecOptions{MaxEvents: 1 << 22},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Sim
	elapsed := time.Since(start)
	t.Logf("100k-coflow FIFO on big-switch: %d events in %v (%.0f events/sec)",
		res.Events, elapsed, float64(res.Events)/elapsed.Seconds())
	if elapsed >= 60*time.Second {
		t.Fatalf("100k-coflow simulation took %v, acceptance bound is 60s", elapsed)
	}
	for j, c := range res.Completions {
		if c < in.Coflows[j].Release {
			t.Fatalf("coflow %d completed at %g before release %g", j, c, in.Coflows[j].Release)
		}
	}
}
