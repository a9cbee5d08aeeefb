package sim

// Differential tests for the incremental policies: the registered
// "las" and "fair" implementations maintain their order / water-fill
// state across events, and these tests hold them to the from-scratch
// reference implementations (policy_reference_test.go) on the same
// instances — full traces, completions, and aggregates, across all four
// topology families and a seed sweep. las is held bit-identical. fair
// lowers each counted edge's residual by count·δ in one step where the
// reference subtracts δ once per flow, so its floats may differ in the
// last bits: it must produce the same event sequence (kind and coflow
// of every event), with every time, completion and aggregate within
// fairTol relative. The loop-level differential tests
// (differential_test.go) already pin Simulate against
// simulateReference with the same policy on both sides; this file pins
// the policy pair under the same loop, so the two suites together cover
// both axes of the fast path.

import (
	"context"
	"math"
	"testing"

	"repro/internal/coflow"
	"repro/internal/stats"
)

// fairTol is the relative tolerance of the fair differential. The
// closed-form raise rounds once per edge and round where the reference
// rounds count[e] times, so each event time carries a few ulps of
// drift; 1e-9 leaves six orders of magnitude of headroom while still
// catching any real change of the filling.
const fairTol = 1e-9

// runPolicy executes the optimized event loop with an explicitly
// injected policy instance — the hook that lets unregistered reference
// policies run under the identical loop.
func runPolicy(t *testing.T, in *coflow.Instance, opt Options, pol Policy) *Result {
	t.Helper()
	opt = opt.Normalize()
	if err := in.Validate(coflow.SinglePath); err != nil {
		t.Fatalf("instance: %v", err)
	}
	res, err := newRunner(in, opt, pol).run(context.Background())
	if err != nil {
		t.Fatalf("policy %s: %v", pol.Name(), err)
	}
	return res
}

// diffPolicyCompare runs the registered fast policy and the reference
// implementation on the same instance and fails on any divergence
// beyond tol relative. The event sequence (kind and coflow of every
// event) and the event and replan counts must match exactly at any
// tol; with tol 0 every float must be identical too.
func diffPolicyCompare(t *testing.T, in *coflow.Instance, opt Options, ref Policy, tol float64) {
	t.Helper()
	opt = opt.Normalize()
	fast, err := Simulate(context.Background(), in, opt)
	if err != nil {
		t.Fatalf("fast %s: %v", opt.Policy, err)
	}
	want := runPolicy(t, in, opt, ref)
	if fast.Events != want.Events || fast.Replans != want.Replans {
		t.Fatalf("events/replans diverge: got %d/%d, ref %d/%d",
			fast.Events, fast.Replans, want.Events, want.Replans)
	}
	if len(fast.Trace) != len(want.Trace) {
		t.Fatalf("trace length %d, reference policy %d", len(fast.Trace), len(want.Trace))
	}
	for i, w := range want.Trace {
		g := fast.Trace[i]
		if g.Kind != w.Kind || g.Coflow != w.Coflow || !within(g.Time, w.Time, tol) {
			t.Fatalf("trace event %d: got %+v, reference policy %+v", i, g, w)
		}
	}
	for j, w := range want.Completions {
		if !within(fast.Completions[j], w, tol) {
			t.Fatalf("completion of coflow %d: got %v, reference policy %v", j, fast.Completions[j], w)
		}
	}
	if !within(fast.WeightedCCT, want.WeightedCCT, tol) || !within(fast.TotalCCT, want.TotalCCT, tol) ||
		!within(fast.AvgCCT, want.AvgCCT, tol) || !within(fast.Makespan, want.Makespan, tol) {
		t.Fatalf("aggregates diverge: got (%v %v %v %v), ref (%v %v %v %v)",
			fast.WeightedCCT, fast.TotalCCT, fast.AvgCCT, fast.Makespan,
			want.WeightedCCT, want.TotalCCT, want.AvgCCT, want.Makespan)
	}
}

// within reports whether got matches want within tol relative to the
// larger magnitude; tol 0 demands equality.
func within(got, want, tol float64) bool {
	return got == want || math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
}

// diffPolicies lists each incremental policy with a fresh-reference
// builder (policies carry per-run caches) and its tolerance.
var diffPolicies = []struct {
	name string
	ref  func() Policy
	tol  float64
}{
	{NameLAS, func() Policy { return &lasReference{} }, 0},
	{NameFair, func() Policy { return &fairReference{} }, fairTol},
}

// TestDifferentialIncrementalPolicies sweeps the incremental policies
// against their references over the four topology families, with
// per-flow release jitter (so availability flips between events) and
// epoch ticks, under the paranoid full check.
func TestDifferentialIncrementalPolicies(t *testing.T) {
	for _, dp := range diffPolicies {
		t.Run(dp.name, func(t *testing.T) {
			t.Parallel()
			for ti, spec := range differentialTopos {
				seed := int64(stats.SubSeed(211, uint64(ti)))
				in := differentialInstance(t, spec, 25, seed)
				opt := Options{Policy: dp.name, Epoch: 1.5, Seed: seed, CheckEvery: 1}
				diffPolicyCompare(t, in, opt, dp.ref(), dp.tol)
			}
		})
	}
}

// TestDifferentialIncrementalPoliciesClairvoyant pins the clairvoyant
// path: every coflow is revealed at t=0, so the incremental structures
// absorb the whole instance as one reveal batch while service still
// honors releases.
func TestDifferentialIncrementalPoliciesClairvoyant(t *testing.T) {
	for _, dp := range diffPolicies {
		t.Run(dp.name, func(t *testing.T) {
			t.Parallel()
			for ti, spec := range differentialTopos {
				seed := int64(stats.SubSeed(223, uint64(ti)))
				in := differentialInstance(t, spec, 15, seed)
				opt := Options{Policy: dp.name, Seed: seed, Clairvoyant: true, CheckEvery: 1}
				diffPolicyCompare(t, in, opt, dp.ref(), dp.tol)
			}
		})
	}
}

// TestDifferentialIncrementalPoliciesSeedSweep is the breadth pass:
// many seeds on one topology per policy, covering event interleavings
// (simultaneous reveals, completion/tick ties) a single seed cannot,
// then one 200-coflow run per topology family, long enough for any
// drift of fair's closed-form raise to build up across events.
func TestDifferentialIncrementalPoliciesSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for _, dp := range diffPolicies {
		t.Run(dp.name, func(t *testing.T) {
			t.Parallel()
			for s := int64(0); s < 10; s++ {
				in := differentialInstance(t, "leaf-spine:leaves=3,spines=2,hosts=2", 30, 2000+s)
				opt := Options{Policy: dp.name, Epoch: 2, Seed: s, CheckEvery: 5}
				diffPolicyCompare(t, in, opt, dp.ref(), dp.tol)
			}
			for ti, spec := range differentialTopos {
				seed := int64(stats.SubSeed(227, uint64(ti)))
				in := differentialInstance(t, spec, 200, seed)
				opt := Options{Policy: dp.name, Epoch: 2, Seed: seed, CheckEvery: 25}
				diffPolicyCompare(t, in, opt, dp.ref(), dp.tol)
			}
		})
	}
}
