package sim

// Differential tests for the incremental policies: the registered
// "las" and "fair" implementations maintain their order / water-fill
// state across events, and these tests hold them to the from-scratch
// reference implementations (policy_reference_test.go) on the same
// instances — full traces, completions, and aggregates, across all four
// topology families and a seed sweep. las is held bit-identical. fair
// reads each round's fill off an edge level, (capacity − frozen)/count,
// where the reference subtracts δ once per flow and round, so its
// floats may differ in the last bits: it must produce the same event
// sequence (kind and coflow of every event), with every time,
// completion and aggregate within fairTol relative, and at every event
// the same entries with rates within fairTol
// (TestFairMatchesReferenceEveryEvent). The loop-level differential tests
// (differential_test.go) already pin Simulate against
// simulateReference with the same policy on both sides; this file pins
// the policy pair under the same loop, so the two suites together cover
// both axes of the fast path.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/coflow"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// fairTol is the relative tolerance of the fair differential. fair's
// levels and frozen-rate sums round differently from the reference's
// per-flow, per-round subtractions, so each rate and event time carries
// a few ulps of drift; 1e-9 leaves six orders of magnitude of headroom
// while still catching any real change of the filling.
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
// drift of fair's level arithmetic to build up across events.
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

// plainWalkCheck wraps a policy that water-fills a cached priority
// order: after every Allocate it recomputes the rates from that order
// with priorityRatesReference and fails unless the entries are equal
// bit for bit.
type plainWalkCheck struct {
	Policy
	t     *testing.T
	calls int
}

func (p *plainWalkCheck) Allocate(ctx context.Context, st *State, out *Alloc) error {
	if err := p.Policy.Allocate(ctx, st, out); err != nil {
		return err
	}
	var order []int
	switch q := p.Policy.(type) {
	case *fifoPolicy:
		order = q.order
	case *lasPolicy:
		order = q.order
	case *sincroniaOnline:
		order = q.order
	case *epochAdapter:
		order = q.order
	default:
		p.t.Fatalf("policy %s keeps no priority order", p.Name())
	}
	want := priorityRatesReference(st, order)
	if len(out.Entries) != len(want) {
		p.t.Fatalf("%s at t=%v: %d entries, plain walk %d", p.Name(), st.Now, len(out.Entries), len(want))
	}
	for k, w := range want {
		g := out.Entries[k]
		if g.Coflow != w.Coflow || g.Flow != w.Flow || math.Float64bits(g.Rate) != math.Float64bits(w.Rate) {
			p.t.Fatalf("%s at t=%v: entry %d is %+v, plain walk %+v", p.Name(), st.Now, k, g, w)
		}
	}
	p.calls++
	return nil
}

// TestPriorityRatesMatchesPlainWalk holds every policy that water-fills
// a priority order to the plain walk at every event. The fabrics with
// more than 64 hosts share edges between buckets, so there a bucket
// must not count as saturated before all its edges are.
func TestPriorityRatesMatchesPlainWalk(t *testing.T) {
	topos := append(slices.Clone(differentialTopos), "fat-tree:k=8", "big-switch:n=100")
	for _, name := range []string{NameFIFO, NameLAS, NameSincroniaOnline, "epoch:sincronia-greedy"} {
		for ti, spec := range topos {
			t.Run(name+"/"+spec, func(t *testing.T) {
				t.Parallel()
				seed := int64(stats.SubSeed(229, uint64(ti)))
				in := differentialInstance(t, spec, 60, seed)
				opt := Options{Policy: name, Epoch: 2, Seed: seed}
				pol, err := New(name, opt.Normalize())
				if err != nil {
					t.Fatal(err)
				}
				check := &plainWalkCheck{Policy: pol, t: t}
				res := runPolicy(t, in, opt, check)
				if check.calls == 0 || check.calls > res.Events {
					t.Fatalf("%d checked calls over %d events", check.calls, res.Events)
				}
			})
		}
	}
}

// fairReferenceCheck wraps the registered fair policy: after every
// Allocate it runs fairReference on the same State into a scratch
// Alloc and fails unless the entries name the same flows in the same
// order, with rates within fairTol relative.
type fairReferenceCheck struct {
	*fairPolicy
	t     *testing.T
	ref   fairReference
	want  Alloc
	calls int
}

func (p *fairReferenceCheck) Allocate(ctx context.Context, st *State, out *Alloc) error {
	if err := p.fairPolicy.Allocate(ctx, st, out); err != nil {
		return err
	}
	p.want.Reset()
	if err := p.ref.Allocate(ctx, st, &p.want); err != nil {
		return err
	}
	want := p.want.Entries
	if len(out.Entries) != len(want) {
		p.t.Fatalf("fair at t=%v: %d entries, reference %d", st.Now, len(out.Entries), len(want))
	}
	for k, w := range want {
		g := out.Entries[k]
		if g.Coflow != w.Coflow || g.Flow != w.Flow || !within(g.Rate, w.Rate, fairTol) {
			p.t.Fatalf("fair at t=%v: entry %d is %+v, reference %+v", st.Now, k, g, w)
		}
	}
	p.calls++
	return nil
}

// TestFairMatchesReferenceEveryEvent holds fair to fairReference at
// every event, not only through the trace: online, with release jitter
// and epoch ticks, and clairvoyant, where every coflow is revealed at
// t=0 and most flows wait for their release. The fabrics with 128 and
// 100 hosts put many flows on an edge.
func TestFairMatchesReferenceEveryEvent(t *testing.T) {
	topos := append(slices.Clone(differentialTopos), "fat-tree:k=8", "big-switch:n=100")
	for _, clairvoyant := range []bool{false, true} {
		for ti, spec := range topos {
			t.Run(fmt.Sprintf("%s/clairvoyant=%v", spec, clairvoyant), func(t *testing.T) {
				t.Parallel()
				seed := int64(stats.SubSeed(233, uint64(ti)))
				in := differentialInstance(t, spec, 60, seed)
				opt := Options{Policy: NameFair, Epoch: 2, Seed: seed, Clairvoyant: clairvoyant}
				check := &fairReferenceCheck{fairPolicy: &fairPolicy{}, t: t}
				res := runPolicy(t, in, opt, check)
				if check.calls == 0 || check.calls > res.Events {
					t.Fatalf("%d checked calls over %d events", check.calls, res.Events)
				}
			})
		}
	}
}

// TestFairFreezeRoundsPinned pins the sim_fair_freeze_rounds count and
// sum on one leaf-spine instance of the online-backlog fabric, so a
// change to what a round is fails here instead of quietly moving
// sim.fair_freeze_rounds_mean.
func TestFairFreezeRoundsPinned(t *testing.T) {
	top, err := topo.New("leaf-spine:leaves=8,spines=4,hosts=4")
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: top.Graph, NumCoflows: 400, Seed: 1,
		MeanInterarrival: 0.25, AssignPaths: true, Endpoints: top.Endpoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Simulate(context.Background(), in, Options{Policy: NameFair, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("sim_fair_freeze_rounds", sizeBounds)
	if h.Count() != 1821 || h.Sum() != 54781 {
		t.Fatalf("sim_fair_freeze_rounds: %d observations, %v rounds; want 1821 and 54781", h.Count(), h.Sum())
	}
}
