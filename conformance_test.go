package repro_test

// The conformance matrix is the repository's standing correctness
// gate: every registered engine scheduler and every online sim policy
// runs against every generated topology family, under every
// transmission model it supports, and the independent oracle
// (internal/validate) must report zero invariant violations. A future
// scheduler or policy registers itself and is swept automatically.
//
// CI runs these tests twice (go test -run Conformance -count=2) to
// catch nondeterminism: a scheduler whose output depends on map order
// or scheduling noise fails the second pass against the golden traces
// and the determinism sub-checks.

import (
	"context"
	"fmt"
	"testing"

	repro "repro"
	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/validate"
)

// conformanceTopos is the topology column of the matrix: one small
// representative per generated family (8 families ≥ the 6 the
// acceptance bar requires), sized so the time-indexed LPs stay fast.
var conformanceTopos = []string{
	"big-switch:n=5",
	"star:n=5",
	"line:n=5",
	"ring:n=6",
	"fat-tree:k=4",
	"leaf-spine:leaves=3,spines=2,hosts=2",
	"random-regular:n=8,d=3,seed=3",
	"erdos-renyi:n=8,p=0.3,seed=5,hetero=1",
}

// conformanceModels lists every transmission model.
var conformanceModels = []repro.TransmissionModel{repro.SinglePath, repro.FreePath, repro.MultiPath}

// conformanceInstance generates the small workload a matrix cell runs:
// a BigBench-shaped instance (few flows per coflow keeps the matrix
// quick) restricted to the topology's endpoints, with both fixed paths
// and candidate path sets assigned so one instance serves all three
// models.
func conformanceInstance(t *testing.T, spec string, coflows int, seed int64) *repro.Instance {
	t.Helper()
	top, err := repro.NewTopology(spec)
	if err != nil {
		t.Fatalf("topology %s: %v", spec, err)
	}
	in, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind: repro.BigBench, Graph: top.Graph, NumCoflows: coflows, Seed: seed,
		MeanInterarrival: 1, AssignPaths: true, Endpoints: top.Endpoints,
	})
	if err != nil {
		t.Fatalf("workload on %s: %v", spec, err)
	}
	if err := in.AssignKShortestPaths(2); err != nil {
		t.Fatalf("alt paths on %s: %v", spec, err)
	}
	return in
}

// schedule runs the named engine scheduler on an inline instance in
// the given model through the Spec front door and returns the
// engine's result.
func schedule(name string, in *repro.Instance, mode repro.TransmissionModel, opt repro.SpecOptions) (*repro.SchedulerResult, error) {
	rep, err := repro.Run(context.Background(), repro.Spec{
		Instance: in, Model: spec.ModelName(mode), Scheduler: name, Options: opt,
	})
	if err != nil {
		return nil, err
	}
	return rep.Engine, nil
}

// simulate runs the named sim policy on an inline instance through the
// Spec front door and returns the simulator's result.
func simulate(policy string, in *repro.Instance, opt repro.SpecOptions) (*repro.SimResult, error) {
	rep, err := repro.Run(context.Background(), repro.Spec{Instance: in, Policy: policy, Options: opt})
	if err != nil {
		return nil, err
	}
	return rep.Sim, nil
}

// TestConformanceMatrix sweeps scheduler × topology × model through
// the engine and demands a clean oracle report for every cell.
func TestConformanceMatrix(t *testing.T) {
	for ti, spec := range conformanceTopos {
		spec := spec
		seed := stats.SubSeed(2026, uint64(ti))
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			in := conformanceInstance(t, spec, 3, seed)
			for _, name := range repro.Schedulers() {
				s, err := engine.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range conformanceModels {
					if !s.Supports(mode) {
						continue
					}
					name, mode := name, mode
					t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
						res, err := schedule(name, in, mode,
							repro.SpecOptions{MaxSlots: 12, Trials: 2, Seed: seed})
						if err != nil {
							t.Fatalf("%s on %s (%v): %v", name, spec, mode, err)
						}
						if rep := validate.Result(in, res); !rep.OK() {
							t.Fatalf("%s on %s (%v): %v", name, spec, mode, rep.Err())
						}
					})
				}
			}
		})
	}
}

// TestConformanceOnline sweeps sim policy × topology through the
// online simulator (single path, the model every ordering policy
// shares) and validates every event trace.
func TestConformanceOnline(t *testing.T) {
	for ti, spec := range conformanceTopos {
		spec := spec
		seed := stats.SubSeed(4052, uint64(ti))
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			in := conformanceInstance(t, spec, 3, seed)
			for _, pol := range repro.SimPolicies() {
				pol := pol
				t.Run(pol, func(t *testing.T) {
					// CheckEvery: 1 is the simulator's paranoid mode: on
					// top of the incremental per-event allocation check,
					// every event cross-verifies the indexed fast-path
					// state against a from-scratch rebuild.
					res, err := simulate(pol, in, repro.SpecOptions{
						Epoch: 2, MaxSlots: 12, Trials: 1, Seed: seed,
						CheckEvery: 1,
					})
					if err != nil {
						t.Fatalf("%s on %s: %v", pol, spec, err)
					}
					if rep := validate.SimResult(in, res, false); !rep.OK() {
						t.Fatalf("%s on %s: %v", pol, spec, rep.Err())
					}
				})
			}
		})
	}
}

// TestConformanceDeterministic re-runs one LP-pipeline cell and one
// online cell of the matrix and demands bit-identical outcomes — the
// in-process half of what CI's -count=2 checks across processes.
func TestConformanceDeterministic(t *testing.T) {
	in := conformanceInstance(t, "ring:n=6", 3, 7)
	run := func() (*repro.SchedulerResult, *repro.SimResult) {
		res, err := schedule("stretch", in, repro.SinglePath,
			repro.SpecOptions{MaxSlots: 12, Trials: 4, Seed: 7, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		sres, err := simulate("epoch:stretch", in, repro.SpecOptions{
			Epoch: 2, MaxSlots: 12, Trials: 1, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sres
	}
	a, sa := run()
	b, sb := run()
	if a.Weighted != b.Weighted || a.Total != b.Total {
		t.Fatalf("offline outcomes differ: %v/%v vs %v/%v", a.Weighted, a.Total, b.Weighted, b.Total)
	}
	if sa.WeightedCCT != sb.WeightedCCT || len(sa.Trace) != len(sb.Trace) {
		t.Fatalf("online outcomes differ: %v (%d events) vs %v (%d events)",
			sa.WeightedCCT, len(sa.Trace), sb.WeightedCCT, len(sb.Trace))
	}
	for i := range sa.Trace {
		if sa.Trace[i] != sb.Trace[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, sa.Trace[i], sb.Trace[i])
		}
	}
}

// TestConformanceOracleNotVacuous corrupts one matrix cell's output
// and demands the oracle reject it — guarding against the gate
// silently validating nothing.
func TestConformanceOracleNotVacuous(t *testing.T) {
	in := conformanceInstance(t, "big-switch:n=5", 3, 1)
	res, err := schedule("sincronia-greedy", in, repro.SinglePath,
		repro.SpecOptions{MaxSlots: 12})
	if err != nil {
		t.Fatal(err)
	}
	res.Completions[0] /= 100
	if rep := validate.Result(in, res); rep.OK() {
		t.Fatal("oracle accepted a corrupted completion time")
	}
	if err := repro.Validate(in, res); err == nil {
		t.Fatal("public Validate accepted a corrupted completion time")
	}
}
