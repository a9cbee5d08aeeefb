package repro

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/spec"
)

// This file is the equivalence guard of the Spec front door: one Run
// call must produce bit-identical results to a direct call of the
// internal package it dispatches to, on the same seeded instance and
// at any worker count. The references below call internal/core,
// internal/engine, and internal/sim directly, so a drift in defaults,
// seeds, or dispatch shows up as a float mismatch here before
// anywhere else.

// legacyPipeline is the Stretch pipeline called directly: core.Run on
// DefaultGrid with the historical option normalization (0 → 48 slots
// / 20 trials, negative trials disable).
func legacyPipeline(inst *Instance, mode coflow.Model, opt SpecOptions) (*Result, error) {
	if opt.MaxSlots == 0 {
		opt.MaxSlots = 48
	}
	if opt.Trials == 0 {
		opt.Trials = 20
	}
	if opt.Trials < 0 {
		opt.Trials = 0
	}
	return core.Run(context.Background(), inst, mode, core.Options{
		Grid:              core.DefaultGrid(inst, mode, opt.MaxSlots),
		DisableCompaction: opt.DisableCompaction,
		Trials:            opt.Trials,
		Seed:              opt.Seed,
		Workers:           opt.Workers,
	})
}

func pipelineInstance(t *testing.T, mode coflow.Model, seed int64) *Instance {
	t.Helper()
	in, err := GenerateWorkload(WorkloadConfig{
		Kind: FB, Graph: NewSWAN(1), NumCoflows: 4, Seed: seed,
		MeanInterarrival: 1, AssignPaths: mode == SinglePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mode == MultiPath {
		if err := in.AssignKShortestPaths(3); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// TestRunMatchesLegacyPipelineFacades: the "stretch" scheduler
// through Run reproduces the direct core.Run pipeline bit for bit, in
// all three models and at several worker counts.
func TestRunMatchesLegacyPipelineFacades(t *testing.T) {
	cases := []struct {
		name string
		mode coflow.Model
	}{
		{"single", SinglePath},
		{"free", FreePath},
		{"multi", MultiPath},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opt := SpecOptions{MaxSlots: 24, Trials: 3, Seed: 7, Workers: workers}
				want, err := legacyPipeline(pipelineInstance(t, tc.mode, 11), tc.mode, opt)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Run(context.Background(), Spec{
					Instance:  pipelineInstance(t, tc.mode, 11),
					Model:     tc.name,
					Scheduler: "stretch",
					Options:   opt,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, rep.Engine.Core) {
					t.Fatalf("Run drifted from the legacy pipeline:\nlegacy: %+v\nrun:    %+v", want, rep.Engine.Core)
				}
			})
		}
	}
}

// TestRunMatchesLegacyScheduleWith: every registered scheduler through
// Run equals a direct engine.Schedule call on the same instance.
func TestRunMatchesLegacyScheduleWith(t *testing.T) {
	for _, mode := range []coflow.Model{SinglePath, FreePath} {
		in := pipelineInstance(t, mode, 23)
		for _, name := range engine.NamesSupporting(mode) {
			t.Run(fmt.Sprintf("%v/%s", mode, name), func(t *testing.T) {
				opt := SpecOptions{MaxSlots: 20, Trials: 2, Seed: 3}
				want, err := engine.Schedule(context.Background(), name, in, mode, engine.Options{
					MaxSlots: opt.MaxSlots, Trials: opt.Trials, Seed: opt.Seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Run(context.Background(), Spec{
					Instance:  in,
					Model:     spec.ModelName(mode),
					Scheduler: name,
					Options:   opt,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, rep.Engine) {
					t.Fatalf("Run drifted:\nlegacy: %+v\nrun:    %+v", want, rep.Engine)
				}
			})
		}
	}
}

// TestRunMatchesLegacySimulate: every sim policy through Run equals a
// direct sim.Simulate call — event trace included.
func TestRunMatchesLegacySimulate(t *testing.T) {
	in := pipelineInstance(t, SinglePath, 31)
	for _, policy := range sim.Names() {
		t.Run(policy, func(t *testing.T) {
			opt := sim.Options{Policy: policy, Epoch: 2, MaxSlots: 20, Trials: 1, Seed: 5}
			want, err := sim.Simulate(context.Background(), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), Spec{
				Instance: in,
				Policy:   policy,
				Options:  SpecOptions{Epoch: 2, MaxSlots: 20, Trials: 1, Seed: 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, rep.Sim) {
				t.Fatalf("Run drifted:\nlegacy: %+v\nrun:    %+v", want, rep.Sim)
			}
		})
	}
}

// TestSweepCellsMatchIndividualRuns: a sweep's streamed cells are the
// same reports one-off Run calls produce for the same cell specs, at
// any worker count.
func TestSweepCellsMatchIndividualRuns(t *testing.T) {
	sw := SweepSpec{
		Base:       Spec{Workload: &SpecWorkload{Coflows: 3}, Options: SpecOptions{MaxSlots: 16, Trials: 1}},
		Schedulers: []string{"sincronia-greedy", "heuristic"},
		Policies:   []string{"fifo", "las"},
		Topologies: []string{"swan", "line:n=4"},
		Seeds:      []int64{1, 2},
	}
	for _, workers := range []int{1, 4} {
		sw.Workers = workers
		n, cells, err := Sweep(context.Background(), sw)
		if err != nil {
			t.Fatal(err)
		}
		// topologies × seeds × (schedulers + policies)
		if n != 2*2*4 {
			t.Fatalf("count = %d", n)
		}
		got := 0
		for i, cell := range cells {
			if cell.Err != nil {
				t.Fatalf("cell %d: %v", i, cell.Err)
			}
			got++
			solo, err := Run(context.Background(), cell.Spec)
			if err != nil {
				t.Fatalf("cell %d solo: %v", i, err)
			}
			if !reflect.DeepEqual(solo, cell.Report) {
				t.Fatalf("cell %d (workers=%d) differs from its one-off Run:\nsweep: %+v\nsolo:  %+v",
					i, workers, cell.Report, solo)
			}
		}
		if got != n {
			t.Fatalf("streamed %d of %d cells", got, n)
		}
	}
}

// TestRunCancellation: a cancelled context aborts Run before work
// starts.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Spec{Scheduler: "stretch"}); err != context.Canceled {
		t.Fatalf("cancelled Run returned %v", err)
	}
}
