package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// fbLP solves an FB instance of the given number of coflows on SWAN
// (seed 1) on a grid of at most 48 slots. With 8 coflows in the single
// path model it is the Figure-9 cell's first instance.
func fbLP(t *testing.T, mode coflow.Model, coflows int) *model.Solution {
	t.Helper()
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: graph.SWAN(1), NumCoflows: coflows, Seed: 1, AssignPaths: mode == coflow.SinglePath,
	})
	if err == nil && mode == coflow.MultiPath {
		err = in.AssignKShortestPaths(3)
	}
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveLP(context.Background(), in, mode, Options{Grid: DefaultGrid(in, mode, 48)})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestStretchTrialsMatchStretchOnce: every sample of StretchTrials has
// the λ, Weighted and Total of a StretchOnce at TrialLambda(seed, i);
// the best sample, the least Weighted at the lowest index, keeps a
// schedule bit-equal to StretchOnce's, and the others keep none. It
// runs k = 1 and 20 at one worker and at four in the three models,
// from four goroutines at once, which pass trial schedules between
// them through the free list.
func TestStretchTrialsMatchStretchOnce(t *testing.T) {
	var sols []*model.Solution
	for _, mode := range []coflow.Model{coflow.SinglePath, coflow.FreePath, coflow.MultiPath} {
		sols = append(sols, fbLP(t, mode, 6))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sol := range sols {
				for _, k := range []int{1, 20} {
					for _, workers := range []int{1, 4} {
						checkAgainstStretchOnce(t, sol, k, int64(1+g), workers)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// checkAgainstStretchOnce runs k trials and reports, with t.Error so
// that it may run off the test's goroutine, any sample that differs
// from StretchOnce at its λ.
func checkAgainstStretchOnce(t *testing.T, sol *model.Solution, k int, seed int64, workers int) {
	opt := Options{Seed: seed, Workers: workers}
	st, err := StretchTrials(context.Background(), sol, k, opt)
	if err != nil {
		t.Error(err)
		return
	}
	name := fmt.Sprintf("%v, k %d, seed %d, workers %d", sol.LP.Mode, k, seed, workers)
	best := 0
	for i, ev := range st.Samples {
		once, err := StretchOnce(sol, TrialLambda(seed, i), opt)
		if err != nil {
			t.Error(err)
			return
		}
		if !sameBits(ev.Lambda, once.Lambda) || !sameBits(ev.Weighted, once.Weighted) || !sameBits(ev.Total, once.Total) {
			t.Errorf("%s, trial %d: λ %v, weighted %v, total %v; StretchOnce gives %v, %v, %v",
				name, i, ev.Lambda, ev.Weighted, ev.Total, once.Lambda, once.Weighted, once.Total)
		}
		if ev.Weighted < st.Samples[best].Weighted {
			best = i
		}
	}
	for i, ev := range st.Samples {
		switch {
		case i != best && ev.Schedule != nil:
			t.Errorf("%s: trial %d is not the best (%d) but kept its schedule", name, i, best)
		case i == best:
			once, _ := StretchOnce(sol, ev.Lambda, opt)
			if ev.Schedule == nil || !sameSchedule(ev.Schedule, once.Schedule) {
				t.Errorf("%s: the best trial's schedule is not StretchOnce's", name)
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSchedule reports whether a and b have the same grid and bit-equal
// fractions and path rates.
func sameSchedule(a, b *schedule.Schedule) bool {
	floats := func(x, y []float64) bool { return slices.EqualFunc(x, y, sameBits) }
	rows := func(x, y [][]float64) bool { return slices.EqualFunc(x, y, floats) }
	return a.Grid.NumSlots() == b.Grid.NumSlots() && rows(a.Frac, b.Frac) &&
		slices.EqualFunc(a.Route, b.Route, rows) && (a.Route == nil) == (b.Route == nil)
}

// TestStretchTrialsAllocationGuard: 20 trials on the Figure-9 cell's
// LP reuse their schedules' arrays, so a call allocates about one
// schedule and each trial's small working arrays rather than 20
// schedules.
func TestStretchTrialsAllocationGuard(t *testing.T) {
	// No collection may age the trial schedules off the free list.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sol := fbLP(t, coflow.SinglePath, 8)
	run := func(seed int64) {
		if _, err := StretchTrials(context.Background(), sol, 20, Options{Seed: seed, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	const calls = 20
	for seed := int64(1); seed <= calls; seed++ {
		run(seed)
	}
	runtime.ReadMemStats(&ms)
	perCall := (ms.TotalAlloc - before) / calls
	t.Logf("%d bytes per call", perCall)
	if perCall > 256<<10 {
		t.Errorf("StretchTrials allocated %d bytes per call of 20 trials, want at most %d", perCall, 256<<10)
	}
}
