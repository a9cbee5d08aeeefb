package repro

// Benchmark harness: one benchmark per figure of the paper's
// evaluation (Figures 6–12) at the quick experiment scale, plus
// micro-benchmarks for the pipeline stages and ablations for the
// design choices called out in DESIGN.md (compaction on/off, grid
// resolution). Regenerating a figure at full scale is cmd/coflowsim's
// job; these benches track the cost of the pipeline end to end.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/schedule"
	"repro/internal/timegrid"
	"repro/internal/workload"
)

func benchFigure(b *testing.B, fn func(context.Context, experiments.Config) (*experiments.FigureResult, error)) {
	b.Helper()
	cfg := experiments.Small()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (free path, SWAN, weighted).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Figure6) }

// BenchmarkFigure7 regenerates Figure 7 (free path, G-Scale, weighted).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates Figure 8 (interval ε sweep).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates Figure 9 (single path, SWAN).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, experiments.Figure9) }

// BenchmarkFigure10 regenerates Figure 10 (single path, G-Scale).
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }

// BenchmarkFigure11 regenerates Figure 11 (free path vs Terra, SWAN).
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }

// BenchmarkFigure12 regenerates Figure 12 (free path vs Terra, G-Scale).
func BenchmarkFigure12(b *testing.B) { benchFigure(b, experiments.Figure12) }

func benchInstance(b *testing.B, paths bool, n int) *coflow.Instance {
	b.Helper()
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: NewSWAN(1), NumCoflows: n, Seed: 4,
		MeanInterarrival: 1, AssignPaths: paths,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkLPSinglePath measures the time-indexed single path LP
// build+solve alone.
func BenchmarkLPSinglePath(b *testing.B) {
	in := benchInstance(b, true, 8)
	opt := core.Options{Grid: core.DefaultGrid(in, coflow.SinglePath, 24)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveLP(context.Background(), in, coflow.SinglePath, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPFreePath measures the free path LP build+solve alone.
func BenchmarkLPFreePath(b *testing.B) {
	in := benchInstance(b, false, 4)
	opt := core.Options{Grid: core.DefaultGrid(in, coflow.FreePath, 20)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveLP(context.Background(), in, coflow.FreePath, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStretchRounding measures the Stretch transform + verify,
// excluding the LP solve.
func BenchmarkStretchRounding(b *testing.B) {
	in := benchInstance(b, true, 8)
	opt := core.Options{Grid: core.DefaultGrid(in, coflow.SinglePath, 24)}
	sol, err := core.SolveLP(context.Background(), in, coflow.SinglePath, opt)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.StretchOnce(sol, schedule.SampleLambda(rng), opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStretchTrialsParallel compares Stretch trial throughput at
// 1 worker vs GOMAXPROCS workers on a free-path SWAN instance. The
// trials are embarrassingly parallel, so the speedup tracks the core
// count; results are bit-identical either way (same seed).
func BenchmarkStretchTrialsParallel(b *testing.B) {
	in := benchInstance(b, false, 4)
	grid := core.DefaultGrid(in, coflow.FreePath, 24)
	sol, err := core.SolveLP(context.Background(), in, coflow.FreePath, core.Options{Grid: grid})
	if err != nil {
		b.Fatal(err)
	}
	const trials = 32
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
		b.Run(tc.name, func(b *testing.B) {
			opt := core.Options{Grid: grid, Seed: 7, Workers: tc.workers}
			for i := 0; i < b.N; i++ {
				if _, err := core.StretchTrials(context.Background(), sol, trials, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkAblationCompaction compares Stretch with and without the
// Section 6.1 idle-slot compaction.
func BenchmarkAblationCompaction(b *testing.B) {
	in := benchInstance(b, true, 8)
	grid := core.DefaultGrid(in, coflow.SinglePath, 24)
	sol, err := core.SolveLP(context.Background(), in, coflow.SinglePath, core.Options{Grid: grid})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"with", false}, {"without", true}} {
		b.Run(tc.name, func(b *testing.B) {
			opt := core.Options{Grid: grid, DisableCompaction: tc.disable}
			var obj float64
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < b.N; i++ {
				ev, err := core.StretchOnce(sol, 0.5+0.4*rng.Float64(), opt)
				if err != nil {
					b.Fatal(err)
				}
				obj += ev.Weighted
			}
			b.ReportMetric(obj/float64(b.N), "weighted-obj")
		})
	}
}

// BenchmarkAblationGridResolution quantifies the LP quality/cost
// trade-off of the slot length (the paper's "time index" discussion in
// Section 6.1).
func BenchmarkAblationGridResolution(b *testing.B) {
	in := benchInstance(b, true, 6)
	base := core.DefaultGrid(in, coflow.SinglePath, 48).NumSlots()
	for _, scale := range []struct {
		name  string
		slots int
	}{{"coarse", (base + 1) / 2}, {"default", base}, {"fine", base * 2}} {
		b.Run(scale.name, func(b *testing.B) {
			opt := core.Options{Grid: timegrid.Uniform(scale.slots)}
			var bound float64
			for i := 0; i < b.N; i++ {
				sol, err := core.SolveLP(context.Background(), in, coflow.SinglePath, opt)
				if err != nil {
					b.Fatal(err)
				}
				bound = sol.LowerBound
			}
			b.ReportMetric(bound, "lp-bound")
		})
	}
}

// BenchmarkAblationLambdaDistribution compares the paper's f(v)=2v λ
// sampler against a uniform sampler: the 2v density favors large λ
// (mild stretching), which is what makes the expectation bound tight.
// The reported metric is the average weighted objective.
func BenchmarkAblationLambdaDistribution(b *testing.B) {
	in := benchInstance(b, true, 8)
	grid := core.DefaultGrid(in, coflow.SinglePath, 24)
	sol, err := core.SolveLP(context.Background(), in, coflow.SinglePath, core.Options{Grid: grid})
	if err != nil {
		b.Fatal(err)
	}
	samplers := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"pdf2v", schedule.SampleLambda},
		{"uniform", func(r *rand.Rand) float64 { return 1e-3 + (1-1e-3)*r.Float64() }},
	}
	for _, sm := range samplers {
		b.Run(sm.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			opt := core.Options{Grid: grid}
			var obj float64
			for i := 0; i < b.N; i++ {
				ev, err := core.StretchOnce(sol, sm.draw(rng), opt)
				if err != nil {
					b.Fatal(err)
				}
				obj += ev.Weighted
			}
			b.ReportMetric(obj/float64(b.N), "weighted-obj")
		})
	}
}

// BenchmarkTerra measures the Terra baseline end to end.
func BenchmarkTerra(b *testing.B) {
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: NewSWAN(1), NumCoflows: 5, Seed: 4,
		MeanInterarrival: 1, WeightMin: 1, WeightMax: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.Terra(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJahanjou measures the Jahanjou et al. baseline end to end.
func BenchmarkJahanjou(b *testing.B) {
	in := benchInstance(b, true, 8)
	horizon := in.HorizonUpperBound(coflow.SinglePath) + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.Jahanjou(context.Background(), in, horizon, baselines.JahanjouEpsilon, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateFB tracks the online event loop's throughput
// (events/sec) on an FB workload with the LP-free online Sincronia
// policy, so regressions in the simulator's per-event work show up
// independently of LP solver cost. The n=2000 size is the cell the
// benchmark-regression harness (internal/bench) records in
// BENCH_sim.json.
func BenchmarkSimulateFB(b *testing.B) {
	for _, n := range []int{32, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in, err := workload.Generate(workload.Config{
				Kind: workload.FB, Graph: NewSWAN(1), NumCoflows: n, Seed: 6,
				MeanInterarrival: 0.5, AssignPaths: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			events := 0
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), Spec{Instance: in, Policy: "sincronia-online"})
				if err != nil {
					b.Fatal(err)
				}
				events += rep.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkFigureO1 regenerates the online load sweep.
func BenchmarkFigureO1(b *testing.B) { benchFigure(b, experiments.FigureO1) }
