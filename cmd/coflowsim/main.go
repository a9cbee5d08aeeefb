// Command coflowsim is the experiment driver: it regenerates the
// paper's figures, generates workload instances, schedules single
// instances with the Stretch pipeline or any engine scheduler, runs
// the online simulator, and drives the benchmark-regression harness.
//
// Usage:
//
//	coflowsim -spec spec.json            # run a declarative Spec (or SweepSpec, streamed as NDJSON)
//	coflowsim -spec preset:figure-t1     # run a named sweep preset
//	coflowsim -figure 9                  # regenerate Figure 9 (text table)
//	coflowsim -figure all -csv out/      # all figures (incl. O1, T1), CSV per figure
//	coflowsim -figure o1                 # online load sweep (internal/sim)
//	coflowsim -figure t1                 # topology sweep (internal/topo)
//	coflowsim -gen fb -coflows 20 -topology gscale -out inst.json
//	coflowsim -run inst.json -model free -trials 20
//	coflowsim -scheduler terra -model free -run inst.json
//	coflowsim -scheduler list            # names in the engine registry
//	coflowsim -scheduler stretch         # run one engine scheduler
//	coflowsim -scheduler all -model single -coflows 8
//	coflowsim -scheduler all -topo fat-tree:k=4 -validate
//	coflowsim -topo list                 # generator families (internal/topo)
//	coflowsim -online -policy list       # names in the sim policy registry
//	coflowsim -online -policy all -workload FB
//	coflowsim -online -policy epoch:stretch -epoch 2 -load 1.0
//	coflowsim -online -topo leaf-spine:leaves=4,spines=2,hosts=2 -validate
//	coflowsim -bench                     # benchmark-regression harness → BENCH_sim.json
//	coflowsim -bench -bench-tier 100k -bench-tol 0.25 -v
//	coflowsim -spec spec.json -stats     # telemetry snapshot as JSON on stderr
//
// The -spec, -run, -scheduler, and -online branches compile their
// flags down to the declarative Spec of internal/spec and execute
// through the unified Run/Sweep front door — the same engine behind
// the repro library API and the coflowd HTTP service — so the three
// entry points cannot drift. -spec takes the Spec JSON directly: a
// Run document prints one RunReport, a SweepSpec document streams one
// NDJSON cell per line as cells finish. Interrupts (SIGINT/SIGTERM)
// cancel cleanly between units of work.
//
// Scale flags (-coflows, -free-coflows, -slots, -trials, -seed,
// -workers) apply to figure regeneration; defaults are laptop-sized
// (see internal/experiments). -run alone runs the Stretch pipeline
// ("stretch") on the instance file in the -model transmission model
// (single or free) and prints its LP bound, λ=1 heuristic, and
// Stretch samples. -scheduler runs the named engine scheduler (or
// every compatible one with "all") on the -run instance if given,
// otherwise on a freshly generated workload. -online runs the
// discrete-event simulator instead: coflows are revealed at their
// release times and the -policy list is compared against a
// clairvoyant offline run; -load sets the arrival rate (coflows per
// slot) of the generated workload and -epoch the re-planning period.
//
// -topo selects a generated topology by spec ("fat-tree:k=4",
// "erdos-renyi:n=10,p=0.3,seed=7", …; -topo list prints the families)
// and overrides -topology; workload endpoints are then restricted to
// the topology's hosts. -validate replays every produced schedule or
// event trace through the independent oracle (internal/validate) and
// fails loudly on any invariant violation.
//
// -bench runs the benchmark-regression harness (internal/bench): the
// simulator policy × topology grid at the -bench-tier instance sizes,
// the BenchmarkSimulateFB cell, and scheduler/LP micro-benchmarks. The
// report is written to -bench-out (default BENCH_sim.json) and
// compared against -bench-baseline (default: the previous -bench-out
// content); a stable metric regressing beyond -bench-tol exits
// non-zero, while a missing baseline just records the first report.
//
// -stats attaches a telemetry registry (internal/obs) to whatever the
// invocation runs — -spec, -run, -scheduler, or -online — and prints
// the aggregated snapshot as indented JSON to stderr after the normal
// output. Results are bit-identical with or without it.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the
// selected action (most usefully -bench) for offline analysis with
// `go tool pprof`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"

	"repro/internal/coflow"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
	"repro/internal/validate"
	"repro/internal/workload"

	repro "repro"
)

func main() {
	var (
		specFile    = flag.String("spec", "", "run a Spec/SweepSpec JSON file (or preset:<name>)")
		figure      = flag.String("figure", "", "figure to regenerate: 6..12, o1, t1, or 'all'")
		csvDir      = flag.String("csv", "", "directory to write CSV outputs (with -figure)")
		coflows     = flag.Int("coflows", 0, "single path coflow count (0 = default)")
		freeCoflows = flag.Int("free-coflows", 0, "free path coflow count (0 = default)")
		slots       = flag.Int("slots", 0, "uniform grid slot cap (0 = default)")
		trials      = flag.Int("trials", 0, "λ samples per instance (0 = default 20)")
		seed        = flag.Int64("seed", 0, "base random seed (0 = default)")
		workers     = flag.Int("workers", 0, "worker pool size for trials and figure/sweep cells (0 = GOMAXPROCS)")
		small       = flag.Bool("small", false, "use the quick test-scale configuration")
		verbose     = flag.Bool("v", false, "log progress")

		scheduler = flag.String("scheduler", "", "engine scheduler to run: list|all|<name>[,<name>…]")

		online    = flag.Bool("online", false, "run the online discrete-event simulator")
		policy    = flag.String("policy", "all", "online policy for -online: list|all|<name>[,<name>…]")
		epoch     = flag.Float64("epoch", 0, "re-planning period in slots for epoch policies (0 = arrivals only)")
		load      = flag.Float64("load", 0, "coflow arrival rate in coflows/slot for -online (0 = default)")
		workloadF = flag.String("workload", "fb", "workload for -online: bigbench|tpcds|tpch|fb")

		gen      = flag.String("gen", "", "generate a workload: bigbench|tpcds|tpch|fb")
		topology = flag.String("topology", "swan", "topology for generated workloads: swan|gscale|<topo spec>")
		topoF    = flag.String("topo", "", "generator topology spec (overrides -topology): list|<family>[:k=v,…]")
		validF   = flag.Bool("validate", false, "replay results through the internal/validate oracle")
		outFile  = flag.String("out", "", "output file for -gen (default stdout)")
		paths    = flag.Bool("paths", true, "assign random shortest paths when generating")

		runFile   = flag.String("run", "", "schedule an instance JSON file")
		modelFlag = flag.String("model", "free", "transmission model for -run: single|free")

		benchF        = flag.Bool("bench", false, "run the benchmark-regression harness (internal/bench)")
		benchTier     = flag.String("bench-tier", "1k", "largest simulated instance size for -bench: 1k|10k|100k")
		benchOut      = flag.String("bench-out", "BENCH_sim.json", "output report path for -bench")
		benchBaseline = flag.String("bench-baseline", "", "baseline report to compare against (default: the -bench-out file's previous content)")
		benchTol      = flag.Float64("bench-tol", 0.25, "relative regression tolerance for -bench (events/sec drop, allocs/op growth)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")

		statsF = flag.Bool("stats", false, "print the run's telemetry registry as JSON to stderr at exit (-spec, -run, -scheduler, -online)")
	)
	flag.Parse()

	stop0, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop0
	defer stopProfiles()

	// Interrupts cancel the run between units of work (figure cells,
	// sweep cells, Stretch trials, benchmark cells).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -topo overrides -topology everywhere a workload is generated.
	topoSpec := *topology
	if *topoF != "" {
		topoSpec = *topoF
	}

	// -stats accumulates every run's internal counters (simplex pivots,
	// sim events, per-stage timings) into one registry, dumped as JSON
	// to stderr after the selected action finishes. Recording is
	// observational only: results are identical with or without it.
	var statsReg *repro.Telemetry
	if *statsF {
		statsReg = repro.NewTelemetry()
	}

	switch {
	case *topoF == "list":
		for _, name := range topo.Families() {
			fmt.Println(name)
		}
	case *specFile != "":
		if err := runSpec(ctx, *specFile, *workers, statsReg); err != nil {
			fatal(err)
		}
	case *benchF:
		if err := runBench(ctx, *benchTier, *benchOut, *benchBaseline, *benchTol, *seed, *verbose); err != nil {
			fatal(err)
		}
	case *online:
		// The simulator runs in the single path model; reject an
		// explicit conflicting -model instead of silently ignoring it.
		modelSet := false
		flag.Visit(func(f *flag.Flag) { modelSet = modelSet || f.Name == "model" })
		if modelSet && strings.ToLower(*modelFlag) != "single" {
			fatal(fmt.Errorf("-online simulates the single path model; -model %s is not supported", *modelFlag))
		}
		err := runOnline(ctx, onlineArgs{
			spec: *policy, runFile: *runFile, kind: *workloadF, topology: topoSpec,
			coflows: *coflows, epoch: *epoch, load: *load,
			slots: *slots, trials: *trials, seed: *seed, workers: *workers,
			validate: *validF, obs: statsReg,
		})
		if err != nil {
			fatal(err)
		}
	case *scheduler != "":
		err := runSchedulers(ctx, schedulerArgs{
			spec: *scheduler, runFile: *runFile, modelStr: *modelFlag,
			genKind: *gen, topology: topoSpec, coflows: *coflows,
			slots: *slots, trials: *trials, seed: *seed, workers: *workers,
			validate: *validF, obs: statsReg,
		})
		if err != nil {
			fatal(err)
		}
	case *figure != "":
		cfg := experiments.Default()
		if *small {
			cfg = experiments.Small()
		}
		if *coflows > 0 {
			cfg.SingleCoflows = *coflows
		}
		if *freeCoflows > 0 {
			cfg.FreeCoflows = *freeCoflows
		}
		if *slots > 0 {
			cfg.MaxSlots = *slots
		}
		if *trials > 0 {
			cfg.Trials = *trials
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		cfg.Workers = *workers
		if *verbose {
			cfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		if err := runFigures(ctx, *figure, cfg, *csvDir); err != nil {
			fatal(err)
		}
	case *gen != "":
		if err := generate(*gen, topoSpec, *coflows, *seed, *paths, *outFile); err != nil {
			fatal(err)
		}
	case *runFile != "":
		if err := runInstance(ctx, *runFile, *modelFlag, *trials, *seed, *slots, *workers, *validF, statsReg); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if statsReg != nil {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(statsReg.Snapshot()); err != nil {
			fatal(fmt.Errorf("-stats: %w", err))
		}
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "coflowsim:", err)
	os.Exit(1)
}

// stopProfiles flushes any active profiles; fatal calls it because
// os.Exit skips deferred calls.
var stopProfiles = func() {}

// startProfiles turns on CPU profiling and arranges a heap snapshot
// at shutdown. The returned stop function is idempotent, so it is
// safe to both defer it and call it from fatal.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuF = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "coflowsim: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "coflowsim: -memprofile:", err)
			}
		}
	}, nil
}

// runSpec executes a declarative Spec or SweepSpec JSON document (or
// a "preset:<name>" sweep). A single Spec prints one indented
// RunReport; a sweep streams one compact NDJSON cell per line as
// cells finish, so a 100k-cell grid can be piped without buffering.
// The report JSON is identical to what coflowd's POST /v1/run returns
// for the same document.
func runSpec(ctx context.Context, arg string, workers int, reg *repro.Telemetry) error {
	var single *repro.Spec
	var sweep *repro.SweepSpec
	if name, ok := strings.CutPrefix(arg, "preset:"); ok {
		sw, err := repro.SweepPreset(name)
		if err != nil {
			return err
		}
		sweep = &sw
	} else {
		data, err := os.ReadFile(arg)
		if err != nil {
			return err
		}
		if single, sweep, err = repro.ParseSpec(data); err != nil {
			return err
		}
	}
	if single != nil {
		if workers != 0 && single.Options.Workers == 0 {
			single.Options.Workers = workers
		}
		rep, err := repro.RunWith(ctx, *single, reg)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	if workers != 0 && sweep.Workers == 0 {
		sweep.Workers = workers
	}
	n, at, err := sweep.Cells()
	if err != nil {
		return err
	}
	cells := spec.StreamWith(ctx, n, sweep.Workers, at,
		func(ctx context.Context, i int, s spec.Spec) *spec.Cell {
			return spec.RunCellWith(ctx, i, s, reg)
		})
	fmt.Fprintf(os.Stderr, "sweep: %d cells\n", n)
	enc := json.NewEncoder(os.Stdout)
	failed := 0
	for _, cell := range cells {
		if cell.Err != nil {
			failed++
		}
		if err := enc.Encode(cell); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("sweep: %d of %d cells failed", failed, n)
	}
	return nil
}

// runBench drives the benchmark-regression harness: load the baseline
// (the explicit -bench-baseline, else whatever -bench-out held from a
// previous run; a missing file just means no comparison), run the
// suite at the requested tier, write the fresh report, and fail with a
// non-zero exit when any stable metric regressed beyond the tolerance.
func runBench(ctx context.Context, tier, out, baseline string, tol float64, seed int64, verbose bool) error {
	if baseline == "" {
		baseline = out
	}
	var prev *repro.BenchReport
	if p, err := repro.LoadBenchReport(baseline); err == nil {
		prev = p
		fmt.Fprintf(os.Stderr, "bench: comparing against baseline %s\n", baseline)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("baseline %s: %w", baseline, err)
	} else {
		fmt.Fprintf(os.Stderr, "bench: no baseline at %s, first run records one\n", baseline)
	}
	cfg := repro.BenchConfig{Tier: tier, Seed: seed}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep, err := repro.RunBenchmarksContext(ctx, cfg)
	if err != nil {
		return err
	}
	// Compare before writing: with the default baseline == out, writing
	// first would clobber the very baseline a failing run regressed
	// against, making the regression unreproducible. On a failure the
	// fresh report goes to <out>.rejected instead and the baseline
	// survives for the re-run.
	regs := repro.CompareBenchmarks(prev, rep, tol)
	dest := out
	if len(regs) > 0 && baseline == out {
		dest = out + ".rejected"
	}
	if err := rep.WriteFile(dest); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", dest)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tns/op\tallocs/op\tevents/sec")
	for _, r := range rep.Results {
		ev := "-"
		if r.EventsPerSec > 0 {
			ev = fmt.Sprintf("%.0f", r.EventsPerSec)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\n", r.Name, r.NsPerOp, r.AllocsPerOp, ev)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if prev == nil {
		return nil
	}
	if len(regs) == 0 {
		fmt.Printf("bench: no regressions beyond %.0f%% vs %s\n", tol*100, baseline)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "bench: REGRESSION", r)
	}
	return fmt.Errorf("%d benchmark regression(s) beyond %.0f%% vs %s; a baseline measured on other hardware "+
		"rejects a slower machine, so to regenerate it run -bench -bench-out <file> on a checkout of the parent commit "+
		"on this machine, then -bench -bench-baseline <file> -bench-out %s here", len(regs), tol*100, baseline, out)
}

func runFigures(ctx context.Context, figSpec string, cfg experiments.Config, csvDir string) error {
	type figure struct {
		name string
		fn   func(context.Context, experiments.Config) (*experiments.FigureResult, error)
	}
	var figs []figure
	switch {
	case figSpec == "all":
		var nums []int
		for n := range experiments.Figures {
			nums = append(nums, n)
		}
		sort.Ints(nums)
		for _, n := range nums {
			figs = append(figs, figure{strconv.Itoa(n), experiments.Figures[n]})
		}
		figs = append(figs, figure{"O1", experiments.FigureO1}, figure{"T1", experiments.FigureT1})
	case strings.EqualFold(figSpec, "o1"):
		figs = []figure{{"O1", experiments.FigureO1}}
	case strings.EqualFold(figSpec, "t1"):
		figs = []figure{{"T1", experiments.FigureT1}}
	default:
		n, err := strconv.Atoi(figSpec)
		if err != nil || experiments.Figures[n] == nil {
			return fmt.Errorf("unknown figure %q (have 6..12, o1, t1)", figSpec)
		}
		figs = []figure{{figSpec, experiments.Figures[n]}}
	}
	for _, fig := range figs {
		res, err := fig.fn(ctx, cfg)
		if err != nil {
			return fmt.Errorf("figure %s: %w", fig.name, err)
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(csvDir, fmt.Sprintf("figure%s.csv", fig.name))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := res.RenderCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}

func generate(kindStr, topoStr string, coflows int, seed int64, paths bool, out string) error {
	kind, err := spec.ParseKind(kindStr)
	if err != nil {
		return err
	}
	top, err := spec.ParseTopology(topoStr)
	if err != nil {
		return err
	}
	if coflows <= 0 {
		coflows = 10
	}
	in, err := workload.Generate(workload.Config{
		Kind: kind, Graph: top.Graph, NumCoflows: coflows, Seed: seed,
		MeanInterarrival: 1.5, AssignPaths: paths, Endpoints: top.Endpoints,
	})
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return in.WriteJSON(w)
}

// schedulerArgs bundles the flag values the -scheduler branch needs.
type schedulerArgs struct {
	spec, runFile, modelStr, genKind, topology string
	coflows, slots, trials, workers            int
	seed                                       int64
	validate                                   bool
	obs                                        *repro.Telemetry
}

// compileWorkload translates the generation-related flags into the
// Spec fields shared by the -scheduler and -online branches: the -run
// file when given, otherwise a generated workload (kind defaults to
// fb, coflow count to 8) with Poisson releases at the given mean
// interarrival, restricted to the topology's endpoints.
func compileWorkload(runFile, kindStr, topoStr string, coflows int, seed int64, interarrival float64) (string, *repro.SpecWorkload) {
	if runFile != "" {
		return "", &repro.SpecWorkload{File: runFile}
	}
	if kindStr == "" {
		kindStr = "fb"
	}
	if coflows <= 0 {
		coflows = 8
	}
	return topoStr, &repro.SpecWorkload{
		Kind:             strings.ToLower(kindStr),
		Coflows:          coflows,
		Seed:             seed,
		MeanInterarrival: interarrival,
	}
}

// runSchedulers compiles the -scheduler flags down to one Spec per
// requested engine scheduler and executes them through the unified
// Run front door, tabulating the reports.
func runSchedulers(ctx context.Context, a schedulerArgs) error {
	if a.spec == "list" {
		for _, name := range spec.SchedulerNames() {
			fmt.Println(name)
		}
		return nil
	}
	mode, err := spec.ParseModel(a.modelStr)
	if err != nil {
		return err
	}
	// Validate every requested name up front, so a typo fails with the
	// registry listing before any instance is generated or scheduled.
	names, err := spec.ResolveSchedulers(a.spec, mode)
	if err != nil {
		return err
	}
	topology, wl := compileWorkload(a.runFile, a.genKind, a.topology, a.coflows, a.seed, 1.5)
	// Materialize the instance once and share it across schedulers —
	// the table compares algorithms on the same problem, and a -run
	// file is read a single time.
	in, err := repro.Spec{
		Topology: topology, Workload: wl, Model: a.modelStr, Scheduler: names[0],
	}.Materialize()
	if err != nil {
		return err
	}
	reports := make([]*repro.RunReport, 0, len(names))
	for _, name := range names {
		rep, err := repro.RunWith(ctx, repro.Spec{
			Instance:  in,
			Model:     a.modelStr,
			Scheduler: name,
			Options: repro.SpecOptions{
				MaxSlots: a.slots, Trials: a.trials, Seed: a.seed, Workers: a.workers,
			},
			Validate: a.validate,
		}, a.obs)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	fmt.Printf("model: %v, coflows: %d (%d flows)\n\n", mode, reports[0].Coflows, reports[0].Flows)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := "scheduler\tweighted ΣwC\ttotal ΣC\tLP bound"
	if a.validate {
		header += "\tvalidate"
	}
	fmt.Fprintln(tw, header)
	for _, rep := range reports {
		bound := "-"
		if rep.HasLowerBound {
			bound = fmt.Sprintf("%.3f", rep.LowerBound)
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%s", rep.Scheduler, rep.Weighted, rep.Total, bound)
		if a.validate {
			fmt.Fprint(tw, "\tok")
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// onlineArgs bundles the flag values the -online branch needs.
type onlineArgs struct {
	spec, runFile, kind, topology   string
	coflows, slots, trials, workers int
	epoch, load                     float64
	seed                            int64
	validate                        bool
	obs                             *repro.Telemetry
}

// runOnline drives the discrete-event simulator: it compares every
// requested policy on one instance (the -run file when given,
// otherwise a Poisson-release workload at the -load arrival rate)
// against the clairvoyant offline Stretch pipeline. The flags compile
// to a Spec whose Materialize builds the shared instance, and every row
// of the table runs as a spec cell on it with -validate as
// Spec.Validate and -stats as the registry, so the -online branch
// cannot drift from what -spec runs.
func runOnline(ctx context.Context, a onlineArgs) error {
	if a.spec == "list" {
		for _, name := range sim.Names() {
			fmt.Println(name)
		}
		return nil
	}
	names, err := spec.ResolvePolicies(a.spec)
	if err != nil {
		return err
	}
	interarrival := 1.5
	if a.load > 0 {
		interarrival = 1 / a.load
	}
	topology, wl := compileWorkload(a.runFile, a.kind, a.topology, a.coflows, a.seed, interarrival)
	in, err := repro.Spec{Topology: topology, Workload: wl, Policy: names[0]}.Materialize()
	if err != nil {
		return err
	}
	res, err := experiments.OnlineComparison(ctx, spec.Spec{
		Instance: in,
		Options: spec.Options{
			Epoch: a.epoch, MaxSlots: a.slots, Trials: a.trials,
			Seed: a.seed, Workers: a.workers,
		},
		Validate: a.validate,
	}, names, "stretch", a.obs)
	if err != nil {
		return err
	}
	if a.validate {
		fmt.Println("validate: every event trace passed the oracle")
	}
	return res.Render(os.Stdout)
}

// runInstance runs the Stretch pipeline on the instance file at path
// through the Spec front door, recording telemetry into reg, and
// prints the LP bound, the λ=1 heuristic, and the Stretch samples.
// -validate replays the heuristic schedule through the oracle.
func runInstance(ctx context.Context, path, modelStr string, trials int, seed int64, slots, workers int, validateF bool, reg *repro.Telemetry) error {
	mode, err := spec.ParseModel(modelStr)
	if err != nil {
		return err
	}
	if mode == coflow.MultiPath {
		return fmt.Errorf("-run supports single|free (use -scheduler for multi)")
	}
	rep, err := repro.RunWith(ctx, repro.Spec{
		Workload:  &repro.SpecWorkload{File: path},
		Model:     modelStr,
		Scheduler: "stretch",
		Options:   repro.SpecOptions{MaxSlots: slots, Trials: trials, Seed: seed, Workers: workers},
	}, reg)
	if err != nil {
		return err
	}
	res := rep.Engine.Core
	fmt.Printf("model:               %v\n", mode)
	fmt.Printf("coflows:             %d (%d flows)\n", rep.Coflows, rep.Flows)
	fmt.Printf("LP lower bound:      %.3f\n", res.LowerBound)
	fmt.Printf("heuristic (λ=1.0):   %.3f\n", res.Heuristic.Weighted)
	if res.Stretch != nil {
		fmt.Printf("best λ:              %.3f (λ=%.3f)\n", res.Stretch.BestWeighted, res.Stretch.BestLambda)
		fmt.Printf("average λ:           %.3f (%d samples)\n", res.Stretch.AvgWeighted, len(res.Stretch.Samples))
	}
	fmt.Printf("simplex iterations:  %d\n", res.Iterations)
	if validateF {
		if rep, _ := validate.Schedule(res.Heuristic.Schedule); !rep.OK() {
			return fmt.Errorf("heuristic schedule failed validation: %w", rep.Err())
		}
		fmt.Println("validate:            ok (heuristic schedule replayed)")
	}
	return nil
}
