package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/spec"
)

// setupProbes is how many times a run starts its program to time
// set-up; setup_s is the median. Each probe is a fresh process, since
// one process's set-up can run a third slower than another's.
const setupProbes = 15

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run in this process; empty runs every workload, each in fresh child processes, untraced then traced")
		seed     = flag.Int64("seed", 1, "seed for the algorithms' randomness, the op order and the service's request mix")
		seconds  = flag.Float64("seconds", 20, "measure at least this long (library workloads finish their last round)")
		trace    = flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the run's spans to this JSON file")
		sets     = flag.Int("sets", 1, "with no -workload, repeat the whole benchmark this many times and check the sets agree")
		coflowd  = flag.String("coflowd", "", "coflowd binary for the service workload (default: coflowd beside this binary)")
		probe    = flag.Bool("setup-probe", false, "internal: do the workload's set-up, print ready and exit")
		opsOut   = flag.Bool("ops", false, "internal: print every op's record on a line starting with \"ops \"")
	)
	flag.Parse()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coflowbench:", err)
		return 1
	}
	if *coflowd == "" {
		*coflowd = filepath.Join(filepath.Dir(self), "coflowd")
	}
	if *name == "" && !*probe {
		return orchestrate(self, *seed, *seconds, *sets, *coflowd)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coflowbench:", err)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *probe {
		return setUpProbe(w, *seed, dur, *coflowd)
	}
	r, err := measure(context.Background(), self, w, *seed, dur, *trace == 1, *coflowd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coflowbench:", err)
		return 1
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, r.spans); err != nil {
			fmt.Fprintln(os.Stderr, "coflowbench:", err)
			return 1
		}
	}
	res := r.result(*trace == 1)
	r.print(os.Stdout, *seed, *trace == 1, res)
	if *opsOut {
		b, err := json.Marshal(r.ops)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coflowbench:", err)
			return 1
		}
		fmt.Printf("ops %s\n", b)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coflowbench:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// librarySetUp is what a library run does before its clock starts: it
// generates every distinct instance the workload cycles through.
// spec.Run generates each again inside its op, so this does not shorten
// the ops; it is the input generation a run must afford, timed apart
// from them. A spec that fails here fails again as its op, where it is
// counted.
func librarySetUp(w *workload, seed int64) {
	seen := map[string]bool{}
	for r := 0; r < w.Corpus; r++ {
		for _, o := range w.round(w, seed, r) {
			key := specJSON(spec.Spec{Topology: o.Spec.Topology, Workload: o.Spec.Workload, Policy: "fifo"})
			if !seen[key] {
				seen[key] = true
				o.Spec.Materialize() // Materialize normalizes first
			}
		}
	}
}

// setUpProbe does the workload's set-up in this fresh process, prints
// ready and exits; the parent times it from start to ready.
func setUpProbe(w *workload, seed int64, dur time.Duration, coflowd string) int {
	if !w.Service {
		librarySetUp(w, seed)
	} else {
		_, d, err := serviceSetUp(w, seed, dur, coflowd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coflowbench:", err)
			return 1
		}
		defer d.stop()
	}
	fmt.Println("ready")
	return 0
}

// measure runs the workload for a window of dur. An untraced run also
// times set-up, by starting this program through the set-up to the
// point where it would issue its first op, setupProbes times spread
// over the window.
func measure(ctx context.Context, self string, w *workload, seed int64, dur time.Duration, traced bool, coflowd string) (*run, error) {
	var p *prober
	if !traced {
		p = &prober{every: dur / setupProbes, probe: func() (float64, error) {
			return probeSetup(self, w.Name, seed, dur, coflowd)
		}}
	}
	var r *run
	var err error
	if w.Service {
		r, err = runService(ctx, w, seed, dur, traced, coflowd, p)
	} else {
		librarySetUp(w, seed)
		r, err = runLibrary(ctx, w, seed, dur, traced, p)
	}
	if err != nil {
		return nil, err
	}
	if p != nil {
		r.setup = p.samples
	}
	return r, nil
}

// prober spreads a run's set-up samples over its window: load on a
// shared host shifts set-up times by a fifth for seconds at a time, so
// samples taken in one burst would all see the same moment. The run
// calls tick between ops with its window so far; tick takes one sample
// for each interval of every that has begun, up to setupProbes in all,
// and the run leaves the time that takes out of its window.
type prober struct {
	probe   func() (float64, error)
	every   time.Duration
	next    time.Duration // window at which the next sample is due
	samples []float64
}

// tick takes the samples due at window and returns the window at which
// the next one is due; a nil prober takes none.
func (p *prober) tick(window time.Duration) (time.Duration, error) {
	if p == nil {
		return math.MaxInt64, nil
	}
	for ; p.next <= window && len(p.samples) < setupProbes; p.next += p.every {
		s, err := p.probe()
		if err != nil {
			return 0, err
		}
		p.samples = append(p.samples, s)
	}
	if len(p.samples) == setupProbes {
		return math.MaxInt64, nil
	}
	return p.next, nil
}

// probeSetup starts this program as a set-up probe and returns the
// seconds until it reports ready.
func probeSetup(self, name string, seed int64, dur time.Duration, coflowd string) (float64, error) {
	cmd := exec.Command(self, "-setup-probe", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(dur.Seconds(), 'g', -1, 64), "-coflowd", coflowd)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q (%v)", line, readErr)
	}
	return d, nil
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// result is the run's result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *run) result(traced bool) result {
	res := result{Correct: len(r.problems) == 0, Attempted: len(r.ops), Metrics: map[string]value{}}
	for _, o := range r.ops {
		if o.Err != "" {
			res.Failed++
		}
	}
	defs, vals := endToEnd, r.endToEndValues()
	if traced {
		defs, vals = perLayer, r.perLayerValues()
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // nothing to measure it on, e.g. every op failed
		}
		res.Metrics[d.Name] = value{v, d.Unit}
	}
	return res
}

func (r *run) endToEndValues() map[string]float64 {
	var times, rates []float64
	classRatios := map[string][]float64{}
	for _, o := range r.ops {
		times = append(times, o.Ms)
		if o.Err == "" {
			rates = append(rates, float64(o.Coflows)/(o.Ms/1e3))
			if o.Class != "repeat" {
				classRatios[o.Class] = append(classRatios[o.Class], o.Ratio)
			}
		}
	}
	// ratio_vs_lb weighs every class alike, so a service run that drew a
	// few more stretch requests than another does not read as a change
	// in schedule quality.
	var ratios []float64
	for _, class := range slices.Sorted(maps.Keys(classRatios)) {
		ratios = append(ratios, mean(classRatios[class]))
	}
	n := float64(len(r.ops))
	return map[string]float64{
		"setup_s":         median(r.setup),
		"ops_per_s":       n / r.window.Seconds(),
		"op_p50_ms":       percentile(times, 50),
		"op_tail_ms":      percentile(times, r.w.Tail),
		"coflows_per_s":   geomean(rates),
		"alloc_mb_per_op": float64(r.allocBytes) / n / (1 << 20),
		"peak_rss_mb":     r.peakRSS,
		"ratio_vs_lb":     mean(ratios),
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (r *run) perLayerValues() map[string]float64 {
	n := float64(len(r.ops))
	lt := func(name string) layerTime {
		if l := r.layers[name]; l != nil {
			return *l
		}
		return layerTime{}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{}
	for name, l := range r.layers {
		v[name+"_ms"] = l.Busy / n // a span's name is its layer metric's
	}
	for name, x := range r.work {
		v[name] = x / n
	}
	w := r.work
	simulate, allocate, op := lt("sim.simulate"), lt("sim.allocate"), lt("op")
	v["engine.schedules"] = float64(lt("engine.schedule").Calls) / n
	v["simplex.devex_pass_ratio"] = ratio(w["simplex.devex_passed"], w["simplex.devex_tested"])
	v["simplex.warm_accept_ratio"] = ratio(w["simplex.warm_accepted"], w["simplex.warm_attempts"])
	v["sim.loop_self_ms"] = simulate.Self / n
	v["sim.adapter_self_ms"] = allocate.Self / n
	v["sim.allocate_share"] = ratio(allocate.Busy, simulate.Busy)
	v["sim.las_splice_mean"] = ratio(w["sim.las_splice_sum"], w["sim.las_splice_count"])
	v["sim.fair_freeze_rounds_mean"] = ratio(w["sim.fair_freeze_sum"], w["sim.fair_freeze_count"])
	v["encode.report_bytes"] = float64(r.bytes) / n
	v["trace.op_ms"] = op.Busy / n
	v["trace.overhead_ms"] = (op.Busy - r.frontMs) / n
	v["trace.attributed_share"] = ratio(op.Busy-op.Self, op.Busy)
	for k, x := range r.httpLayer {
		v[k] = x
	}
	return v
}

// print writes the run's human-readable report.
func (r *run) print(out io.Writer, seed int64, traced bool, res result) {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(out, "%s seed %d (%s): %d ops in %.2f s, %d failed (fail_ratio %.4g)\n",
		r.w.Name, seed, kind, res.Attempted, r.window.Seconds(), res.Failed, float64(res.Failed)/float64(res.Attempted))
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		note := ""
		switch d.Name {
		case "setup_s":
			note = fmt.Sprintf("median of %d starts", len(r.setup))
		case "op_tail_ms":
			note = fmt.Sprintf("p%g of %d", r.w.Tail, len(r.ops))
			if r.w.Tail == 100 {
				note = fmt.Sprintf("max of %d", len(r.ops))
			} else if float64(len(r.ops))*(100-r.w.Tail)/100 < 10 {
				note += ", fewer than 10 beyond it"
			}
		}
		fmt.Fprintf(out, "  %-28s %14.6g %-9s %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit, note)
	}
	if traced && r.layers["op"] != nil {
		r.printLayers(out)
	}
	shown := 0
	for _, o := range r.ops {
		if o.Err != "" && shown < 10 {
			fmt.Fprintf(out, "  failed op %d: %s\n    spec: %s\n", o.I, o.Err, specJSON(o.spec))
			shown++
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  wrong output: %s\n", p)
	}
}

// printLayers writes the traced run's self-time table.
func (r *run) printLayers(out io.Writer) {
	n := float64(len(r.ops))
	op := r.layers["op"]
	names := make([]string, 0, len(r.layers))
	for name := range r.layers {
		names = append(names, name)
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(r.layers[b].Self, r.layers[a].Self) })
	fmt.Fprintf(out, "  %-22s %12s %12s %10s %10s\n", "layer", "busy ms/op", "self ms/op", "self share", "calls/op")
	for _, name := range names {
		l := r.layers[name]
		fmt.Fprintf(out, "  %-22s %12.4f %12.4f %9.2f%% %10.1f\n", name, l.Busy/n, l.Self/n, 100*l.Self/op.Busy, float64(l.Calls)/n)
	}
	fmt.Fprintf(out, "  layer self times cover %.2f%% of the traced op time (the rest is the op's own); tracing costs %+.3f ms/op (%+.2f%%) over the untraced front door\n",
		100*(op.Busy-op.Self)/op.Busy, (op.Busy-r.frontMs)/n, 100*(op.Busy-r.frontMs)/r.frontMs)
}
