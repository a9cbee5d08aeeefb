package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/spec"
)

// tiny returns the named workload shrunk to run in well under a second
// per round through the same code paths.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "offline-lp":
		w.Coflows, w.Corpus = 3, 2
	case "online-backlog":
		w.Coflows, w.Corpus = 60, 2
	case "online-replan":
		w.Coflows, w.Corpus = 6, 2
	case "service":
		w.Coflows = 8
	}
	return w
}

// workCounters are per-layer counters each workload must move.
var workCounters = map[string][]string{
	"offline-lp":     {"model.rows", "model.nnz", "simplex.solves", "simplex.pivots", "lu.factorizations", "lu.fill_nnz"},
	"online-backlog": {"sim.alloc_calls", "sim.loop_events", "sim.replans", "sim.las_splice_mean", "sim.fair_freeze_rounds_mean"},
	"online-replan":  {"engine.schedules", "model.rows", "simplex.pivots", "sim.replans"},
}

func TestLibraryWorkloadsTiny(t *testing.T) {
	for _, name := range []string{"offline-lp", "online-backlog", "online-replan"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			for _, traced := range []bool{false, true} {
				// The traced run fails if any replayed report differs
				// from its front-door report in a single bit.
				r, err := runLibrary(context.Background(), w, 5, 0, traced, nil)
				if err != nil {
					t.Fatal(err)
				}
				res := r.result(traced)
				if res.Failed != 0 || !res.Correct || res.Attempted != len(w.round(w, 5, 0)) {
					t.Fatalf("traced=%v: %+v problems %v", traced, res, r.problems)
				}
				checkMetrics(t, res, traced)
				if !traced {
					continue
				}
				if v := res.Metrics["trace.attributed_share"].Value; v < 0.95 {
					t.Errorf("layers cover only %v of the traced op time", v)
				}
				// Each workload's own layer must show its work.
				for _, m := range workCounters[name] {
					if !(res.Metrics[m].Value > 0) {
						t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
					}
				}
			}
		})
	}
}

// checkMetrics requires every declared metric, and every end-to-end one
// but setup_s, which only measure's probes take, to be positive.
func checkMetrics(t *testing.T, res result, traced bool) {
	t.Helper()
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s missing or with unit %q", d.Name, v.Unit)
		}
		if !traced && d.Name != "setup_s" && !(v.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
		}
	}
}

// build compiles a package of the module (or of repro) into dir.
func build(t *testing.T, dir, pkg string) string {
	t.Helper()
	out := filepath.Join(dir, filepath.Base(pkg))
	if msg, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, msg)
	}
	return out
}

func TestSetupProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds coflowbench and coflowd")
	}
	dir := t.TempDir()
	self := build(t, dir, "repro/cmd/coflowbench")
	coflowd := build(t, dir, "repro/cmd/coflowd")
	probe := func(name string) float64 {
		s, err := probeSetup(self, name, 1, time.Second, coflowd)
		if err != nil || !(s > 0 && s < 10) {
			t.Fatalf("%s: probe took %v s (%v)", name, s, err)
		}
		return s
	}
	// Set-up generates the instances: two of 10000 coflows take far
	// longer than sixteen of 8.
	if small, large := probe("offline-lp"), probe("online-backlog"); !(small < large/4) {
		t.Errorf("offline-lp set-up %v s, online-backlog %v s", small, large)
	}
	probe("service")
	if _, err := probeSetup(self, "service", 1, time.Second, filepath.Join(dir, "missing")); err == nil {
		t.Error("a service probe without coflowd succeeded")
	}
}

func TestServiceTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds coflowd")
	}
	coflowd := build(t, t.TempDir(), "repro/cmd/coflowd")
	w := tiny(t, "service")
	for _, traced := range []bool{false, true} {
		// The untraced run pauses the load for a sample every 0.5 s.
		var p *prober
		if !traced {
			p = &prober{every: 500 * time.Millisecond, probe: func() (float64, error) { return 1, nil }}
		}
		r, err := runService(context.Background(), w, 3, 2*time.Second, traced, coflowd, p)
		if err != nil {
			t.Fatal(err)
		}
		if !traced && len(p.samples) != 4 {
			t.Errorf("%d set-up samples in a 2 s window, want 4", len(p.samples))
		}
		res := r.result(traced)
		if res.Failed != 0 || !res.Correct || res.Attempted < 100 {
			t.Fatalf("traced=%v: %+v problems %v", traced, res, r.problems)
		}
		checkMetrics(t, res, traced)
		if traced && res.Metrics["cache.hit_ratio"].Value <= 0 {
			t.Error("no cache hits although a fifth of the requests repeat")
		}
	}
}

func TestProberSpreadsSamples(t *testing.T) {
	p := &prober{every: time.Second, probe: func() (float64, error) { return 1, nil }}
	for _, c := range []struct {
		window, due time.Duration
		samples     int
	}{
		{0, time.Second, 1},
		{500 * time.Millisecond, time.Second, 1},
		{3500 * time.Millisecond, 4 * time.Second, 4}, // one per second begun
		{time.Minute, math.MaxInt64, setupProbes},     // and no more than setupProbes
	} {
		due, err := p.tick(c.window)
		if err != nil || due != c.due || len(p.samples) != c.samples {
			t.Errorf("tick(%v) = %v, %v with %d samples, want %v with %d", c.window, due, err, len(p.samples), c.due, c.samples)
		}
	}
}

// TestFailuresAreCounted runs an op list with a spec that fails Check
// between two good ones, then the same list under a cancelled context:
// every failed op is counted and the loop carries on.
func TestFailuresAreCounted(t *testing.T) {
	good := spec.Spec{Scheduler: "sincronia-greedy", Workload: &spec.Workload{Coflows: 3, Seed: 1}, Validate: true}
	bad := good
	bad.Policy = "fifo" // a scheduler and a policy together fail Check
	if bad.Check() == nil {
		t.Fatal("the bad spec passes Check")
	}
	w := &workload{Name: "failures", Tail: 75, round: func(*workload, int64, int) []op {
		return []op{{Spec: good, Ref: -1}, {Spec: bad, Ref: -1}, {Spec: good, Ref: -1}}
	}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		ctx    context.Context
		failed int
	}{{context.Background(), 1}, {cancelled, 3}} {
		for _, traced := range []bool{false, true} {
			r, err := runLibrary(tc.ctx, w, 1, 0, traced, nil)
			if err != nil {
				t.Fatal(err)
			}
			res := r.result(traced)
			if res.Attempted != 3 || res.Failed != tc.failed {
				t.Errorf("ctx err %v, traced %v: attempted %d failed %d, want 3 and %d",
					tc.ctx.Err(), traced, res.Attempted, res.Failed, tc.failed)
			}
		}
	}
}

func TestMetricDefinitions(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %+v", d)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Bound < endToEnd[1].Bound {
		t.Errorf("setup_s must lead with unit s and the largest bound: %+v", endToEnd[0])
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("bad workload %q", w.Name)
		}
	}
}

// TestBenchmarkJSON holds the repository's BENCHMARK.json to the
// definitions here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(got, want []metricDef) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if !same(b.EndToEnd, endToEnd) || !same(b.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metrics differ from endToEnd/perLayer")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/coflowbench" || b.RunSeconds != 20 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

func TestTailPercentileAndGeomean(t *testing.T) {
	for n, want := range map[int]float64{8: 100, 32: 100, 39: 100, 40: 75, 48: 75, 99: 75, 100: 90,
		999: 90, 1000: 99, 4500: 99, 9999: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	xs := []float64{4, 1, 3, 2}
	if p := percentile(xs, 50); p != 2.5 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 75); p != 3.25 {
		t.Errorf("p75 = %v", p)
	}
	if p := percentile(xs, 100); p != 4 {
		t.Errorf("max = %v", p)
	}
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-12 {
		t.Errorf("geomean = %v", g)
	}
	// The geometric mean weighs a 2x gain on a fast op like one on a
	// slow op.
	if a, b := geomean([]float64{1000, 1}), geomean([]float64{2000, 1}); math.Abs(b/a-math.Sqrt2) > 1e-12 {
		t.Errorf("geomean ratio %v", b/a)
	}
}

func TestServiceRequests(t *testing.T) {
	w := tiny(t, "service")
	a, err := serviceRequests(w, 9, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := serviceRequests(w, 9, 5000)
	keys := map[string]bool{}
	repeats := 0
	for i, o := range a {
		if string(o.body) != string(b[i].body) {
			t.Fatalf("request %d differs between two draws from one seed", i)
		}
		if o.Ref < 0 {
			k, err := o.Spec.Key()
			if err != nil || keys[k] {
				t.Fatalf("fresh request %d repeats a cache key (%v)", i, err)
			}
			keys[k] = true
			continue
		}
		repeats++
		if d := i - o.Ref; d < 2 || d > 230 || a[o.Ref].Ref >= 0 || string(a[o.Ref].body) != string(o.body) {
			t.Fatalf("request %d repeats %d at distance %d", i, o.Ref, d)
		}
	}
	if share := float64(repeats) / float64(len(a)); math.Abs(share-0.2) > 0.02 {
		t.Errorf("repeat share %v, want 0.2", share)
	}
}

// TestServiceCorpora runs every instance the service may draw through
// the oracle: a workload on which an op fails is not a benchmark.
func TestServiceCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("576 runs")
	}
	w, _ := workloadByName("service")
	for _, c := range serviceClasses {
		for ws := c.base; ws < c.base+c.n; ws++ {
			if _, err := spec.Run(context.Background(), c.spec(w.Coflows, ws, 1)); err != nil {
				t.Errorf("%s workload seed %d: %v", c.name, ws, err)
			}
		}
	}
}

func TestDeterministicDiffs(t *testing.T) {
	a := []opRecord{{Digest: "x", Ratio: 1.5, Work: workCounts{"simplex.pivots": 10, "sim.check_incremental_ms": 1}}}
	b := []opRecord{{Digest: "x", Ratio: 1.5, Work: workCounts{"simplex.pivots": 10, "sim.check_incremental_ms": 2}}}
	if d := deterministicDiffs(a, b); len(d) != 0 {
		t.Errorf("a wall-clock difference counts: %v", d)
	}
	b[0].Work["simplex.pivots"] = 11
	if d := deterministicDiffs(a, b); len(d) != 1 {
		t.Errorf("a pivot difference is missed: %v", d)
	}
}
