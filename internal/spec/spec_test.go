package spec

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coflow"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// TestNormalizeErrors walks the validation error paths: every bad
// spec must fail before any work runs, and name errors must list the
// corresponding registry so the caller learns what exists.
func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantSub []string // substrings the error must carry
	}{
		{"nothing to run", Spec{}, []string{"nothing to run", "stretch", "fifo"}},
		{"offline and online", Spec{Scheduler: "stretch", Policy: "fifo"},
			[]string{"mutually exclusive"}},
		{"unknown scheduler", Spec{Scheduler: "nope"},
			[]string{"unknown scheduler", "stretch", "sincronia-greedy"}},
		{"unknown policy", Spec{Policy: "nope"},
			[]string{"unknown policy", "fifo", "epoch:stretch"}},
		{"unknown epoch adapter", Spec{Policy: "epoch:nope"},
			[]string{"unknown scheduler"}},
		{"unknown model", Spec{Scheduler: "stretch", Model: "teleport"},
			[]string{"unknown model", "single", "free", "multi"}},
		{"online non-single model", Spec{Policy: "fifo", Model: "free"},
			[]string{"single path"}},
		{"unsupported model", Spec{Scheduler: "terra", Model: "single"},
			[]string{"does not support"}},
		{"unknown workload", Spec{Scheduler: "stretch", Workload: &Workload{Kind: "hive"}},
			[]string{"unknown workload", "bigbench", "fb"}},
		{"unknown topology", Spec{Scheduler: "stretch", Topology: "torus:n=4"},
			[]string{"unknown family", "fat-tree"}},
		{"too few endpoints", Spec{Scheduler: "stretch", Topology: "big-switch:n=1"},
			[]string{"endpoint"}},
		{"instance and workload", Spec{Scheduler: "stretch", Instance: testInstance(t), Workload: &Workload{}},
			[]string{"mutually exclusive"}},
		{"instance and topology", Spec{Scheduler: "stretch", Instance: testInstance(t), Topology: "swan"},
			[]string{"conflicts"}},
		{"file and generation", Spec{Scheduler: "stretch", Workload: &Workload{File: "x.json", Coflows: 3}},
			[]string{"conflicts"}},
		{"load and interarrival", Spec{Scheduler: "stretch", Workload: &Workload{Load: 1, MeanInterarrival: 2}},
			[]string{"one"}},
		{"NaN load", Spec{Scheduler: "stretch", Workload: &Workload{Load: math.NaN()}},
			[]string{"not finite"}},
		{"Inf interarrival", Spec{Scheduler: "stretch", Workload: &Workload{MeanInterarrival: math.Inf(1)}},
			[]string{"not finite"}},
		{"NaN weight", Spec{Scheduler: "stretch", Workload: &Workload{WeightMin: math.NaN()}},
			[]string{"not finite"}},
		{"negative load", Spec{Scheduler: "stretch", Workload: &Workload{Load: -1}},
			[]string{"load"}},
		{"NaN epoch", Spec{Policy: "fifo", Options: Options{Epoch: math.NaN()}},
			[]string{"epoch"}},
		{"online options offline", Spec{Scheduler: "stretch", Options: Options{Clairvoyant: true}},
			[]string{"online options"}},
		{"negative paths_k", Spec{Scheduler: "stretch", Options: Options{PathsK: -2}},
			[]string{"paths_k"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Check()
			if err == nil {
				t.Fatalf("spec %+v validated; want error with %q", tc.spec, tc.wantSub)
			}
			for _, sub := range tc.wantSub {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q missing %q", err, sub)
				}
			}
		})
	}
}

// TestNormalizeErrorListsRegistry pins the "unknown name" errors to
// the exact live registries, matching the upfront validation the CLI
// has always done.
func TestNormalizeErrorListsRegistry(t *testing.T) {
	err := Spec{Scheduler: "bogus"}.Check()
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range engine.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("scheduler error %q missing registry entry %q", err, name)
		}
	}
	err = Spec{Policy: "bogus"}.Check()
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range sim.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("policy error %q missing registry entry %q", err, name)
		}
	}
}

// TestJSONRoundTrip marshals a Spec with every field set and requires
// the decode to reproduce it exactly — including the inline instance.
func TestJSONRoundTrip(t *testing.T) {
	full := Spec{
		Topology: "fat-tree:k=4",
		Workload: &Workload{
			Kind: "tpcds", Coflows: 7, Seed: 11, MeanInterarrival: 2.5,
			WeightMin: 1, WeightMax: 3,
		},
		Model:     "single",
		Scheduler: "heuristic",
		Options: Options{
			MaxSlots: 24, Trials: 3, Seed: 42, Workers: 2,
			DisableCompaction: true, PathsK: 2,
		},
		Validate: true,
	}
	roundTrip(t, full)

	online := Spec{
		Policy: "epoch:stretch",
		Workload: &Workload{
			Kind: "fb", Coflows: 3, Load: 0.5,
		},
		Options: Options{
			Epoch: 2, Clairvoyant: true, CheckEvery: 4, MaxEvents: 99,
			WarmLP: true, Trials: 1, Seed: 7,
		},
	}
	roundTrip(t, online)

	inline := Spec{Scheduler: "sincronia-greedy", Instance: testInstance(t)}
	roundTrip(t, inline)

	file := Spec{Scheduler: "stretch", Workload: &Workload{File: "inst.json"}}
	roundTrip(t, file)
}

func roundTrip(t *testing.T, s Spec) {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, sweep, err := Parse(b)
	if err != nil {
		t.Fatalf("Parse(%s): %v", b, err)
	}
	if sweep != nil {
		t.Fatalf("Parse(%s) detected a sweep", b)
	}
	b2, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip drifted:\n %s\n→%s", b, b2)
	}
	if s.Instance == nil && !reflect.DeepEqual(&s, got) {
		t.Fatalf("decoded spec differs: %+v vs %+v", s, got)
	}
}

// TestSweepJSONRoundTrip covers the sweep envelope, including Parse's
// run-vs-sweep detection.
func TestSweepJSONRoundTrip(t *testing.T) {
	sw := SweepSpec{
		Base:       Spec{Options: Options{MaxSlots: 16}},
		Schedulers: []string{"heuristic", "sincronia-greedy"},
		Policies:   []string{"fifo"},
		Models:     []string{"single"},
		Topologies: []string{"swan", "line:n=4"},
		Workloads:  []string{"fb", "tpch"},
		Loads:      []float64{0.5, 1},
		Seeds:      []int64{1, 2, 3},
		Workers:    2,
	}
	b, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	s, got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if s != nil || got == nil {
		t.Fatalf("Parse did not detect a sweep in %s", b)
	}
	if !reflect.DeepEqual(&sw, got) {
		t.Fatalf("decoded sweep differs: %+v vs %+v", sw, got)
	}
}

// TestParseRejectsUnknownFields: typos fail instead of silently
// running the default experiment.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, _, err := Parse([]byte(`{"scheduler":"stretch","trials":5}`)); err == nil {
		t.Fatal("top-level typo accepted")
	}
	if _, _, err := Parse([]byte(`{"base":{"sheduler":"stretch"}}`)); err == nil {
		t.Fatal("sweep typo accepted")
	}
	if _, _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestNormalizedDefaults pins the documented defaults, which must
// match what the legacy CLI flags compile to.
func TestNormalizedDefaults(t *testing.T) {
	ns, err := Spec{Scheduler: "stretch"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	w := ns.Workload
	if ns.Topology != "swan" || ns.Model != "single" || w.Kind != "fb" ||
		w.Coflows != 8 || w.MeanInterarrival != 1.5 || ns.Options.PathsK != 3 {
		t.Fatalf("unexpected defaults: %+v", ns)
	}
	// Load is sugar for 1/MeanInterarrival and normalizes away.
	ns, err = Spec{Policy: "fifo", Workload: &Workload{Load: 4}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Workload.Load != 0 || ns.Workload.MeanInterarrival != 0.25 {
		t.Fatalf("load not normalized: %+v", ns.Workload)
	}
	// Normalizing must not alias the caller's workload struct.
	orig := &Workload{Kind: "fb"}
	if _, err := (Spec{Scheduler: "stretch", Workload: orig}).Normalized(); err != nil {
		t.Fatal(err)
	}
	if orig.Coflows != 0 || orig.MeanInterarrival != 0 {
		t.Fatalf("Normalized mutated the caller's workload: %+v", orig)
	}
}

// TestKeyStable: the cache key is the normalized form, so sugar
// spellings of the same run share a key.
func TestKeyStable(t *testing.T) {
	a, err := Spec{Scheduler: "stretch", Workload: &Workload{Load: 0.5}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{Scheduler: "stretch", Topology: "swan",
		Workload: &Workload{Kind: "fb", Coflows: 8, MeanInterarrival: 2}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent specs got different keys:\n%s\n%s", a, b)
	}
	// Workers is an execution knob that cannot change results; it must
	// not fragment the cache.
	w4, err := Spec{Scheduler: "stretch", Options: Options{Workers: 4}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	w8, err := Spec{Scheduler: "stretch", Options: Options{Workers: 8}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if w4 != w8 {
		t.Fatalf("worker count fragmented the key:\n%s\n%s", w4, w8)
	}
}

// TestPresets: every preset compiles and counts correctly.
func TestPresets(t *testing.T) {
	if _, err := Preset("nope"); err == nil || !strings.Contains(err.Error(), "figure9") {
		t.Fatalf("unknown preset error %v must list the registry", err)
	}
	for _, name := range PresetNames() {
		sw, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := sw.Cells()
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if n == 0 {
			t.Fatalf("preset %s is empty", name)
		}
	}
}

func testInstance(t *testing.T) *coflow.Instance {
	t.Helper()
	top, err := topo.New("line:n=3")
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: top.Graph, NumCoflows: 3, Seed: 5,
		MeanInterarrival: 1, AssignPaths: true, Endpoints: top.Endpoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRunInlineInstance drives Run end to end on an inline instance
// (the facade path) and checks the report against a direct engine run.
func TestRunInlineInstance(t *testing.T) {
	in := testInstance(t)
	rep, err := Run(context.Background(), Spec{
		Scheduler: "sincronia-greedy",
		Instance:  in,
		Validate:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "offline" || !rep.Validated || rep.Coflows != len(in.Coflows) {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.Spec.Instance != nil {
		t.Fatal("report echoes the inline instance; it should be elided")
	}
	if rep.Engine == nil || rep.Engine.Weighted != rep.Weighted {
		t.Fatalf("engine result not threaded: %+v", rep.Engine)
	}
}
