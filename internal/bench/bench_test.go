package bench

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig runs the full harness machinery on toy instances so the
// test stays seconds, not minutes.
func tinyConfig() Config {
	return Config{Tier: "1k", Sizes: []int{40}, FBSize: 64}
}

func TestRunProducesCompleteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short")
	}
	rep, err := Run(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Tier != "1k" || rep.GoVersion == "" {
		t.Fatalf("bad report header: %+v", rep)
	}
	// The four ladder sim cells at n=40, the leaf-spine fair,
	// epoch:stretch and fifo-telemetry hot-path cells (the las and
	// big-switch fair hot-path cells collapse into the ladder's at the
	// overridden size), the headline cell, and the five scheduler/LP
	// benches (including the degenerate-LP robustness cell).
	if len(rep.Results) != 13 {
		names := make([]string, len(rep.Results))
		for i, r := range rep.Results {
			names[i] = r.Name
		}
		t.Fatalf("want 13 results, got %d: %v", len(rep.Results), names)
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Fatalf("%s: empty measurement %+v", r.Name, r)
		}
		if strings.HasPrefix(r.Name, "sim/") && r.EventsPerSec <= 0 {
			t.Fatalf("%s: no events/sec", r.Name)
		}
	}
	head := rep.Find("BenchmarkSimulateFB/n=64")
	if head == nil || head.EventsPerSec <= 0 {
		t.Fatalf("headline entry missing events/sec: %+v", head)
	}
	if rep.PeakRSSBytes <= 0 {
		t.Logf("peak RSS unavailable on this platform (got %d)", rep.PeakRSSBytes)
	}

	// JSON round-trip through the on-disk format.
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(rep.Results) || back.Tier != rep.Tier {
		t.Fatalf("round-trip lost data: %+v", back)
	}
	if got := back.Find("BenchmarkSimulateFB/n=64"); got == nil || *got != *head {
		t.Fatalf("round-trip lost the headline entry: %+v", got)
	}
}

func TestRunRejectsUnknownTier(t *testing.T) {
	if _, err := Run(context.Background(), Config{Tier: "9000k"}); err == nil ||
		!strings.Contains(err.Error(), "tier") {
		t.Fatalf("want tier error, got %v", err)
	}
}

func report(results ...Result) *Report {
	return &Report{Schema: Schema, Tier: "1k", Results: results}
}

func TestCompareFlagsThroughputDrop(t *testing.T) {
	prev := report(Result{Name: "sim/fifo/x/n=1000", EventsPerSec: 100000, AllocsPerOp: 50})
	cur := report(Result{Name: "sim/fifo/x/n=1000", EventsPerSec: 70000, AllocsPerOp: 50})
	regs := Compare(prev, cur, 0.25)
	if len(regs) != 1 || regs[0].Metric != "events/sec" {
		t.Fatalf("want one events/sec regression, got %v", regs)
	}
	if regs[0].Change > -0.25 {
		t.Fatalf("change %v should be below -0.25", regs[0].Change)
	}
	// Within tolerance: no flag.
	cur.Results[0].EventsPerSec = 80000
	if regs := Compare(prev, cur, 0.25); len(regs) != 0 {
		t.Fatalf("25%% tolerance must absorb a 20%% drop, got %v", regs)
	}
	// Improvements never flag.
	cur.Results[0].EventsPerSec = 500000
	if regs := Compare(prev, cur, 0.25); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}
}

func TestCompareFlagsAllocGrowth(t *testing.T) {
	prev := report(Result{Name: "lp/single-path/n=8", NsPerOp: 1000, AllocsPerOp: 100})
	cur := report(Result{Name: "lp/single-path/n=8", NsPerOp: 5000, AllocsPerOp: 200})
	regs := Compare(prev, cur, 0.25)
	// ns/op noise is deliberately not compared; allocs/op doubling is.
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
}

func TestCompareToleratesMissingAndForeign(t *testing.T) {
	prev := report(Result{Name: "a", EventsPerSec: 100})
	cur := report(Result{Name: "b", EventsPerSec: 1})
	if regs := Compare(prev, cur, 0.25); len(regs) != 0 {
		t.Fatalf("disjoint suites must not flag, got %v", regs)
	}
	if regs := Compare(nil, cur, 0.25); regs != nil {
		t.Fatalf("nil baseline must not flag, got %v", regs)
	}
	other := report(Result{Name: "b", EventsPerSec: 100})
	other.Tier = "10k"
	if regs := Compare(other, cur, 0.25); regs != nil {
		t.Fatalf("cross-tier comparison must not flag, got %v", regs)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"nope/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

// TestRunCancelled: a cancelled context stops the suite before any
// benchmark cell runs.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, tinyConfig()); err != context.Canceled {
		t.Fatalf("cancelled Run returned %v", err)
	}
}
