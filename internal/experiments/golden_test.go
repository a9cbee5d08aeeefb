package experiments

// Golden tables pin every figure harness: each figure's table at its
// test configuration is committed under testdata/ as text, one line per
// row with every value printed exactly, and must come out byte for byte
// at one worker and at several. A change in a seed derivation, a
// default, an instance-construction detail or an algorithm's arithmetic
// shows up here as a readable diff.
//
// To regenerate after an intentional change:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments/

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// goldenFigure is a figure with the configuration its golden table was
// recorded at.
type goldenFigure struct {
	name string
	fn   func(context.Context, Config) (*FigureResult, error)
	cfg  func(workers int) Config
}

// goldenFigures lists Figures 6–12. The online and topology sweeps
// have tests of their own below.
var goldenFigures = []goldenFigure{
	{"figure6", Figure6, smallConfig},
	{"figure7", Figure7, smallConfig},
	{"figure8", Figure8, smallConfig},
	{"figure9", Figure9, smallConfig},
	{"figure10", Figure10, smallConfig},
	{"figure11", Figure11, smallConfig},
	{"figure12", Figure12, smallConfig},
}

var (
	goldenO1 = goldenFigure{"figureO1", FigureO1, smallConfig}
	goldenT1 = goldenFigure{"figureT1", FigureT1, t1Config}
)

func smallConfig(workers int) Config {
	c := Small()
	c.Workers = workers
	return c
}

// formatTable renders a figure as the golden text: its name, its
// series, then one line per row with the label and each series' value
// in order, tab-separated, every value at full precision.
func formatTable(r *FigureResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", r.Name, strings.Join(r.Series, "\t"))
	for _, row := range r.Rows {
		b.WriteString(row.Label)
		for _, s := range r.Series {
			b.WriteString("\t" + strconv.FormatFloat(row.Values[s], 'g', -1, 64))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// requireGolden runs fig on the given number of workers, with
// concurrent progress logging when there are several, and requires its
// table to equal the golden text. Under UPDATE_GOLDEN the serial run
// rewrites the file and parallel runs are still compared against it.
func requireGolden(t *testing.T, fig goldenFigure, workers int) {
	t.Helper()
	c := fig.cfg(workers)
	if workers > 1 {
		c.Logf = t.Logf
	}
	r, err := fig.fn(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	got := formatTable(r)
	path := filepath.Join("testdata", fig.name+".golden")
	if workers == 1 && os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test ./internal/experiments/): %v", err)
	}
	if got != string(want) {
		t.Fatalf("workers=%d: table diverges from %s\ngolden:\n%s\ngot:\n%s", workers, path, want, got)
	}
}

// TestParallelFigureMatchesSerial holds Figures 6–12 to their golden
// tables at Workers 1 and 4, so fanning workloads and Stretch trials
// out over many workers reproduces the serial tables exactly. Running
// it under -race also exercises the parallel path, and its concurrent
// progress logging, for data races.
func TestParallelFigureMatchesSerial(t *testing.T) {
	for _, fig := range goldenFigures {
		t.Run(fig.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				requireGolden(t, fig, workers)
			}
		})
	}
}

// TestFigureO1MatchesLegacy holds the serial online load sweep to its
// golden table. The table was recorded when the sweep-backed harness
// was still checked against a verbatim copy of the pre-Spec one
// (direct workload and sim calls over pool.Map cells), and that copy
// gives the same table at this configuration.
func TestFigureO1MatchesLegacy(t *testing.T) {
	requireGolden(t, goldenO1, 1)
}

// TestFigureO1DeterministicAcrossWorkers: six workers give the serial
// table.
func TestFigureO1DeterministicAcrossWorkers(t *testing.T) {
	requireGolden(t, goldenO1, 6)
}

// TestFigureT1MatchesLegacy is the same guard for the topology sweep,
// whose golden table also equals the pre-Spec harness's.
func TestFigureT1MatchesLegacy(t *testing.T) {
	requireGolden(t, goldenT1, 1)
}

// TestFigureT1DeterministicAcrossWorkers: four workers give the serial
// table.
func TestFigureT1DeterministicAcrossWorkers(t *testing.T) {
	requireGolden(t, goldenT1, 4)
}

// withObs is fig at its golden configuration with reg attached.
func withObs(fig goldenFigure, reg *obs.Registry) goldenFigure {
	cfg := fig.cfg
	fig.cfg = func(workers int) Config {
		c := cfg(workers)
		c.Obs = reg
		return c
	}
	return fig
}

// TestFigure8RecordsTelemetry: with a registry, Figure 8 records at
// least one simplex solve per ε cell, and its table is still the
// golden one.
func TestFigure8RecordsTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	requireGolden(t, withObs(goldenFigure{"figure8", Figure8, smallConfig}, reg), 1)
	want := int64(len(Small().EpsSweep))
	if n := reg.Snapshot().Counters["simplex_solves_total"]; n < want {
		t.Fatalf("simplex_solves_total = %d, want ≥ %d (one per ε cell)", n, want)
	}
}

// TestFigure9RecordsHeuristicCells: with a registry, Figure 9 times its
// heuristic cell once per workload, and its table is still the golden
// one.
func TestFigure9RecordsHeuristicCells(t *testing.T) {
	reg := obs.NewRegistry()
	requireGolden(t, withObs(goldenFigure{"figure9", Figure9, smallConfig}, reg), 1)
	got := reg.Snapshot().Timings[`engine_schedule{scheduler="heuristic"}`].Count
	if want := int64(len(workload.Kinds)); got != want {
		t.Fatalf("heuristic cells recorded = %d, want %d (one per workload)", got, want)
	}
}
