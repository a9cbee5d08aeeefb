package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// requireShape asserts the structural invariants every figure must
// satisfy: all series present in every row, finite values, and the LP
// lower bound never above the algorithmic series.
func requireShape(t *testing.T, r *FigureResult, lpSeries string, algoSeries ...string) {
	t.Helper()
	if len(r.Rows) == 0 {
		t.Fatalf("%s: no rows", r.Name)
	}
	for _, row := range r.Rows {
		lp, ok := row.Values[lpSeries]
		if !ok {
			t.Fatalf("%s %s: missing %q", r.Name, row.Label, lpSeries)
		}
		if lp <= 0 {
			t.Fatalf("%s %s: non-positive LP bound %v", r.Name, row.Label, lp)
		}
		for _, s := range algoSeries {
			v, ok := row.Values[s]
			if !ok {
				t.Fatalf("%s %s: missing series %q", r.Name, row.Label, s)
			}
			if v < lp-1e-6 {
				t.Fatalf("%s %s: %q = %v below LP bound %v", r.Name, row.Label, s, v, lp)
			}
		}
	}
}

func TestFigure6Small(t *testing.T) {
	r, err := Figure6(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	requireShape(t, r, SeriesLP, SeriesHeuristic, SeriesBestLambda, SeriesAvgLambda)
	for _, row := range r.Rows {
		if row.Values[SeriesBestLambda] > row.Values[SeriesAvgLambda]+1e-9 {
			t.Fatalf("%s: best λ above average λ", row.Label)
		}
		// Theorem 4.4 shape: average stays within ~2× LP (slack for
		// sampling noise at 5 trials).
		if row.Values[SeriesAvgLambda] > 2.6*row.Values[SeriesLP] {
			t.Fatalf("%s: average λ %v far above 2×LP %v",
				row.Label, row.Values[SeriesAvgLambda], 2*row.Values[SeriesLP])
		}
	}
}

func TestFigure8Small(t *testing.T) {
	r, err := Figure8(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per ε)", len(r.Rows))
	}
	for _, row := range r.Rows {
		lp := row.Values["Interval LP(lower bound)"]
		h := row.Values[SeriesHeuristic]
		if h < lp-1e-6 {
			t.Fatalf("%s: heuristic %v below its LP %v", row.Label, h, lp)
		}
	}
}

// TestFigure8SmallSlotCap runs Figure 8 with the horizon capped below
// what its ε cells need: each cell must grow its horizon under
// core.Grow instead of failing on the first infeasible LP (MaxSlots 2)
// or on a flow released after the grid's last slot (MaxSlots 1).
func TestFigure8SmallSlotCap(t *testing.T) {
	for _, slots := range []int{1, 2} {
		c := Small()
		c.MaxSlots = slots
		r, err := Figure8(context.Background(), c)
		if err != nil {
			t.Fatalf("MaxSlots %d: %v", slots, err)
		}
		if len(r.Rows) != len(c.EpsSweep) {
			t.Fatalf("MaxSlots %d: rows = %d, want %d", slots, len(r.Rows), len(c.EpsSweep))
		}
	}
}

func TestFigure9Small(t *testing.T) {
	r, err := Figure9(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	requireShape(t, r, SeriesLP, SeriesHeuristic, SeriesJahanjou, SeriesSincronia)
	for _, row := range r.Rows {
		// Interval heuristic dominates its own interval LP bound.
		if row.Values[SeriesIntervalHeur] < row.Values[SeriesIntervalLP]-1e-6 {
			t.Fatalf("%s: interval heuristic below interval LP", row.Label)
		}
	}
}

func TestFigure11Small(t *testing.T) {
	r, err := Figure11(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	requireShape(t, r, SeriesLP, SeriesHeuristic, SeriesBestLambda, SeriesAvgLambda)
	for _, row := range r.Rows {
		if _, ok := row.Values[SeriesTerra]; !ok {
			t.Fatalf("%s: Terra series missing", row.Label)
		}
		if row.Values[SeriesTerra] <= 0 {
			t.Fatalf("%s: Terra total %v", row.Label, row.Values[SeriesTerra])
		}
	}
}

func TestRenderFormats(t *testing.T) {
	r := &FigureResult{
		Name:   "Test figure",
		Series: []string{"A", "B"},
		Rows: []Row{
			{Label: "w1", Values: map[string]float64{"A": 1.5, "B": 2.5}},
			{Label: "w2", Values: map[string]float64{"A": 3}},
		},
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Test figure") || !strings.Contains(out, "w1") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing value should render as '-':\n%s", out)
	}
	buf.Reset()
	if err := r.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	if lines[0] != "label,A,B" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[2], ",") {
		t.Fatalf("missing CSV value should be empty: %q", lines[2])
	}
}

func TestConfigDefaults(t *testing.T) {
	var zero Config
	c := zero.withDefaults()
	d := Default()
	if c.SingleCoflows != d.SingleCoflows || c.Trials != d.Trials || c.Seed != d.Seed {
		t.Fatalf("withDefaults did not fill: %+v", c)
	}
}

func TestFiguresRegistry(t *testing.T) {
	for _, n := range []int{6, 7, 8, 9, 10, 11, 12} {
		if Figures[n] == nil {
			t.Fatalf("figure %d missing from registry", n)
		}
	}
	if Figures[5] != nil {
		t.Fatal("unexpected figure 5")
	}
}
