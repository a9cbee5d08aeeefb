package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Load reads a previously written report. A missing file is the "no
// baseline yet" case and is the caller's to branch on via os.IsNotExist.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// WriteFile serializes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Regression is one metric that moved past the tolerance in the bad
// direction between two reports.
type Regression struct {
	// Name is the benchmark, Metric the offending measurement
	// ("events/sec" or "allocs/op").
	Name   string
	Metric string
	// Before and After are the baseline and current values; Change is
	// the signed relative change (After/Before − 1).
	Before float64
	After  float64
	Change float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.4g → %.4g (%+.1f%%)", r.Name, r.Metric, r.Before, r.After, 100*r.Change)
}

// Compare diffs cur against the prev baseline and returns the
// regressions beyond tol (0 = DefaultTolerance): events/sec that
// dropped by more than tol, and allocs/op that grew by more than tol
// (see the package doc for how far events/sec spreads). Benchmarks
// present in only one report are ignored (the suite is allowed to
// grow), as are reports from a different tier (their grids differ).
func Compare(prev, cur *Report, tol float64) []Regression {
	if tol == 0 {
		tol = DefaultTolerance
	}
	if prev == nil || cur == nil || prev.Tier != cur.Tier {
		return nil
	}
	var regs []Regression
	for i := range cur.Results {
		c := &cur.Results[i]
		p := prev.Find(c.Name)
		if p == nil {
			continue
		}
		if p.EventsPerSec > 0 && c.EventsPerSec > 0 {
			change := c.EventsPerSec/p.EventsPerSec - 1
			if change < -tol {
				regs = append(regs, Regression{
					Name: c.Name, Metric: "events/sec",
					Before: p.EventsPerSec, After: c.EventsPerSec, Change: change,
				})
			}
		}
		if p.AllocsPerOp > 0 && c.AllocsPerOp > 0 {
			change := c.AllocsPerOp/p.AllocsPerOp - 1
			if change > tol {
				regs = append(regs, Regression{
					Name: c.Name, Metric: "allocs/op",
					Before: p.AllocsPerOp, After: c.AllocsPerOp, Change: change,
				})
			}
		}
	}
	return regs
}
