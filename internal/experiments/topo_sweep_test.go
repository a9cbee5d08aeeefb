package experiments

import (
	"context"
	"reflect"
	"testing"
)

// t1Config shrinks the sweep to test scale: few coflows, a short grid,
// and no Stretch trials beyond two.
func t1Config(workers int) Config {
	c := Small()
	c.SingleCoflows = 4
	c.MaxSlots = 12
	c.Trials = 2
	c.Workers = workers
	return c
}

func TestFigureT1Small(t *testing.T) {
	res, err := FigureT1(context.Background(), t1Config(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(T1Specs) {
		t.Fatalf("%d rows for %d topology specs", len(res.Rows), len(T1Specs))
	}
	if !reflect.DeepEqual(res.Series, T1Schedulers) {
		t.Fatalf("series %v, want %v", res.Series, T1Schedulers)
	}
	for _, row := range res.Rows {
		for _, name := range T1Schedulers {
			v, ok := row.Values[name]
			if !ok {
				t.Fatalf("topology %s: no value for %s", row.Label, name)
			}
			// Ratios are to the LP lower bound: ≥ ~1 and sane.
			if v < 0.99 || v > 100 {
				t.Fatalf("topology %s: %s ratio %g out of range", row.Label, name, v)
			}
		}
	}
}
