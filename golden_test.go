package repro_test

// Golden-trace tests pin cross-PR determinism: the full event traces
// of three representative online policies on a canonical 4-node line
// topology are committed under testdata/golden and diffed verbatim. A
// change in workload generation, simulator event ordering, or a
// wrapped scheduler's arithmetic shows up here as a readable diff
// instead of a silent behavior drift.
//
// To regenerate after an intentional change:
//
//	UPDATE_GOLDEN=1 go test -run ConformanceGolden .

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	repro "repro"
)

// goldenPolicies maps policy×topology cells to golden file basenames.
// The three line:n=4 cells predate the topology column (PR 3) and
// must stay byte-identical across PRs; the leaf-spine cells pin the
// fair progressive-filling and online-Sincronia policies on a
// switched fabric.
var goldenPolicies = []struct{ policy, topo, file string }{
	{"fifo", "line:n=4", "fifo"},
	{"las", "line:n=4", "las"},
	{"epoch:stretch", "line:n=4", "epoch-stretch"},
	{"fair", "leaf-spine:leaves=3,spines=2,hosts=2", "fair-leaf-spine"},
	{"sincronia-online", "leaf-spine:leaves=3,spines=2,hosts=2", "sincronia-online-leaf-spine"},
}

func goldenInstance(t *testing.T, topoSpec string) *repro.Instance {
	t.Helper()
	top, err := repro.NewTopology(topoSpec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := repro.GenerateWorkload(repro.WorkloadConfig{
		Kind: repro.FB, Graph: top.Graph, NumCoflows: 6, Seed: 2019,
		MeanInterarrival: 2, AssignPaths: true, Endpoints: top.Endpoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// formatTrace renders a simulation result as the stable text the
// golden files hold: the full event sequence plus the per-coflow
// completions and aggregates, all at fixed precision.
func formatTrace(policy, topoSpec string, res *repro.SimResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# policy=%s topo=%s workload=fb coflows=%d seed=2019\n",
		policy, topoSpec, len(res.Completions))
	for _, ev := range res.Trace {
		coflow := fmt.Sprintf("%d", ev.Coflow)
		if ev.Coflow < 0 {
			coflow = "-"
		}
		fmt.Fprintf(&b, "t=%.6f %s %s\n", ev.Time, ev.Kind, coflow)
	}
	for j, c := range res.Completions {
		fmt.Fprintf(&b, "completion %d %.6f\n", j, c)
	}
	fmt.Fprintf(&b, "weighted %.6f\ntotal %.6f\nmakespan %.6f\nreplans %d\n",
		res.WeightedCCT, res.TotalCCT, res.Makespan, res.Replans)
	return b.String()
}

func TestConformanceGoldenTraces(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	instances := map[string]*repro.Instance{}
	for _, gp := range goldenPolicies {
		gp := gp
		in, ok := instances[gp.topo]
		if !ok {
			in = goldenInstance(t, gp.topo)
			instances[gp.topo] = in
		}
		t.Run(gp.file, func(t *testing.T) {
			rep, err := repro.Run(context.Background(), repro.Spec{
				Instance: in, Policy: gp.policy,
				Options: repro.SpecOptions{Epoch: 2, MaxSlots: 16, Trials: 2, Seed: 7, Workers: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := formatTrace(gp.policy, gp.topo, rep.Sim)
			path := filepath.Join("testdata", "golden", gp.file+".trace")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test -run ConformanceGolden .): %v", err)
			}
			if got != string(want) {
				t.Fatalf("trace diverges from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
		}
	}
	return "lengths differ"
}
