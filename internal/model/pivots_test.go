package model

// Pivot-sequence pin: solves a corpus of interval LPs large enough
// (≥ 64 rows) to take the sparse FTRAN/BTRAN paths and records, per LP,
// the iteration, refactorization and perturbation counts, the objective
// bits and a hash of the primal vector. Any change to pricing, the
// ratio test or the LU solves that alters a single pivot — or a single
// float on the way — moves a line of testdata/pivots.golden. The
// small-LP goldens elsewhere never reach those paths.
//
// To regenerate after an intentional change:
//
//	UPDATE_GOLDEN=1 go test -run TestPivotSequencePin ./internal/model/

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/obs"
	"repro/internal/simplex"
	"repro/internal/timegrid"
	"repro/internal/workload"
)

const pivotsGolden = "testdata/pivots.golden"

// pinCase is one LP of the corpus. warmFrom names an earlier case whose
// optimal basis seeds this one.
type pinCase struct {
	name     string
	mode     coflow.Model
	coflows  int
	seed     int64
	maxSlots int
	reweight float64 // multiplier of odd coflows' weights (0 = 1)
	warmFrom string
}

func pinCorpus() []pinCase {
	cs := []pinCase{
		{name: "single/fb4/seed3", mode: coflow.SinglePath, coflows: 4, seed: 3, maxSlots: 16},
		{name: "single/fb8/seed4", mode: coflow.SinglePath, coflows: 8, seed: 4, maxSlots: 48},
		{name: "single/fb8/seed4/reweighted", mode: coflow.SinglePath, coflows: 8, seed: 4, maxSlots: 48, reweight: 30, warmFrom: "single/fb8/seed4"},
		{name: "free/fb3/seed5", mode: coflow.FreePath, coflows: 3, seed: 5, maxSlots: 16},
		{name: "multi/fb4/seed6", mode: coflow.MultiPath, coflows: 4, seed: 6, maxSlots: 12},
	}
	// The offline-lp benchmark corpus: the paper's Figure-9 cell, 8 FB
	// coflows on SWAN under a 48-slot cap, workload seeds 1–16, as the
	// spec front door generates them.
	for seed := int64(1); seed <= 16; seed++ {
		if seed == 4 {
			continue // listed above
		}
		cs = append(cs, pinCase{
			name: fmt.Sprintf("single/fb8/seed%d", seed), mode: coflow.SinglePath,
			coflows: 8, seed: seed, maxSlots: 48,
		})
	}
	return cs
}

// pinInstance generates the case's instance on the spec's default
// workload (mean interarrival 1.5) and the first grid core.RunAdaptive
// solves it on.
func pinInstance(t *testing.T, c pinCase) (*coflow.Instance, timegrid.Grid) {
	t.Helper()
	in, err := workload.Generate(workload.Config{
		Kind: workload.FB, Graph: graph.SWAN(1), NumCoflows: c.coflows, Seed: c.seed,
		MeanInterarrival: 1.5, AssignPaths: c.mode == coflow.SinglePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.mode == coflow.MultiPath {
		if err := in.AssignKShortestPaths(3); err != nil {
			t.Fatal(err)
		}
	}
	if c.reweight != 0 {
		// New costs, same constraints: the seeding basis stays primal
		// feasible, so phase 2 starts from it and has to pivot.
		for j := 1; j < len(in.Coflows); j += 2 {
			in.Coflows[j].Weight *= c.reweight
		}
	}
	h := int(math.Ceil(in.HorizonUpperBound(c.mode))) + 1
	if h > c.maxSlots {
		h = c.maxSlots
	}
	if minH := int(math.Ceil(in.MaxRelease())) + 2; h < minH {
		h = minH
	}
	for float64(h) < in.HorizonLowerBound(c.mode)-1e-9 && h < 4*c.maxSlots {
		h *= 2
	}
	return in, timegrid.Uniform(h)
}

// pinLP builds the case's relaxation; a free path case builds the edge
// formulation.
func pinLP(t *testing.T, c pinCase) *LP {
	t.Helper()
	in, grid := pinInstance(t, c)
	var l *LP
	var err error
	switch c.mode {
	case coflow.SinglePath:
		l, err = BuildSinglePath(in, grid)
	case coflow.FreePath:
		l, err = buildEdgeFreePath(in, grid)
	default:
		l, err = BuildMultiPath(in, grid)
	}
	if err != nil {
		t.Fatal(err)
	}
	if l.Model.NumConstrs() < 64 {
		t.Fatalf("%s: %d rows, below the sparse-solve gate of 64", c.name, l.Model.NumConstrs())
	}
	return l
}

// pinLine solves l as SolveWarm does and renders the pinned facts.
func pinLine(name string, l *LP, warm *lp.Basis) (string, *lp.Basis, error) {
	if warm == nil {
		warm = l.GreedyBasis()
	}
	reg := obs.NewRegistry()
	raw, err := l.Model.SolveWarm(context.Background(), simplex.Options{Obs: reg}, warm)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", name, err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range raw.X() {
		bits := math.Float64bits(x)
		if x == 0 {
			bits = 0 // fold ±0
		}
		for k := range buf {
			buf[k] = byte(bits >> (8 * k))
		}
		h.Write(buf[:])
	}
	c := reg.Snapshot().Counters
	return fmt.Sprintf("%s rows=%d cols=%d nnz=%d status=%v warm=%v iters=%d refactor=%d perturb=%d obj=%016x x=%016x",
		name, l.Model.NumConstrs(), l.Model.NumVars(), l.Model.NumNonzeros(), raw.Status, raw.WarmStart,
		raw.Iterations(), c["simplex_refactorizations_total"], c["simplex_perturbations_total"],
		math.Float64bits(raw.Obj), h.Sum64()), raw.Basis, nil
}

// pinLines solves the corpus in order, each warm case from the basis of
// the case it names, and returns one line per case.
func pinLines(cs []pinCase, lps []*LP) ([]string, error) {
	bases := map[string]*lp.Basis{}
	lines := make([]string, len(cs))
	for i, c := range cs {
		var warm *lp.Basis
		if c.warmFrom != "" {
			if warm = bases[c.warmFrom]; warm == nil {
				return nil, fmt.Errorf("%s: no basis from %s", c.name, c.warmFrom)
			}
		}
		line, basis, err := pinLine(c.name, lps[i], warm)
		if err != nil {
			return nil, err
		}
		bases[c.name], lines[i] = basis, line
	}
	return lines, nil
}

// pinCorpusLPs builds every relaxation of the corpus.
func pinCorpusLPs(t *testing.T) ([]pinCase, []*LP) {
	cs := pinCorpus()
	lps := make([]*LP, len(cs))
	for i, c := range cs {
		lps[i] = pinLP(t, c)
	}
	return cs, lps
}

func TestPivotSequencePin(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	data, err := os.ReadFile(pivotsGolden)
	if err != nil && !update {
		t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test -run TestPivotSequencePin ./internal/model/): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok {
			want[name] = line
		}
	}
	cs, lps := pinCorpusLPs(t)
	got, err := pinLines(cs, lps)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range got {
		if name := cs[i].name; !update && line != want[name] {
			t.Errorf("pivot sequence moved:\n got  %s\n want %s", line, want[name])
		}
	}
	if update {
		if err := os.WriteFile(filepath.FromSlash(pivotsGolden), []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPivotSequencePinConcurrent solves the pin corpus from four
// goroutines at once, on shared relaxations, while the free-listed
// simplex workspaces and standard-form assemblies pass between them:
// every line must equal the serial one.
func TestPivotSequencePinConcurrent(t *testing.T) {
	cs, lps := pinCorpusLPs(t)
	want, err := pinLines(cs, lps)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = pinLines(cs, lps)
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		for i := range want {
			if got[w][i] != want[i] {
				t.Errorf("goroutine %d diverged from the serial solve:\n got  %s\n want %s", w, got[w][i], want[i])
			}
		}
	}
}
