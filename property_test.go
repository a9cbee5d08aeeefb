package repro_test

// Quickcheck-style property tests: seeded random small instances on
// randomly drawn topologies go through every registered scheduler, and
// two properties must hold for every output:
//
//  1. the independent oracle (internal/validate) reports zero
//     invariant violations — capacity, release, demand, routing,
//     reported-vs-replayed completions;
//  2. every coflow completion respects the trivial lower bound
//     max_i (release_i + demand_i / bottleneck-rate_i).
//
// The RNG is fixed, so a failure reproduces exactly; bump iterations
// locally when hunting for counterexamples.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	repro "repro"
	"repro/internal/engine"
	"repro/internal/validate"
)

// randomSpec draws a small topology spec.
func randomSpec(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("line:n=%d", 3+rng.Intn(3))
	case 1:
		return fmt.Sprintf("ring:n=%d", 3+rng.Intn(3))
	case 2:
		return fmt.Sprintf("star:n=%d", 2+rng.Intn(3))
	case 3:
		return fmt.Sprintf("big-switch:n=%d", 2+rng.Intn(3))
	case 4:
		return fmt.Sprintf("random-regular:n=6,d=3,seed=%d", 1+rng.Intn(50))
	default:
		return fmt.Sprintf("erdos-renyi:n=6,p=0.5,seed=%d,hetero=%d", 1+rng.Intn(50), rng.Intn(2))
	}
}

// randomInstance draws a small instance on the topology: 1–3 coflows
// of 1–2 flows with fractional demands, integer releases, and random
// weights, with paths and candidate path sets assigned.
func randomInstance(t *testing.T, rng *rand.Rand, top *repro.Topology) *repro.Instance {
	t.Helper()
	in := &repro.Instance{Graph: top.Graph}
	eps := top.Endpoints
	nc := 1 + rng.Intn(3)
	for j := 0; j < nc; j++ {
		c := repro.Coflow{
			ID:      j,
			Weight:  1 + 9*rng.Float64(),
			Release: float64(rng.Intn(4)),
		}
		nf := 1 + rng.Intn(2)
		for i := 0; i < nf; i++ {
			src := eps[rng.Intn(len(eps))]
			dst := eps[rng.Intn(len(eps))]
			for dst == src {
				dst = eps[rng.Intn(len(eps))]
			}
			c.Flows = append(c.Flows, repro.Flow{
				Source: src, Sink: dst,
				Demand: 0.1 + 3.9*rng.Float64(),
			})
		}
		in.Coflows = append(in.Coflows, c)
	}
	if err := in.AssignRandomShortestPaths(rand.New(rand.NewSource(rng.Int63()))); err != nil {
		t.Fatal(err)
	}
	if err := in.AssignKShortestPaths(2); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPropertySchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	const iterations = 6
	for iter := 0; iter < iterations; iter++ {
		spec := randomSpec(rng)
		top, err := repro.NewTopology(spec)
		if err != nil {
			t.Fatalf("iter %d: topology %s: %v", iter, spec, err)
		}
		in := randomInstance(t, rng, top)
		seed := rng.Int63()
		for _, name := range repro.Schedulers() {
			s, err := engine.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []repro.TransmissionModel{repro.SinglePath, repro.FreePath, repro.MultiPath} {
				if !s.Supports(mode) {
					continue
				}
				res, err := schedule(name, in, mode,
					repro.SpecOptions{MaxSlots: 12, Trials: 1, Seed: seed})
				if err != nil {
					t.Fatalf("iter %d (%s): %s (%v): %v", iter, spec, name, mode, err)
				}
				if rep := validate.Result(in, res); !rep.OK() {
					t.Fatalf("iter %d (%s): %s (%v): %v", iter, spec, name, mode, rep.Err())
				}
				// Property 2, asserted explicitly even though the oracle
				// also checks it: CCT ≥ the trivial lower bound.
				lbs := validate.CoflowLowerBounds(in, mode)
				for j, c := range res.Completions {
					if !math.IsInf(lbs[j], 1) && c < lbs[j]-1e-6*math.Max(1, lbs[j]) {
						t.Fatalf("iter %d (%s): %s (%v): coflow %d finishes at %g < bound %g",
							iter, spec, name, mode, j, c, lbs[j])
					}
				}
			}
		}
	}
}
