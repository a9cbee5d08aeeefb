package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/spec"
	"repro/internal/stats"
)

// op is one call through a front door: spec.Run for the library
// workloads, one POST /v1/run for the service.
type op struct {
	Class string
	Spec  spec.Spec
	// Ref is the index of the earlier service request this one repeats
	// byte for byte (-1 for a fresh request).
	Ref int
	// body is the request document (service only).
	body []byte
}

// workload is one named benchmark input. Library workloads run whole
// rounds of ops until the run's duration has passed: every round has
// the same classes and instance sizes, so the metrics of a run do not
// depend on where its clock ran out. The service sends a request list
// until the duration has passed.
type workload struct {
	Name string
	Why  string
	// Tail is the percentile op_tail_ms reports, fixed from the op
	// count the workload is sized for, so a run that completes a few
	// more or fewer ops does not switch percentiles.
	Tail float64
	// Coflows sizes each op's instance; Corpus is the number of
	// distinct instances a library round cycles through. Tests shrink
	// both.
	Coflows int
	Corpus  int
	Service bool
	// round builds library round r (nil for the service).
	round func(w *workload, seed int64, r int) []op
}

// The instance corpora are fixed and --seed drives everything else:
// the algorithms' random seeds, the order of ops, and the service's
// request mix. LP solve times of the paper's instances spread over two
// orders of magnitude (14 ms to 1 s for the 8-coflow cell), so a run
// that drew fresh instances from the seed would measure which instances
// it drew; with fixed corpora, runs at different seeds measure the same
// work and their spread is the machine's.
var workloads = []*workload{
	{
		Name:    "offline-lp",
		Why:     "the paper's Figure-9 cell (stretch, 8 coflows on SWAN, 48 slots, 20 trials); simplex solve is nearly all of an op, sim and coflowd are bypassed",
		Tail:    tailPercentile(48), // 3 rounds of 16 ops at 20 s
		Coflows: 8,
		Corpus:  16,
		round:   offlineRound,
	},
	{
		Name:    "online-backlog",
		Why:     "fifo, las, fair and sincronia-online on 10000 coflows at a growing backlog: the sim event loop against Policy.Allocate, with no LP",
		Tail:    tailPercentile(8), // 2 rounds of 4 ops
		Coflows: 10000,
		Corpus:  2,
		round:   backlogRound,
	},
	{
		Name:    "online-replan",
		Why:     "epoch:stretch with 8 slots re-plans every arrival with a small warm-started LP, next to the capped-grid cliff; seed 15, which falls off it, is left out",
		Tail:    tailPercentile(30), // 3 rounds of 10 ops at 20 s
		Coflows: 100,
		Corpus:  10,
		round:   replanRound,
	},
	{
		Name:    "service",
		Why:     "coflowd over 2 loopback connections with a 20% repeat mix: HTTP, JSON, cache and semaphore carry a real share; instances that fail the oracle are left out",
		Tail:    tailPercentile(4000), // 4000–5500 requests at 20 s
		Coflows: 64,
		Service: true,
	},
}

// workloadByName returns a copy of the named workload, so callers may
// resize it.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			c := *w
			return &c, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// offlineRound is one pass over the Figure-9 corpus, workload seeds
// 1..Corpus in order. Each op draws its Stretch λs from its own seed.
func offlineRound(w *workload, seed int64, r int) []op {
	ops := make([]op, w.Corpus)
	for i := range ops {
		ops[i] = op{Class: "stretch", Ref: -1, Spec: spec.Spec{
			Scheduler: "stretch",
			Workload:  &spec.Workload{Coflows: w.Coflows, Seed: int64(1 + i)},
			Options:   spec.Options{Seed: stats.SubSeed(seed, uint64(r*w.Corpus+i)), Workers: 1},
			Validate:  true,
		}}
	}
	return ops
}

// backlogPolicies are the online-backlog classes.
var backlogPolicies = []string{"fifo", "las", "fair", "sincronia-online"}

// backlogRound runs every policy once on corpus instance r mod Corpus,
// in an order drawn from the seed. The policies are deterministic, so
// the seed changes only that order.
func backlogRound(w *workload, seed int64, r int) []op {
	rng := rand.New(rand.NewSource(stats.SubSeed(seed, uint64(r))))
	ops := make([]op, len(backlogPolicies))
	for k, i := range rng.Perm(len(backlogPolicies)) {
		p := backlogPolicies[i]
		ops[k] = op{Class: p, Ref: -1, Spec: spec.Spec{
			Policy:   p,
			Topology: "leaf-spine:leaves=8,spines=4,hosts=4",
			Workload: &spec.Workload{Coflows: w.Coflows, Seed: int64(1 + r%w.Corpus), MeanInterarrival: 0.25},
			Options:  spec.Options{Seed: seed, Workers: 1},
			Validate: true,
		}}
	}
	return ops
}

// replanRound is one pass over the re-planning corpus, workload seeds
// 1..Corpus. With 8 slots the re-plan grid is capped at 32, which is
// the epoch:stretch cliff: of workload seeds 1–24, seed 15 ends with a
// residual LP that is infeasible on the capped grid, whatever the
// algorithm seed. The corpus stops before it, so no op fails.
func replanRound(w *workload, seed int64, r int) []op {
	ops := make([]op, w.Corpus)
	for i := range ops {
		ops[i] = op{Class: "epoch:stretch", Ref: -1, Spec: spec.Spec{
			Policy:   "epoch:stretch",
			Workload: &spec.Workload{Coflows: w.Coflows, Seed: int64(1 + i), MeanInterarrival: 4},
			Options: spec.Options{
				MaxSlots: 8, Trials: 1, WarmLP: true, Workers: 1,
				Seed: stats.SubSeed(seed, uint64(r*w.Corpus+i)),
			},
			Validate: true,
		}}
	}
	return ops
}

// serviceClass is one kind of fresh service request. Its requests walk
// a corpus of workload seeds the oracle accepts, round robin from a
// starting point drawn from the seed, so every run covers the corpus
// evenly however its requests fall; each carries a fresh algorithm
// seed, so no two fresh requests share a cache key.
type serviceClass struct {
	name  string
	share float64
	// base and n delimit the corpus of workload seeds.
	base, n int64
	spec    func(coflowScale int, wseed, oseed int64) spec.Spec
}

// serviceClasses are the fresh request kinds; the remaining 20% of
// requests repeat a fresh one. The sincronia-greedy corpus starts at
// seed 300 because seeds 95, 223 and 686 fail the oracle (a reported
// completion one slot off its replay).
var serviceClasses = []serviceClass{
	{"sincronia-greedy", 0.4, 300, 256, func(scale int, ws, as int64) spec.Spec {
		return spec.Spec{Scheduler: "sincronia-greedy", Workload: &spec.Workload{Coflows: scale, Seed: ws},
			Options: spec.Options{Seed: as}, Validate: true}
	}},
	{"las", 0.3, 1, 256, func(scale int, ws, as int64) spec.Spec {
		return spec.Spec{Policy: "las", Workload: &spec.Workload{Coflows: scale * 500 / 64, Seed: ws},
			Options: spec.Options{Seed: as}, Validate: true}
	}},
	{"stretch", 0.1, 1, 64, func(scale int, ws, as int64) spec.Spec {
		return spec.Spec{Scheduler: "stretch", Workload: &spec.Workload{Coflows: max(2, scale/16), Seed: ws},
			Options: spec.Options{MaxSlots: 24, Seed: as}, Validate: true}
	}},
}

// serviceRequests draws n requests from the seed. A repeat resends the
// fresh request 2–200 requests back (the nearest fresh one at or before
// that distance), which keeps it inside the 256-entry FIFO cache:
// uniform repeats over the whole history would mostly miss.
func serviceRequests(w *workload, seed int64, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	next := make([]int64, len(serviceClasses))
	for k, c := range serviceClasses {
		next[k] = rng.Int63n(c.n)
	}
	reqs := make([]op, 0, n)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		if u >= 0.8 && i < 2 {
			u = rng.Float64() * 0.8 // nothing to repeat yet
		}
		if u >= 0.8 {
			ref := max(0, i-2-rng.Intn(199))
			for reqs[ref].Ref >= 0 {
				ref--
			}
			o := reqs[ref]
			o.Class, o.Ref = "repeat", ref
			reqs = append(reqs, o)
			continue
		}
		k := 0
		for ; k < len(serviceClasses)-1 && u >= serviceClasses[k].share; k++ {
			u -= serviceClasses[k].share
		}
		c := serviceClasses[k]
		s := c.spec(w.Coflows, c.base+next[k]%c.n, rng.Int63())
		next[k]++
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, op{Class: c.name, Spec: s, Ref: -1, body: body})
	}
	return reqs, nil
}
