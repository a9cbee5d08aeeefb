// Package repro is a from-scratch Go implementation of "Near Optimal
// Coflow Scheduling in Networks" (Chowdhury, Khuller, Purohit, Yang,
// You — SPAA 2019): the randomized 2-approximation "Stretch" algorithm
// for scheduling coflows over general network topologies, in both the
// single path and the free path transmission models, together with
// everything needed to reproduce the paper's evaluation — a sparse
// revised-simplex LP solver (the Gurobi substitute), the SWAN and
// G-Scale WAN topologies, synthetic BigBench/TPC-DS/TPC-H/Facebook
// workloads, and the Jahanjou et al. and Terra baselines.
//
// The front door is declarative: a Spec names the topology, workload,
// transmission model, and algorithm — an offline engine scheduler or
// an online sim policy — and Run(ctx, Spec) executes it into one
// unified RunReport. SweepSpec crosses Spec axes (schedulers ×
// policies × topologies × workloads × loads × seeds) and Sweep
// streams the cells as they finish, lazily expanded so arbitrarily
// large grids run in O(workers) memory. Specs round-trip through
// JSON; the same document drives this API, cmd/coflowsim -spec, and
// the cmd/coflowd HTTP service to the identical report.
//
// Every algorithm — the Stretch pipeline, the λ=1 heuristic, and the
// baselines (including a Sincronia-style bottleneck greedy) — is
// registered with the scheduler engine (internal/engine) and runs by
// name; Schedulers lists the registry. Stretch roundings run on a
// worker pool with per-trial λs derived from the seed, so results
// are reproducible at any worker count.
//
// Online runs use internal/sim: a discrete-event simulator that
// reveals coflows at their release times and re-plans with a named
// policy — non-clairvoyant baselines, online Sincronia, or an epoch
// adapter around any engine scheduler (SimPolicies lists them).
//
// NewTopology generates datacenter-style and adversarial networks from
// spec strings like "fat-tree:k=4" (internal/topo; Topologies lists
// the families), and Validate/ValidateSim replay any result through
// the independent validity oracle (internal/validate) — the engine of
// the scheduler × topology × model conformance matrix in the test
// suite.
//
// Run is this package's one scheduling entry point; the rest
// re-exports the internal packages' types, constructors, and oracle.
// An instance built in memory runs the same way as a generated one:
// Spec{Instance: inst, Model: "free", Scheduler: "stretch"} returns the
// full pipeline outcome in RunReport.Engine.Core. See README.md for the
// architecture and cmd/coflowsim for the experiment driver that
// regenerates every figure of the paper.
//
//	rep, _ := repro.Run(ctx, repro.Spec{
//	    Topology:  "fat-tree:k=4",
//	    Workload:  &repro.SpecWorkload{Kind: "fb", Coflows: 10, Seed: 1},
//	    Scheduler: "stretch",
//	})
//	fmt.Println(rep.LowerBound, rep.Weighted)
package repro
