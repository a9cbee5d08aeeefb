package repro

import (
	"context"

	"repro/internal/bench"
	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/timegrid"
	"repro/internal/topo"
	"repro/internal/validate"
	"repro/internal/workload"
)

// Re-exported problem types.
type (
	// Instance is a coflow scheduling problem: a capacitated network
	// plus weighted coflows.
	Instance = coflow.Instance
	// Coflow is a weighted group of flows sharing a completion time.
	Coflow = coflow.Coflow
	// Flow is a single transfer demand.
	Flow = coflow.Flow
	// Graph is a directed capacitated network.
	Graph = graph.Graph
	// NodeID identifies a graph node.
	NodeID = graph.NodeID
	// EdgeID identifies a directed edge.
	EdgeID = graph.EdgeID
	// TransmissionModel selects single path or free path routing.
	TransmissionModel = coflow.Model
	// Result is a full pipeline outcome (LP bound, heuristic, Stretch):
	// RunReport.Engine.Core of a "stretch" or "heuristic" run.
	Result = core.Result
	// Evaluated is a verified schedule with its metrics.
	Evaluated = core.Evaluated
	// WorkloadConfig parameterizes synthetic workload generation.
	WorkloadConfig = workload.Config
	// WorkloadKind selects one of the paper's four workloads.
	WorkloadKind = workload.Kind
	// SchedulerResult is the uniform outcome type of the scheduler
	// engine: every registered algorithm (Stretch pipeline, λ=1
	// heuristic, Terra, Jahanjou, Sincronia greedy, …) reports through
	// it, so algorithms compare side by side. RunReport.Engine carries
	// it for offline runs.
	SchedulerResult = engine.Result
	// SimOptions tune the online discrete-event simulator (ValidateSim
	// takes them); Spec runs set the same knobs through SpecOptions.
	SimOptions = sim.Options
	// SimResult reports an online simulation: per-coflow completion
	// times, weighted/average CCT, makespan, and the event trace.
	// RunReport.Sim carries it for online runs.
	SimResult = sim.Result
	// Topology is a generated network plus the endpoints workload
	// flows may use (internal/topo).
	Topology = topo.Topology
	// ValidationReport lists every invariant a scheduler output broke
	// (internal/validate); an empty report means the output is valid.
	ValidationReport = validate.Report
	// BenchConfig parameterizes the benchmark-regression harness
	// (internal/bench): the instance-size tier and seeds.
	BenchConfig = bench.Config
	// BenchReport is the machine-readable outcome of a harness run —
	// the BENCH_sim.json format at the repo root.
	BenchReport = bench.Report
	// BenchRegression is one metric that moved past the comparison
	// tolerance between two benchmark reports.
	BenchRegression = bench.Regression
)

// Transmission models (Section 2 of the paper). MultiPath is the
// intermediate model the paper sketches: a fixed candidate path set
// per flow, used concurrently at scheduler-chosen rates.
const (
	SinglePath = coflow.SinglePath
	FreePath   = coflow.FreePath
	MultiPath  = coflow.MultiPath
)

// The paper's four evaluation workloads.
const (
	BigBench = workload.BigBench
	TPCDS    = workload.TPCDS
	TPCH     = workload.TPCH
	FB       = workload.FB
)

// NewGraph returns an empty network.
func NewGraph() *Graph { return graph.New() }

// NewSWAN returns Microsoft's SWAN inter-datacenter WAN (5 DCs, 7
// links) with the given per-link capacity.
func NewSWAN(capacity float64) *Graph { return graph.SWAN(capacity) }

// NewGScale returns Google's G-Scale/B4 WAN (12 DCs, 19 links) with
// the given per-link capacity.
func NewGScale(capacity float64) *Graph { return graph.GScale(capacity) }

// GenerateWorkload builds a reproducible synthetic instance standing
// in for the paper's BigBench/TPC-DS/TPC-H/FB workloads.
func GenerateWorkload(cfg WorkloadConfig) (*Instance, error) {
	return workload.Generate(cfg)
}

// Schedulers lists the names registered with the scheduler engine,
// sorted: "heuristic", "jahanjou", "sincronia-greedy", "stretch",
// "terra", plus any the caller registered.
func Schedulers() []string { return engine.Names() }

// UniformGrid exposes grid construction for callers that size the time
// expansion themselves.
func UniformGrid(slots int) timegrid.Grid { return timegrid.Uniform(slots) }

// SimPolicies lists the online policy names Spec.Policy accepts:
// "fair", "fifo", "las", "sincronia-online", and one
// "epoch:<scheduler>" re-planning adapter per compatible engine
// scheduler.
func SimPolicies() []string { return sim.Names() }

// Topologies lists the topology generator families of internal/topo:
// "big-switch", "erdos-renyi", "fat-tree", "leaf-spine", "line",
// "ring", "random-regular", "star".
func Topologies() []string { return topo.Families() }

// NewTopology builds a network from a generator spec such as
// "fat-tree:k=4" or "erdos-renyi:n=10,p=0.3,seed=7,hetero=1". The spec
// fully determines the graph; see internal/topo for the grammar and
// the per-family parameters. Use the returned Topology's Endpoints as
// WorkloadConfig.Endpoints so flows stay on hosts in switched fabrics.
func NewTopology(spec string) (*Topology, error) { return topo.New(spec) }

// Validate replays a scheduler result against the instance with the
// independent oracle (internal/validate): per-edge capacity in every
// slot, full demand along model-admissible routes, release times, and
// reported completions and aggregates versus the replayed schedule.
// It returns nil when every invariant holds.
func Validate(inst *Instance, res *SchedulerResult) error {
	return validate.Result(inst, res).Err()
}

// ValidateSim replays an online simulation result against the
// instance: trace shape and ordering, completion events versus
// reported completions, aggregates, trivial lower bounds, and per-edge
// volume versus each edge's active window. opt.Clairvoyant must match
// the run's (SpecOptions.Clairvoyant) so the oracle knows the reveal
// convention; the other fields are ignored.
func ValidateSim(inst *Instance, res *SimResult, opt SimOptions) error {
	return validate.SimResult(inst, res, opt.Clairvoyant).Err()
}

// RunBenchmarksContext executes the benchmark-regression suite
// (internal/bench) at the tier named in cfg: simulator throughput
// over the policy × topology × size grid, the BenchmarkSimulateFB
// cell, and the scheduler/LP micro-benchmarks. ctx is checked between
// benchmark cells. The report serializes to BENCH_sim.json via its
// WriteFile method; cmd/coflowsim's -bench flag drives this end to
// end.
func RunBenchmarksContext(ctx context.Context, cfg BenchConfig) (*BenchReport, error) {
	return bench.Run(ctx, cfg)
}

// LoadBenchReport reads a previously written BENCH_sim.json.
func LoadBenchReport(path string) (*BenchReport, error) { return bench.Load(path) }

// CompareBenchmarks diffs cur against the prev baseline and returns
// every regression beyond the relative tolerance (0 = 0.25): a
// benchmark's events/sec dropping by more than tol, or its allocs/op
// growing by more than tol. Missing counterparts and cross-tier
// reports are skipped, so a fresh machine's first run never fails.
func CompareBenchmarks(prev, cur *BenchReport, tol float64) []BenchRegression {
	return bench.Compare(prev, cur, tol)
}
