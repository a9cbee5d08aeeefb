package main

import (
	"math"
	"slices"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the library or the service sees,
// reported for every workload by every untraced run. None of them can
// be 0: a failed op is counted in the result's "failed" field instead
// of a fail-ratio metric, and the quality ratio is taken against a
// lower bound every op has.
//
// The wall-clock bounds are the widest allowed, 0.25: on a shared
// 2-vCPU VM, ten runs of identical work spread 3–15% (IQR over median,
// up to 30% for the service when the host is busy), which longer runs
// within the time budget do not remove. Peak RSS moves with the garbage
// collector's timing as much (coflowd's by up to 15%). Allocation and
// schedule quality are nearly deterministic and get tight bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"coflows_per_s", "coflows/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ratio_vs_lb", "ratio", "lower", 0.01},
}

// perLayer are the traced run's metrics, named after the module whose
// public calls they time or count. Times and counts are means per op;
// ratios are taken over the run's totals.
var perLayer = []metricDef{
	{"spec.normalize_ms", "ms", "lower", 0},
	{"workload.generate_ms", "ms", "lower", 0},
	{"engine.schedule_ms", "ms", "lower", 0},
	{"engine.schedules", "count", "lower", 0},
	{"model.build_ms", "ms", "lower", 0},
	{"model.rows", "count", "lower", 0},
	{"model.nnz", "count", "lower", 0},
	{"simplex.solve_ms", "ms", "lower", 0},
	{"simplex.solves", "count", "lower", 0},
	{"simplex.pivots", "count", "lower", 0},
	{"simplex.refactorizations", "count", "lower", 0},
	{"simplex.perturbations", "count", "lower", 0},
	{"simplex.repairs", "count", "lower", 0},
	{"simplex.retries", "count", "lower", 0},
	{"simplex.devex_pass_ratio", "ratio", "higher", 0},
	{"simplex.warm_accept_ratio", "ratio", "higher", 0},
	{"lu.factorizations", "count", "lower", 0},
	{"lu.fill_nnz", "count", "lower", 0},
	{"core.grid_retries", "count", "lower", 0},
	{"core.grid_preskips", "count", "higher", 0},
	{"core.heuristic_ms", "ms", "lower", 0},
	{"schedule.stretch_ms", "ms", "lower", 0},
	{"schedule.compact_ms", "ms", "lower", 0},
	{"schedule.verify_ms", "ms", "lower", 0},
	{"sim.simulate_ms", "ms", "lower", 0},
	{"sim.allocate_ms", "ms", "lower", 0},
	{"sim.loop_self_ms", "ms", "lower", 0},
	{"sim.adapter_self_ms", "ms", "lower", 0},
	{"sim.allocate_share", "ratio", "lower", 0},
	{"sim.alloc_calls", "count", "lower", 0},
	{"sim.loop_events", "count", "lower", 0},
	{"sim.replans", "count", "lower", 0},
	{"sim.check_incremental_ms", "ms", "lower", 0},
	{"sim.las_splice_mean", "count", "lower", 0},
	{"sim.fair_freeze_rounds_mean", "count", "lower", 0},
	{"validate.result_ms", "ms", "lower", 0},
	{"validate.sim_ms", "ms", "lower", 0},
	{"encode.report_ms", "ms", "lower", 0},
	{"encode.report_bytes", "bytes", "lower", 0},
	{"http.client_ms", "ms", "lower", 0},
	{"http.server_ms", "ms", "lower", 0},
	{"http.transport_ms", "ms", "lower", 0},
	{"http.semaphore_wait_ms", "ms", "lower", 0},
	{"http.non_2xx", "count", "lower", 0},
	{"http.response_bytes", "bytes", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"cache.evictions", "count", "lower", 0},
	{"trace.op_ms", "ms", "lower", 0},
	{"trace.overhead_ms", "ms", "lower", 0},
	{"trace.attributed_share", "ratio", "higher", 0},
}

// value is one reported metric, in the result line's format.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// percentile returns the p-th percentile (0 < p ≤ 100) of xs,
// interpolating linearly between closest ranks; p = 100 is the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile is the highest of p75, p90, p99 and p99.9 that leaves
// at least ten of n samples beyond it, or 100 (the maximum) when none
// does. Workloads fix their tail percentile from their design op count
// with this rule.
func tailPercentile(n int) float64 {
	for _, perMille := range []int{999, 990, 900, 750} {
		if n*(1000-perMille)/1000 >= 10 {
			return float64(perMille) / 10
		}
	}
	return 100
}

// geomean is the geometric mean of positive xs (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// relSpread is (max−min)/median of a metric's per-set values: the
// repeatability figure -sets compares against the metric's bound.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return (slices.Max(xs) - slices.Min(xs)) / math.Abs(median(xs))
}
