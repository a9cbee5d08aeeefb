package baselines

import (
	"math"

	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// Sincronia-style bottleneck-ordering greedy (after Agarwal et al.,
// SIGCOMM 2018). Sincronia showed that for switch-based coflows, any
// order produced by its Bottleneck-Select-Scale-Iterate (BSSI)
// primal-dual is a 4-approximation once combined with greedy rate
// allocation. Here the same ordering idea is lifted to the network
// setting of this paper's single path model: the "port" of the
// original algorithm becomes a network edge, and a coflow's demand on
// an edge is the total demand of its flows routed through that edge.
// The resulting permutation feeds the same strict-priority
// water-filling used by the Jahanjou baseline, giving an LP-free
// ordering baseline to compare against the LP pipeline.

// SincroniaOrder computes the BSSI permutation: repeatedly find the
// most bottlenecked edge (largest total unscheduled demand), schedule
// LAST the coflow with the largest demand-to-scaled-weight ratio on
// that edge, and scale down the remaining coflows' weights by their
// share of the chosen coflow's weight. The returned slice lists coflow
// indices from the first to run to the last. Requires single path
// flows (Paths set); ties break by coflow index for determinism.
// Each call orders with a fresh SincroniaScratch; a caller ordering
// many instances in turn keeps one and calls its Order instead.
func SincroniaOrder(inst *coflow.Instance) []int {
	return new(SincroniaScratch).Order(inst)
}

// SincroniaScratch holds the buffers of the BSSI ordering, so that a
// caller ordering many instances in turn — the online re-planner
// orders the residual backlog at every arrival — allocates only when
// an instance outgrows every earlier one. The zero value is ready to
// use; a scratch must not be shared between goroutines.
//
// The demand a coflow places on an edge (the total demand of its flows
// routed through it) is stored sparsely, twice:
//
//   - CSR, per coflow: rowEdge/rowVal[rowOff[j]:rowOff[j+1]] list the
//     distinct edges coflow j's paths cross, with its demand on each.
//     Scheduling a coflow subtracts its row from the per-edge
//     unscheduled totals, so a pick costs its own edges, not all edges.
//   - CSC, per edge: colJ/colVal[colOff[e]:colEnd[e]] list the coflows
//     with positive demand on e (its touchers), ascending, with that
//     demand. Selection and scaling walk only the bottleneck's
//     touchers; scheduled ones are compacted out lazily by lowering
//     colEnd[e]. Skipping a zero-demand coflow is exact: its selection
//     key was never computed and its scaling term is a literal ±0.0,
//     whose subtraction cannot change a float that is never −0.
//
// Every float is summed in the order a dense coflows × edges matrix
// gives — per-edge totals in ascending coflow order — and the
// bottleneck is a linear scan with a 1e-12 tie rule, so the
// permutation is bit-identical to re-summing every unscheduled coflow
// at every pick (TestSincroniaOrderIncrementalMatchesRescan pins it).
// A pick costs O(edges) for the bottleneck scan plus the picked
// coflow's row and the bottleneck's touchers.
type SincroniaScratch struct {
	rowOff  []int32
	rowEdge []graph.EdgeID
	rowVal  []float64
	colOff  []int32
	colEnd  []int32
	colJ    []int32
	colVal  []float64

	acc    []float64 // acc[e]: demand of the coflow being indexed on e
	stamp  []int32   // stamp[e] == j+1 once coflow j has a row entry on e
	tot    []float64 // per-edge demand over unscheduled coflows
	scaled []float64 // w̃_j, mutated as coflows are placed
	sched  []bool
	order  []int
}

// Order computes the BSSI permutation of inst, as SincroniaOrder does,
// into the scratch's buffers. The returned slice is owned by s and
// valid until the next call.
func (s *SincroniaScratch) Order(inst *coflow.Instance) []int {
	nc := len(inst.Coflows)
	ne := inst.Graph.NumEdges()
	acc := resize(s.acc, ne)
	stamp := resize(s.stamp, ne)
	tot := resize(s.tot, ne)
	colOff := resize(s.colOff, ne+1)
	colEnd := resize(s.colEnd, ne)
	clear(stamp)
	clear(tot)
	clear(colEnd) // per-edge toucher counts until the offsets are known

	// CSR rows in ascending coflow order. Each row entry accumulates
	// its coflow's flows in flow and path order from 0, and the totals
	// add whole rows in coflow order: a dense matrix's summation order.
	rowOff := append(s.rowOff[:0], 0)
	rowEdge, rowVal := s.rowEdge[:0], s.rowVal[:0]
	for j := range inst.Coflows {
		start := len(rowEdge)
		for _, fl := range inst.Coflows[j].Flows {
			for _, e := range fl.Path {
				if stamp[e] != int32(j+1) {
					stamp[e] = int32(j + 1)
					acc[e] = 0
					rowEdge = append(rowEdge, e)
				}
				acc[e] += fl.Demand
			}
		}
		for _, e := range rowEdge[start:] {
			v := acc[e]
			rowVal = append(rowVal, v)
			tot[e] += v
			if v > 0 {
				colEnd[e]++
			}
		}
		rowOff = append(rowOff, int32(len(rowEdge)))
	}
	// CSC columns: offsets from the toucher counts, then the row entries
	// dealt out in ascending coflow order, so each column ascends.
	colOff[0] = 0
	for e := 0; e < ne; e++ {
		colOff[e+1] = colOff[e] + colEnd[e]
		colEnd[e] = colOff[e]
	}
	colJ := resize(s.colJ, int(colOff[ne]))
	colVal := resize(s.colVal, int(colOff[ne]))
	for j := 0; j < nc; j++ {
		for p := rowOff[j]; p < rowOff[j+1]; p++ {
			if v := rowVal[p]; v > 0 {
				e := rowEdge[p]
				colJ[colEnd[e]], colVal[colEnd[e]] = int32(j), v
				colEnd[e]++
			}
		}
	}

	scaled := resize(s.scaled, nc)
	sched := resize(s.sched, nc)
	order := resize(s.order, nc)
	clear(sched)
	for j := range inst.Coflows {
		scaled[j] = inst.Coflows[j].Weight
	}
	head := 0 // lowest unscheduled coflow, once advanced past sched ones
	for k := nc - 1; k >= 0; k-- {
		// Most bottlenecked edge among unscheduled coflows.
		bottleneck, load := 0, -1.0
		for e := 0; e < ne; e++ {
			if tot[e] > load+1e-12 {
				bottleneck, load = e, tot[e]
			}
		}
		// Weighted-largest job on the bottleneck goes last. A scaled
		// weight at (or below) zero means the coflow's urgency is spent:
		// it is always preferred for the last slot. Walking the
		// ascending toucher list (compacting out scheduled coflows as
		// we go) preserves the ascending-index tie-break.
		best, bestKey, dbb := -1, math.Inf(-1), 0.0
		lo, w := colOff[bottleneck], colOff[bottleneck]
		for p := lo; p < colEnd[bottleneck]; p++ {
			j := colJ[p]
			if sched[j] {
				continue
			}
			v := colVal[p]
			colJ[w], colVal[w] = j, v
			w++
			key := math.Inf(1)
			if scaled[j] > 1e-12 {
				key = v / scaled[j]
			}
			if key > bestKey {
				best, bestKey, dbb = int(j), key, v
			}
		}
		colEnd[bottleneck] = w
		if best < 0 {
			// No unscheduled coflow touches the bottleneck (e.g. zero
			// residual demand everywhere); place the lowest index.
			for sched[head] {
				head++
			}
			best = head
		}
		order[k] = best
		sched[best] = true
		for p := rowOff[best]; p < rowOff[best+1]; p++ {
			tot[rowEdge[p]] -= rowVal[p]
		}
		// Scale: charge each remaining coflow its proportional share of
		// the chosen coflow's scaled weight (the primal-dual step).
		// Coflows off the bottleneck keep their weight exactly (their
		// share is a true zero), so only touchers are visited.
		if dbb > 1e-12 {
			sb := scaled[best]
			for p := lo; p < w; p++ {
				if j := colJ[p]; !sched[j] {
					scaled[j] -= sb * colVal[p] / dbb
				}
			}
		}
	}
	s.acc, s.stamp, s.tot, s.colOff, s.colEnd = acc, stamp, tot, colOff, colEnd
	s.rowOff, s.rowEdge, s.rowVal, s.colJ, s.colVal = rowOff, rowEdge, rowVal, colJ, colVal
	s.scaled, s.sched, s.order = scaled, sched, order
	return order
}

// resize returns b with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Sincronia runs the full baseline: BSSI ordering followed by
// strict-priority water-filling on a uniform grid of `slots` slots.
// Single path model only.
func Sincronia(inst *coflow.Instance, slots int) (*schedule.Schedule, error) {
	if err := inst.Validate(coflow.SinglePath); err != nil {
		return nil, err
	}
	return PriorityFill(inst, SincroniaOrder(inst), slots)
}

// SincroniaAdaptive runs Sincronia on ceil(horizon)+1 slots under
// core.Grow, at 2×, 4× and 8× that many while the strict-priority fill
// runs out of slots. Water-filling under a rigid order can need more
// time than an LP-sized horizon, so this retry is part of the
// baseline's contract; other errors (e.g. missing paths) surface
// immediately.
func SincroniaAdaptive(inst *coflow.Instance, horizon float64) (*schedule.Schedule, error) {
	return core.Grow(math.Ceil(horizon)+1, func(slots float64) (*schedule.Schedule, error) {
		return Sincronia(inst, int(slots))
	})
}
