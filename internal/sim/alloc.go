package sim

import (
	"slices"

	"repro/internal/coflow"
	"repro/internal/graph"
)

// FlowRate is one entry of a sparse rate assignment: flow Flow of
// coflow Coflow transmits at Rate until the next event.
type FlowRate struct {
	Coflow, Flow int
	Rate         float64
}

// Alloc is the sparse rate assignment a Policy fills in: one entry per
// flow granted a positive rate, instead of the dense
// coflows × flows matrix the simulator used before it scaled to
// 100k-coflow instances. The simulator owns one Alloc per run and
// hands it to the policy at every event, so a policy appends into a
// reusable buffer and the event loop stays free of per-event garbage.
//
// Contract (enforced by the simulator's allocation checker):
//
//   - entries for one coflow are contiguous, with strictly ascending
//     flow indices inside the group (the order PriorityRates and the
//     fair filling naturally produce);
//   - every entry names an active coflow and, when Rate > eps, a flow
//     that is unfinished and released at State.Now;
//   - per-edge loads stay within capacity.
//
// Entries with Rate ≤ eps are permitted (they are ignored by the
// advance) but pointless; builders should skip them.
type Alloc struct {
	// Entries is the sparse assignment, grouped by coflow.
	Entries []FlowRate

	// Water-filling scratch shared by PriorityRates: residual is kept
	// equal to caps between calls, dirty records the edges a call must
	// restore, and satBase counts edges born without usable capacity.
	// Lazily built for g on first use and rebuilt whenever the graph
	// changes — keying on identity, not edge count, so an Alloc reused
	// across same-sized graphs with different capacities cannot
	// water-fill against stale ones.
	g        *graph.Graph
	caps     []float64
	residual []float64
	dirty    []graph.EdgeID
	satBase  int

	// Flattened per-instance path index (see ensurePaths): the hot
	// per-event loops walk paths for every candidate flow, and loading
	// each path's slice header out of its Flow struct was the single
	// largest cache-miss source in the policy profiles. flowBase[j]+i
	// indexes flow i of coflow j; its path is
	// pathEdges[pathOff[flowBase[j]+i] : pathOff[flowBase[j]+i+1]].
	inst      *coflow.Instance
	flowBase  []int32
	pathOff   []int32
	pathEdges []graph.EdgeID

	// live[j] holds coflow j's not-yet-finished flow indices, ascending.
	// Policies iterating a coflow's flows filter on remaining > eps
	// anyway; since remaining only decreases within a run, a flow that
	// fails the filter once fails it forever, so the scans compact it
	// out of live[j] permanently instead of re-testing it every event.
	// The lists only shrink, in place, over the shared liveBuf backing,
	// and every shrink goes through shrinkLive.
	live    [][]int32
	liveBuf []int32

	// Edge buckets for PriorityRates' blocked-coflow skip, built with
	// the path index. Every flow crosses its first and its last edge,
	// so a coflow is blocked when the first edges of all its live flows
	// are saturated, or their last edges all are. first buckets the
	// edges that are some flow's first edge, last the last edges, and
	// masks[j] holds the buckets of coflow j's live flows. shrinkLive
	// keeps the masks tight; a stale superset would stay sound, but
	// would skip less.
	first, last edgeBuckets
	masks       []bucketMask
}

// bucketMask is one coflow's first- and last-edge bucket bits.
type bucketMask struct{ first, last uint64 }

// edgeBuckets spreads one end's edges, the first edges of all paths or
// the last, over 64 buckets: edge e's bucket of[e] is its rank among
// those edges in edge-ID order, mod 64 (-1 when e ends no path).
// base[b] counts bucket b's edges with capacity > eps, and sat0 has a
// bit set for each bucket without one.
type edgeBuckets struct {
	of   []int8
	base [64]int32
	sat0 uint64
}

// build buckets the edges end(f) returns for the flows f < flows.
func (eb *edgeBuckets) build(g *graph.Graph, flows int, end func(f int) graph.EdgeID) {
	ne := g.NumEdges()
	eb.of = slices.Grow(eb.of[:0], ne)[:ne]
	for e := range eb.of {
		eb.of[e] = -1
	}
	for f := 0; f < flows; f++ {
		eb.of[end(f)] = 0 // an end; ranked below
	}
	eb.base, eb.sat0 = [64]int32{}, 0
	n := 0
	for _, e := range g.Edges() {
		if eb.of[e.ID] < 0 {
			continue
		}
		b := n % 64
		eb.of[e.ID] = int8(b)
		n++
		if e.Capacity > eps {
			eb.base[b]++
		}
	}
	for b, c := range eb.base {
		if c == 0 {
			eb.sat0 |= 1 << b
		}
	}
}

// bucketFill is one PriorityRates call's view of an edgeBuckets: the
// unsaturated edges left per bucket, and the buckets with none left.
type bucketFill struct {
	left [64]int32
	sat  uint64
}

func (eb *edgeBuckets) fill() bucketFill { return bucketFill{eb.base, eb.sat0} }

// saturate records the first saturation of an edge in bucket b (-1:
// an edge in no bucket).
func (bf *bucketFill) saturate(b int8) {
	if b < 0 {
		return
	}
	if bf.left[b]--; bf.left[b] == 0 {
		bf.sat |= 1 << b
	}
}

// Reset clears the entries, keeping the buffers.
func (a *Alloc) Reset() { a.Entries = a.Entries[:0] }

// Grant appends one sparse entry. Callers must respect the grouping
// contract: all entries of a coflow together, flows ascending.
func (a *Alloc) Grant(j, i int, rate float64) {
	a.Entries = append(a.Entries, FlowRate{Coflow: j, Flow: i, Rate: rate})
}

// ensureScratch sizes the water-filling scratch for g. residual is
// (re-)initialized to the edge capacities; callers restore it via the
// dirty list so the next call starts clean without an O(edges) sweep.
func (a *Alloc) ensureScratch(g *graph.Graph) {
	if a.g == g {
		return
	}
	a.g = g
	a.caps = make([]float64, g.NumEdges())
	a.satBase = 0
	for _, e := range g.Edges() {
		a.caps[e.ID] = e.Capacity
		if e.Capacity <= eps {
			a.satBase++
		}
	}
	a.residual = append(a.residual[:0], a.caps...)
	a.dirty = a.dirty[:0]
}

// ensurePaths builds the flattened path index for inst, once per
// instance identity: three dense arrays replacing the pointer chase
// through coflow.Flow structs in the per-event inner loops.
func (a *Alloc) ensurePaths(inst *coflow.Instance) {
	if a.inst == inst {
		return
	}
	a.inst = inst
	nc := len(inst.Coflows)
	a.flowBase = a.flowBase[:0]
	a.pathOff = a.pathOff[:0]
	a.pathEdges = a.pathEdges[:0]
	total := int32(0)
	for j := 0; j < nc; j++ {
		a.flowBase = append(a.flowBase, total)
		total += int32(len(inst.Coflows[j].Flows))
	}
	a.flowBase = append(a.flowBase, total)
	off := int32(0)
	for j := 0; j < nc; j++ {
		for i := range inst.Coflows[j].Flows {
			a.pathOff = append(a.pathOff, off)
			path := inst.Coflows[j].Flows[i].Path
			a.pathEdges = append(a.pathEdges, path...)
			off += int32(len(path))
		}
	}
	a.pathOff = append(a.pathOff, off)
	if cap(a.liveBuf) < int(total) {
		a.liveBuf = make([]int32, total)
	}
	a.liveBuf = a.liveBuf[:total]
	a.live = a.live[:0]
	for j := 0; j < nc; j++ {
		lo := a.flowBase[j]
		lv := a.liveBuf[lo:a.flowBase[j+1]:a.flowBase[j+1]]
		for i := range lv {
			lv[i] = int32(i)
		}
		a.live = append(a.live, lv)
	}
	// Paths are non-empty: the single path model requires one.
	a.first.build(inst.Graph, int(total), func(f int) graph.EdgeID { return a.pathEdges[a.pathOff[f]] })
	a.last.build(inst.Graph, int(total), func(f int) graph.EdgeID { return a.pathEdges[a.pathOff[f+1]-1] })
	a.masks = slices.Grow(a.masks[:0], nc)[:nc]
	for j := range a.live {
		a.setMask(j)
	}
}

// setMask recomputes coflow j's bucket masks from live[j].
func (a *Alloc) setMask(j int) {
	var m bucketMask
	fb := a.flowBase[j]
	for _, i := range a.live[j] {
		fi := fb + i
		m.first |= 1 << a.first.of[a.pathEdges[a.pathOff[fi]]]
		m.last |= 1 << a.last.of[a.pathEdges[a.pathOff[fi+1]-1]]
	}
	a.masks[j] = m
}

// shrinkLive keeps the first w entries of live[j], which the caller
// has compacted in place, and refreshes j's masks when flows left.
func (a *Alloc) shrinkLive(j, w int) {
	if w == len(a.live[j]) {
		return
	}
	a.live[j] = a.live[j][:w]
	a.setMask(j)
}
