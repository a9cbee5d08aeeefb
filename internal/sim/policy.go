package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/baselines"
	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/obs"
)

// sizeBounds buckets the per-event set sizes the policies report
// (LAS splice/merge sizes, fair freeze rounds): powers of two up to
// well past the largest benched instances.
var sizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384}

// Registry names of the built-in policies. Epoch adapters are named
// dynamically as "epoch:<engine-scheduler>" (see adapter.go).
const (
	NameFIFO            = "fifo"
	NameLAS             = "las"
	NameFair            = "fair"
	NameSincroniaOnline = "sincronia-online"
)

// Factory builds a policy instance for one simulation run. Policies
// may carry per-run caches, so a fresh instance is built per Simulate.
type Factory func(opt Options) (Policy, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a policy factory under name. Duplicate registration
// panics: it is a programming error, caught at init time.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("sim: duplicate policy %q", name))
	}
	registry[name] = f
}

func init() {
	Register(NameFIFO, func(Options) (Policy, error) {
		return &fifoPolicy{}, nil
	})
	Register(NameLAS, func(opt Options) (Policy, error) {
		return &lasPolicy{splice: opt.Obs.Histogram("sim_las_splice_size", sizeBounds)}, nil
	})
	Register(NameFair, func(opt Options) (Policy, error) {
		return &fairPolicy{rounds: opt.Obs.Histogram("sim_fair_freeze_rounds", sizeBounds)}, nil
	})
	Register(NameSincroniaOnline, func(Options) (Policy, error) {
		return &sincroniaOnline{}, nil
	})
}

// Names lists every selectable policy, sorted: the registered names
// plus one "epoch:<name>" adapter per single-path-capable engine
// scheduler.
func Names() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	regMu.RUnlock()
	names = append(names, adapterNames()...)
	sort.Strings(names)
	return names
}

// New builds the named policy. Unknown names produce an error listing
// everything selectable.
func New(name string, opt Options) (Policy, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if ok {
		return f(opt)
	}
	if strings.HasPrefix(name, adapterPrefix) {
		return newAdapter(strings.TrimPrefix(name, adapterPrefix), opt)
	}
	return nil, fmt.Errorf("sim: unknown policy %q (have %v)", name, Names())
}

// PriorityRates converts a coflow priority order into sparse rates by
// strict water-filling: walking the order, each available flow is
// granted the residual bottleneck capacity along its path. Capacity a
// high-priority coflow cannot use flows down to later coflows, so the
// allocation is work-conserving. Coflows in the order that are
// finished or absent are skipped, so stale cached orders are safe.
// The water-filling scratch lives in out and is restored edge by edge
// after the walk, so a call costs O(order·flows·path) regardless of
// the network size — and once every edge is saturated the walk stops
// early (no later coflow could be granted anything), which bounds the
// cost by the network capacity rather than the backlog length when
// the system is overloaded.
func PriorityRates(st *State, order []int, out *Alloc) {
	g := st.Inst.Graph
	out.ensureScratch(g)
	out.ensurePaths(st.Inst)
	residual := out.residual
	pe, pathOff, flowBase := out.pathEdges, out.pathOff, out.flowBase
	sat := out.satBase // edges with no usable residual capacity
	ne := g.NumEdges()
	horizon := st.Now + eps
	for _, j := range order {
		if sat >= ne {
			break
		}
		rem, rel := st.Remaining[j], st.effRel[j]
		fb := flowBase[j]
		lv := out.live[j]
		w := 0
		for _, i32 := range lv {
			i := int(i32)
			if rem[i] <= eps {
				continue // finished for good: compacted out of live[j]
			}
			lv[w] = i32
			w++
			if rel[i] > horizon {
				continue
			}
			// Path bottleneck over the flat index. The scan stops as
			// soon as the running minimum drops to eps: the full minimum
			// can only be lower, and anything ≤ eps is skipped either way.
			lo, hi := int(pathOff[fb+int32(i)]), int(pathOff[fb+int32(i)+1])
			r := residual[pe[lo]]
			for k := lo + 1; k < hi && r > eps; k++ {
				if re := residual[pe[k]]; re < r {
					r = re
				}
			}
			if r <= eps {
				continue
			}
			out.Grant(j, i, r)
			for k := lo; k < hi; k++ {
				// Every edge on a granted path had residual ≥ r > eps,
				// so crossing eps here is this edge's first saturation.
				e := pe[k]
				residual[e] -= r
				if residual[e] <= eps {
					sat++
				}
				out.dirty = append(out.dirty, e)
			}
		}
		out.live[j] = lv[:w]
	}
	for _, e := range out.dirty {
		residual[e] = out.caps[e]
	}
	out.dirty = out.dirty[:0]
}

// pruneOrder drops coflows that are no longer active from a cached
// priority order, in place. PriorityRates would skip them anyway (all
// their flows are drained), but walking a 100k-long order full of
// finished coflows at every event is exactly the O(n²) this package
// no longer pays; pruning keeps cached orders at the active-set size.
func pruneOrder(st *State, order []int) []int {
	k := 0
	for _, j := range order {
		if st.IsActive(j) {
			order[k] = j
			k++
		}
	}
	return order[:k]
}

// fifoPolicy serves coflows in arrival order (ties by index): the
// simplest non-clairvoyant baseline. The order is maintained
// incrementally — coflows are revealed in (arrival, index) order, so
// appending each reveal batch keeps the cached list exactly the
// arrival-sorted order a per-event re-sort would produce, at O(active)
// per event instead of O(active·log).
type fifoPolicy struct {
	order []int
	added []bool
	batch []int
}

func (*fifoPolicy) Name() string { return NameFIFO }
func (p *fifoPolicy) Allocate(_ context.Context, st *State, out *Alloc) error {
	if p.added == nil {
		p.added = make([]bool, len(st.Inst.Coflows))
	}
	p.order = pruneOrder(st, p.order)
	p.batch = p.batch[:0]
	for _, j := range st.Active {
		if !p.added[j] {
			p.added[j] = true
			p.batch = append(p.batch, j)
		}
	}
	// Within one reveal batch arrivals may differ (several releases
	// can pass between two events); sort by arrival, ties keeping the
	// ascending index order Active yields — the reference comparator.
	slices.SortStableFunc(p.batch, func(a, b int) int {
		switch {
		case st.Arrival[a] < st.Arrival[b]:
			return -1
		case st.Arrival[a] > st.Arrival[b]:
			return 1
		default:
			return 0
		}
	})
	p.order = append(p.order, p.batch...)
	PriorityRates(st, p.order, out)
	return nil
}

// lasPolicy prioritizes the coflow with the least attained service —
// the non-clairvoyant stand-in for shortest-first used by Bhimaraju,
// Nayak & Vaze (2020): without knowing demands, the coflow that has
// received the least data so far is the best guess at the shortest
// one. Ties break by arrival, then index.
//
// The priority order is maintained incrementally under the total order
// (attained, arrival, index) — exactly what the reference's stable
// sort over the ascending active list induces. Between events only
// the coflows that were granted rate change their attained service
// (and only upward), so each call splices out the served set — whose
// size is bounded by the allocation, not the backlog — sorts it, and
// merges it back, instead of re-sorting the full active set.
type lasPolicy struct {
	order  []int
	moved  []int
	merged []int
	added  []bool
	// snap[j] is Attained[j] as of the moment j was last placed in
	// order; a mismatch means j was served and must be re-positioned.
	snap []float64
	// splice observes the displaced-set size per event (the spliced and
	// merged count — the quantity the incremental order's cost scales
	// with). Nil without a registry.
	splice *obs.Histogram
}

func (*lasPolicy) Name() string { return NameLAS }

// lasLess is the strict total order LAS serves by.
func lasLess(st *State, a, b int) bool {
	if st.Attained[a] != st.Attained[b] {
		return st.Attained[a] < st.Attained[b]
	}
	if st.Arrival[a] != st.Arrival[b] {
		return st.Arrival[a] < st.Arrival[b]
	}
	return a < b
}

func (p *lasPolicy) Allocate(_ context.Context, st *State, out *Alloc) error {
	if p.added == nil {
		nc := len(st.Inst.Coflows)
		p.added = make([]bool, nc)
		p.snap = make([]float64, nc)
	}
	// One pass over the cached order: drop finished coflows, pull out
	// the ones whose attained service moved. What remains is still
	// sorted — its keys are unchanged by construction.
	keep := p.order[:0]
	p.moved = p.moved[:0]
	for _, j := range p.order {
		if !st.IsActive(j) {
			continue
		}
		if st.Attained[j] != p.snap[j] {
			p.snap[j] = st.Attained[j]
			p.moved = append(p.moved, j)
		} else {
			keep = append(keep, j)
		}
	}
	p.order = keep
	// Newly revealed coflows join the displaced set.
	for _, j := range st.Active {
		if !p.added[j] {
			p.added[j] = true
			p.snap[j] = st.Attained[j]
			p.moved = append(p.moved, j)
		}
	}
	if len(p.moved) > 0 {
		p.splice.Observe(float64(len(p.moved)))
		slices.SortStableFunc(p.moved, func(a, b int) int {
			switch {
			case st.Attained[a] < st.Attained[b]:
				return -1
			case st.Attained[a] > st.Attained[b]:
				return 1
			case st.Arrival[a] < st.Arrival[b]:
				return -1
			case st.Arrival[a] > st.Arrival[b]:
				return 1
			default:
				return a - b
			}
		})
		m := p.merged[:0]
		a, b := p.order, p.moved
		ia, ib := 0, 0
		for ia < len(a) && ib < len(b) {
			if lasLess(st, a[ia], b[ib]) {
				m = append(m, a[ia])
				ia++
			} else {
				m = append(m, b[ib])
				ib++
			}
		}
		m = append(m, a[ia:]...)
		m = append(m, b[ib:]...)
		p.order, p.merged = m, p.order
	}
	PriorityRates(st, p.order, out)
	return nil
}

// fairPolicy is the work-conserving max-min fair share: progressive
// filling raises every available flow's rate uniformly until an edge
// saturates, freezes the flows through it, and repeats on the rest —
// the per-flow fairness a network with no coflow scheduler would give.
//
// Per event it builds the live-flow list, the per-edge unfrozen-flow
// counts and the edge→flows reverse index once; the counts then drop
// by decrement as flows freeze (the reference recounts every path
// every round). Each round is one min pass and one raise pass over the
// counted edges: the min pass drops the edges whose flows all froze
// and takes the raise δ = min residual[e]/count[e]; the raise pass
// lowers each residual by count[e]·δ in one step and collects the
// edges left at ≤ eps, whose reverse lists name the flows that freeze
// at the accumulated fill. A round therefore costs O(counted edges +
// flows frozen this round), and each flow is frozen exactly once per
// event.
//
// Float contract: the test-only fairReference subtracts δ once per
// flow through an edge, so residuals, and the deltas and rates derived
// from them, may differ from it in the last bits. The differential
// tests hold fairPolicy to the reference's event sequence exactly and
// to its times, completions and aggregates within 1e-9 relative.
type fairPolicy struct {
	g         *graph.Graph
	caps      []float64
	residual  []float64
	count     []int
	used      []graph.EdgeID
	satEdges  []graph.EdgeID
	edgeFlows [][]int32
	live      []liveFlow
	// rounds observes the freeze-round count per event — how many
	// progressive-filling iterations the fair share took. Nil without a
	// registry.
	rounds *obs.Histogram
}

type liveFlow struct {
	j, i   int32
	fi     int32 // flat flow index: path is pathEdges[pathOff[fi]:pathOff[fi+1]]
	rate   float64
	frozen bool
}

func (*fairPolicy) Name() string { return NameFair }
func (p *fairPolicy) Allocate(_ context.Context, st *State, out *Alloc) error {
	g := st.Inst.Graph
	if p.g != g {
		p.g = g
		ne := g.NumEdges()
		p.caps = make([]float64, ne)
		for _, e := range g.Edges() {
			p.caps[e.ID] = e.Capacity
		}
		p.residual = make([]float64, ne)
		p.count = make([]int, ne)
		p.edgeFlows = make([][]int32, ne)
	}
	copy(p.residual, p.caps)
	residual, count := p.residual, p.count
	out.ensurePaths(st.Inst)
	pe, pathOff, flowBase := out.pathEdges, out.pathOff, out.flowBase

	// Live flows in ascending (coflow, flow) order — the sparse entry
	// grouping — plus per-edge counts and the edge→flows reverse index.
	// count is all-zero here: every nonzero drains to zero below.
	p.live = p.live[:0]
	horizon := st.Now + eps
	for _, j := range st.Active {
		rem, rel := st.Remaining[j], st.effRel[j]
		fb := flowBase[j]
		lv := out.live[j]
		w := 0
		for _, i32 := range lv {
			i := int(i32)
			if rem[i] <= eps {
				continue // finished for good: compacted out of live[j]
			}
			lv[w] = i32
			w++
			if rel[i] > horizon {
				continue
			}
			p.live = append(p.live, liveFlow{j: int32(j), i: i32, fi: fb + i32})
		}
		out.live[j] = lv[:w]
	}
	live := p.live
	used := p.used[:0]
	for s := range live {
		fi := live[s].fi
		for k := pathOff[fi]; k < pathOff[fi+1]; k++ {
			e := pe[k]
			if count[e] == 0 {
				used = append(used, e)
				p.edgeFlows[e] = p.edgeFlows[e][:0]
			}
			count[e]++
			p.edgeFlows[e] = append(p.edgeFlows[e], int32(s))
		}
	}

	// The rounds. A round's delta is the min over counted edges of the
	// residual share residual[e]/count[e] — the value the reference's
	// all-flows path scan finds (same multiset; a min is
	// order-independent) — and every counted edge then loses delta once
	// per unfrozen flow through it, count[e]·delta in one subtraction.
	// Every unfrozen flow has a non-empty path (the single path model
	// requires one) and every counted edge a positive residual, so
	// delta ≥ 0.
	fill := 0.0
	sat := p.satEdges[:0]
	fillRounds := 0
	for unfrozen := len(live); unfrozen > 0; {
		fillRounds++
		delta := -1.0
		n := 0
		for _, e := range used {
			if count[e] == 0 {
				continue // its last flow froze last round
			}
			used[n] = e
			n++
			if sh := residual[e] / float64(count[e]); delta < 0 || sh < delta {
				delta = sh
			}
		}
		used = used[:n]
		fill += delta
		sat = sat[:0]
		for _, e := range used {
			residual[e] -= float64(count[e]) * delta
			if residual[e] <= eps {
				sat = append(sat, e)
			}
		}
		if len(sat) == 0 {
			// No edge saturated: the min edge lands at zero up to
			// rounding, which on a huge residual can exceed eps. Stop
			// rather than loop; unfrozen flows keep the fill level.
			break
		}
		// Freeze every unfrozen flow through a saturated edge; a
		// saturated edge's count drops to zero, so the next min pass
		// drops it.
		for _, e := range sat {
			for _, s := range p.edgeFlows[e] {
				lf := &live[s]
				if lf.frozen {
					continue
				}
				lf.frozen = true
				lf.rate = fill
				unfrozen--
				for k := pathOff[lf.fi]; k < pathOff[lf.fi+1]; k++ {
					count[pe[k]]--
				}
			}
		}
	}
	p.used, p.satEdges = used, sat
	if len(live) > 0 {
		p.rounds.Observe(float64(fillRounds))
	}
	for _, e := range used {
		count[e] = 0
	}
	for s := range live {
		r := live[s].rate
		if !live[s].frozen {
			r = fill
		}
		if r > eps {
			out.Grant(int(live[s].j), int(live[s].i), r)
		}
	}
	return nil
}

// sincroniaOnline re-runs the Sincronia BSSI ordering over the
// currently-known residual instance at every arrival (and epoch tick),
// then water-fills by that order — the natural online adaptation of
// the offline bottleneck greedy. Between replans the cached order is
// pruned of finished coflows so water-filling stays O(active). A
// replan rebuilds the residual sub-instance into reusable buffers (the
// ordering does not retain it) and orders it with a kept
// baselines.SincroniaScratch, whose sparse per-coflow (CSR) and
// per-edge (CSC) demand lists are sized by the backlog's flows rather
// than edges × coflows, so a replan allocates nothing beyond what the
// backlog's growth forces.
type sincroniaOnline struct {
	order   []int // cached priority order, original coflow indices
	res     residualBuffers
	scratch baselines.SincroniaScratch
}

func (*sincroniaOnline) Name() string { return NameSincroniaOnline }
func (p *sincroniaOnline) Allocate(_ context.Context, st *State, out *Alloc) error {
	if st.Replan || p.order == nil {
		sub, back := p.res.build(st)
		if len(sub.Coflows) == 0 {
			p.order = p.order[:0]
			if p.order == nil {
				p.order = []int{}
			}
			return nil
		}
		order := p.scratch.Order(sub)
		p.order = p.order[:0]
		for _, s := range order {
			p.order = append(p.order, back[s])
		}
	} else {
		p.order = pruneOrder(st, p.order)
	}
	PriorityRates(st, p.order, out)
	return nil
}

// residualBuffers builds the offline sub-instance a planner sees at
// st.Now: one coflow per active coflow, holding only its unfinished
// flows with demands set to the residual volume and releases
// re-expressed relative to now (0 for anything already available).
// Keeping the relative future releases matters in clairvoyant mode,
// where not-yet-released coflows are revealed early: a
// full-information planner must know *when* they become serviceable,
// not pretend they are available immediately. Every build reuses the
// same buffers, so a built instance is valid only until the next one.
type residualBuffers struct {
	sub   coflow.Instance
	back  []int
	flows []coflow.Flow // backing for all sub-instance flow slices
}

// build returns the residual instance and, per sub-instance coflow,
// its index in st.Inst. A first pass counts the surviving flows so the
// shared backing array never reallocates mid-build (sub-instance
// coflows hold sub-slices of it), then the second pass fills it.
func (r *residualBuffers) build(st *State) (*coflow.Instance, []int) {
	total := 0
	for _, j := range st.Active {
		for _, rem := range st.Remaining[j] {
			if rem > eps {
				total++
			}
		}
	}
	if cap(r.flows) < total {
		r.flows = make([]coflow.Flow, 0, total+total/2)
	}
	r.flows = r.flows[:0]
	r.sub.Graph = st.Inst.Graph
	r.sub.Coflows = r.sub.Coflows[:0]
	r.back = r.back[:0]
	for _, j := range st.Active {
		c := &st.Inst.Coflows[j]
		start := len(r.flows)
		for i, fl := range c.Flows {
			if st.Remaining[j][i] <= eps {
				continue
			}
			nf := fl
			nf.Demand = st.Remaining[j][i]
			nf.Release = math.Max(0, st.effRel[j][i]-st.Now)
			r.flows = append(r.flows, nf)
		}
		if len(r.flows) == start {
			continue
		}
		r.sub.Coflows = append(r.sub.Coflows, coflow.Coflow{
			ID: c.ID, Weight: c.Weight, Release: math.Max(0, c.Release-st.Now),
			Flows: r.flows[start:len(r.flows):len(r.flows)],
		})
		r.back = append(r.back, j)
	}
	return &r.sub, r.back
}
