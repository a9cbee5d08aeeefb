package sim

import (
	"cmp"
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
// after the walk, so a call costs O(order + visited flows·path)
// regardless of the network size.
//
// Under a deep backlog most of the order is blocked. A coflow whose
// live flows all start on saturated edges, or all end on saturated
// edges, can be granted nothing, and the walk skips it without
// visiting its flows, by the edge buckets in out (see Alloc). A bucket
// counts as saturated only once all its edges are, so the skip is
// exact: the rates are those of the plain walk. With at most 64
// distinct first (last) edges each bucket holds one edge and every
// such coflow is skipped; with more, shared buckets miss some. Once
// every edge is saturated the walk stops.
func PriorityRates(st *State, order []int, out *Alloc) {
	g := st.Inst.Graph
	out.ensureScratch(g)
	out.ensurePaths(st.Inst)
	residual := out.residual
	pe, pathOff, flowBase := out.pathEdges, out.pathOff, out.flowBase
	first, last := out.first.fill(), out.last.fill()
	sat := out.satBase // edges with no usable residual capacity
	ne := g.NumEdges()
	horizon := st.Now + eps
	for _, j := range order {
		if sat >= ne {
			break
		}
		if m := out.masks[j]; m.first&^first.sat == 0 || m.last&^last.sat == 0 {
			continue // blocked: no live flow can be granted anything
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
				// Count e's first saturation once, even on a path that
				// repeats e.
				e := pe[k]
				before := residual[e]
				residual[e] = before - r
				out.dirty = append(out.dirty, e)
				if before > eps && residual[e] <= eps {
					sat++
					first.saturate(out.first.of[e])
					last.saturate(out.last.of[e])
				}
			}
		}
		out.shrinkLive(j, w)
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
// Between two events only a few flows arrive or finish, so the filling
// state outlives the event. The policy keeps the available unfinished
// flows in flat-index order, which is (coflow, flow) order and so the
// Alloc grouping, and per edge the list of those flows that cross it.
// A call updates both only for the flows that finished, were released
// or were revealed since the previous one: it walks st.Active only when
// State.Replan says coflows may have been revealed, and flows released
// after their coflow's reveal wait in a release heap, so no call scans
// unreleased flows.
//
// Each saturation comes from a min-heap of edge levels. An edge that c
// unfrozen flows cross, and whose frozen flows' rates sum to frozen,
// carries frozen + c·f at fill f and saturates at the level
// (capacity − frozen)/c. A freeze through it adds the fill, which is
// below the level, to frozen and lowers c, so its level only rises,
// and a popped key that is out of date is refreshed in place. A round
// raises the fill to the least level and saturates every edge whose
// residual at that fill is ≤ eps, so ties within eps saturate together
// and the sim_fair_freeze_rounds histogram counts one round per
// distinct saturation level. A round costs O(log edges) per edge it
// pops and O(path) per flow it freezes, and each flow freezes exactly
// once per call.
//
// Float contract: the test-only fairReference subtracts δ from every
// edge once per flow through it in every round. Here an edge's load
// is the sum of its frozen rates plus c times the fill, and a round's
// fill is a level, so rates may differ from the reference's in the
// last bits. The differential tests hold fairPolicy to the reference's
// event sequence exactly, and to its rates, times, completions and
// aggregates within fairTol relative.
type fairPolicy struct {
	st *State // the run the state below belongs to

	avail, merged []fairFlow  // available unfinished flows, ascending fi
	fresh         []fairFlow  // flows that became available this call
	revealed      []bool      // per coflow: its flows are indexed
	waiting       flowRelHeap // flows of revealed coflows not yet released
	// rate[fi] is flow fi's rate once frozen in this call, unfrozen
	// before.
	rate []float64

	caps    []float64
	through [][]int32      // per edge: the fi of each available unfinished flow crossing it
	used    []graph.EdgeID // edges whose list may be non-empty
	inUsed  []bool

	// Per-call filling state of each used edge, and its level in
	// levels; sat and risen are a round's scratch.
	fills  []edgeFill
	levels levelHeap
	sat    []graph.EdgeID
	risen  []edgeLevel
	// rounds observes the freeze-round count per event — how many
	// progressive-filling iterations the fair share took. Nil without a
	// registry.
	rounds *obs.Histogram
}

// fairFlow is an available flow: flow i of coflow j, flat index fi.
type fairFlow struct{ fi, j, i int32 }

// edgeFill is an edge's share of one progressive filling: c unfrozen
// flows cross it and the rates frozen through it sum to frozen, so at
// fill f its load is frozen + c·f and it saturates at the level
// (capacity − frozen)/c.
type edgeFill struct {
	c      int
	frozen float64
}

// level is the fill at which edge e saturates.
func (p *fairPolicy) level(e graph.EdgeID) float64 {
	return (p.caps[e] - p.fills[e].frozen) / float64(p.fills[e].c)
}

// unfrozen marks a rate not yet fixed in this call.
const unfrozen = -1.0

// start binds p to the run of st, whose instance has flows flows.
func (p *fairPolicy) start(st *State, flows int32) {
	g := st.Inst.Graph
	ne := g.NumEdges()
	p.st = st
	p.avail, p.waiting.items = p.avail[:0], p.waiting.items[:0]
	p.revealed = make([]bool, len(st.Inst.Coflows))
	p.rate = make([]float64, flows)
	p.caps = make([]float64, ne)
	for _, e := range g.Edges() {
		p.caps[e.ID] = e.Capacity
	}
	p.through = make([][]int32, ne)
	p.used = p.used[:0]
	p.inUsed = make([]bool, ne)
	p.fills = make([]edgeFill, ne)
}

func (*fairPolicy) Name() string { return NameFair }
func (p *fairPolicy) Allocate(_ context.Context, st *State, out *Alloc) error {
	out.ensurePaths(st.Inst)
	p.track(st, out)
	if len(p.avail) == 0 {
		return nil
	}
	p.rounds.Observe(float64(p.fill(out)))
	for _, f := range p.avail {
		if r := p.rate[f.fi]; r > eps {
			out.Grant(int(f.j), int(f.i), r)
		}
		p.rate[f.fi] = unfrozen
	}
	return nil
}

// track brings the available list and the edge lists up to st.Now.
func (p *fairPolicy) track(st *State, out *Alloc) {
	pe, pathOff, flowBase := out.pathEdges, out.pathOff, out.flowBase
	reveal := st.Replan
	if p.st != st {
		p.start(st, flowBase[len(flowBase)-1])
		reveal = true
	}
	horizon := st.Now + eps

	// The flows that became available: those of newly revealed coflows
	// released by now, and the waiting ones whose release has come.
	p.fresh = p.fresh[:0]
	if reveal {
		for _, j := range st.Active {
			if p.revealed[j] {
				continue
			}
			p.revealed[j] = true
			for i, rem := range st.Remaining[j] {
				if rem <= eps {
					continue
				}
				if rel := st.effRel[j][i]; rel > horizon {
					p.waiting.push(flowRelEntry{t: rel, j: j, i: i})
				} else {
					p.fresh = append(p.fresh, fairFlow{fi: flowBase[j] + int32(i), j: int32(j), i: int32(i)})
				}
			}
		}
	}
	for len(p.waiting.items) > 0 && p.waiting.items[0].t <= horizon {
		w := p.waiting.items[0]
		p.waiting.pop()
		p.fresh = append(p.fresh, fairFlow{fi: flowBase[w.j] + int32(w.i), j: int32(w.j), i: int32(w.i)})
	}
	slices.SortStableFunc(p.fresh, func(a, b fairFlow) int { return cmp.Compare(a.fi, b.fi) })

	// Merge them into the available list, dropping the flows that
	// finished, and update the edge lists of both.
	merged, k := p.merged[:0], 0
	for _, f := range p.avail {
		if st.Remaining[f.j][f.i] <= eps {
			for x := pathOff[f.fi]; x < pathOff[f.fi+1]; x++ {
				l := p.through[pe[x]]
				at := slices.Index(l, f.fi)
				l[at] = l[len(l)-1]
				p.through[pe[x]] = l[:len(l)-1]
			}
			continue
		}
		for ; k < len(p.fresh) && p.fresh[k].fi < f.fi; k++ {
			merged = append(merged, p.fresh[k])
		}
		merged = append(merged, f)
	}
	merged = append(merged, p.fresh[k:]...)
	p.avail, p.merged = merged, p.avail
	for _, f := range p.fresh {
		p.rate[f.fi] = unfrozen
		for x := pathOff[f.fi]; x < pathOff[f.fi+1]; x++ {
			e := pe[x]
			if !p.inUsed[e] {
				p.inUsed[e] = true
				p.used = append(p.used, e)
			}
			p.through[e] = append(p.through[e], f.fi)
		}
	}
}

// fill runs the progressive filling over the available flows, leaving
// each one's rate in p.rate, and returns the number of rounds it took.
func (p *fairPolicy) fill(out *Alloc) int {
	pe, pathOff := out.pathEdges, out.pathOff
	// Every edge with flows starts with all of them unfrozen.
	fills, caps := p.fills, p.caps
	h := p.levels[:0]
	n := 0
	for _, e := range p.used {
		c := len(p.through[e])
		if c == 0 {
			p.inUsed[e] = false
			continue
		}
		p.used[n] = e
		n++
		fills[e] = edgeFill{c: c}
		h = append(h, edgeLevel{at: p.level(e), e: e})
	}
	p.used = p.used[:n]
	h.init()

	// The rounds. Keys are lower bounds of the levels, so the top is
	// refreshed until it is current; its level is then the least, and
	// becomes the fill. That edge saturates even where rounding leaves
	// its residual above eps, so every round freezes a flow. Every
	// other edge whose residual at the fill is ≤ eps has a level within
	// eps of it, and its key is no higher.
	fill := 0.0
	fillRounds := 0
	for left := len(p.avail); left > 0; {
		fillRounds++
		for {
			e := h[0].e
			if fills[e].c == 0 {
				h.pop() // its flows all froze through other edges
				continue
			}
			lv := p.level(e)
			if lv > h[0].at {
				h[0].at = lv
				h.down(0)
				continue
			}
			fill = lv
			break
		}
		sat := append(p.sat[:0], h[0].e)
		h.pop()
		risen := p.risen[:0]
		for len(h) > 0 && h[0].at <= fill+eps {
			e := h[0].e
			h.pop()
			ef := fills[e]
			switch {
			case ef.c == 0:
			case caps[e]-ef.frozen-float64(ef.c)*fill <= eps:
				sat = append(sat, e)
			default:
				risen = append(risen, edgeLevel{at: p.level(e), e: e})
			}
		}
		for _, x := range risen {
			h.push(x)
		}
		// Freeze every unfrozen flow through a saturated edge at the fill.
		// A saturated edge's count drops to zero.
		for _, e := range sat {
			for _, fi := range p.through[e] {
				if p.rate[fi] != unfrozen {
					continue
				}
				p.rate[fi] = fill
				left--
				for x := pathOff[fi]; x < pathOff[fi+1]; x++ {
					ef := &fills[pe[x]]
					ef.frozen += fill
					ef.c--
				}
			}
		}
		p.sat, p.risen = sat, risen
	}
	p.levels = h
	return fillRounds
}

// edgeLevel is an edge's saturation level in a levelHeap: the fill at
// which it saturates, or a lower bound of it.
type edgeLevel struct {
	at float64
	e  graph.EdgeID
}

// levelHeap is a binary min-heap on at.
type levelHeap []edgeLevel

func (h levelHeap) init() {
	for k := len(h)/2 - 1; k >= 0; k-- {
		h.down(k)
	}
}

func (h *levelHeap) push(x edgeLevel) {
	*h = append(*h, x)
	s := *h
	for k := len(s) - 1; k > 0; {
		parent := (k - 1) / 2
		if s[parent].at <= s[k].at {
			break
		}
		s[parent], s[k] = s[k], s[parent]
		k = parent
	}
}

func (h *levelHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	if n > 0 {
		h.down(0)
	}
}

func (h levelHeap) down(k int) {
	x := h[k]
	for {
		m := 2*k + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r].at < h[m].at {
			m = r
		}
		if x.at <= h[m].at {
			break
		}
		h[k] = h[m]
		k = m
	}
	h[k] = x
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
