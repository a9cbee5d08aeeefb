package baselines

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/coflow"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/simplex"
)

// Terra re-implements the offline free path baseline of You &
// Chowdhury (Terra, 2019) as the paper describes it: compute each
// coflow's standalone completion time (the fastest it could finish
// with the whole network to itself — a max-concurrent-flow LP), then
// simulate SRTF (shortest remaining time first) in continuous,
// unslotted time. At every event the scheduler walks the SRTF order
// and grants each coflow its maximum concurrent-flow rate allocation
// on the residual network, so capacity left over by the leader is
// backfilled — this matches Terra's "twice the number of coflows" LP
// count and its fine-grained-time advantage over slotted schedules.
//
// Terra handles only the unweighted objective (total completion
// time), as noted in the paper's Section 6.2.

// TerraResult reports the simulation outcome.
type TerraResult struct {
	// Completions per coflow, in the same (continuous) time units as
	// the instance's demands and capacities.
	Completions []float64
	// Total is Σ_j C_j.
	Total float64
	// Standalone[j] is coflow j's isolated completion time.
	Standalone []float64
	// LPSolves counts the concurrent-flow LPs solved.
	LPSolves int
}

// concurrentFlowRate solves the max-concurrent-flow LP for one
// coflow's remaining demands on the given residual capacities: every
// flow i ships at rate μ·rem_i simultaneously; returns μ and per-flow
// per-edge rates. μ = 0 means no capacity is left.
func concurrentFlowRate(ctx context.Context, g *graph.Graph, flows []coflow.Flow, rem []float64, residual []float64) (float64, [][]float64, error) {
	ne := g.NumEdges()
	active := 0
	for i := range flows {
		if rem[i] > 1e-12 {
			active++
		}
	}
	if active == 0 {
		return 0, nil, nil
	}
	m := lp.NewModel("concurrent-flow")
	m.SetMaximize(true)
	// Each active flow adds ne rates, a source, a sink and a
	// conservation row per other node, and 3·ne+2 entries.
	m.Grow(1+active*ne, ne+active*g.NumNodes(), active*(3*ne+2))
	mu := m.AddVar("", 0, math.Inf(1), 1)
	rate := make([][]lp.VarID, len(flows))
	// Per-edge capacity rows.
	capRows := make([]lp.ConstrID, ne)
	for e := 0; e < ne; e++ {
		capRows[e] = m.AddConstr("", lp.LE, math.Max(0, residual[e]))
	}
	for i, fl := range flows {
		if rem[i] <= 1e-12 {
			continue
		}
		rate[i] = make([]lp.VarID, ne)
		for e := 0; e < ne; e++ {
			rate[i][e] = m.AddVar("", 0, math.Inf(1), 0)
			m.AddTerm(capRows[e], rate[i][e], 1)
		}
		// Net outflow at source = μ·rem_i; conservation elsewhere;
		// net inflow at sink = μ·rem_i.
		model.AddConservation(m, g, fl.Source, fl.Sink, rate[i], mu, rem[i])
	}
	sol, err := m.Solve(ctx, simplex.Options{})
	if err != nil {
		return 0, nil, err
	}
	if sol.Status != simplex.Optimal {
		return 0, nil, fmt.Errorf("baselines: concurrent-flow LP %v", sol.Status)
	}
	rates := make([][]float64, len(flows))
	for i := range flows {
		if rate[i] == nil {
			continue
		}
		rates[i] = make([]float64, ne)
		for e := 0; e < ne; e++ {
			rates[i][e] = sol.Value(rate[i][e])
		}
	}
	return sol.Value(mu), rates, nil
}

// netSourceRate returns the net outflow rate at the flow's source
// under the given per-edge rates.
func netSourceRate(g *graph.Graph, fl coflow.Flow, rates []float64) float64 {
	var r float64
	for _, eid := range g.OutEdges(fl.Source) {
		r += rates[eid]
	}
	for _, eid := range g.InEdges(fl.Source) {
		r -= rates[eid]
	}
	return r
}

// Terra runs the baseline. Time is continuous; demands and capacities
// come straight from the instance.
func Terra(ctx context.Context, inst *coflow.Instance) (*TerraResult, error) {
	if err := inst.Validate(coflow.FreePath); err != nil {
		return nil, err
	}
	g := inst.Graph
	nc := len(inst.Coflows)
	res := &TerraResult{
		Completions: make([]float64, nc),
		Standalone:  make([]float64, nc),
	}

	// Phase 1: standalone completion times (one LP per coflow).
	fullCaps := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		fullCaps[e.ID] = e.Capacity
	}
	for j := 0; j < nc; j++ {
		c := &inst.Coflows[j]
		rem := make([]float64, len(c.Flows))
		for i, fl := range c.Flows {
			rem[i] = fl.Demand
		}
		mu, _, err := concurrentFlowRate(ctx, g, c.Flows, rem, fullCaps)
		res.LPSolves++
		if err != nil {
			return nil, err
		}
		if mu <= 1e-12 {
			return nil, fmt.Errorf("baselines: coflow %d cannot be routed", c.ID)
		}
		res.Standalone[j] = 1 / mu
	}

	// Phase 2: SRTF event simulation.
	remaining := make([][]float64, nc) // per coflow, per flow remaining volume
	finished := make([]bool, nc)
	for j := 0; j < nc; j++ {
		remaining[j] = make([]float64, len(inst.Coflows[j].Flows))
		for i, fl := range inst.Coflows[j].Flows {
			remaining[j][i] = fl.Demand
		}
	}
	// Release events.
	now := 0.0
	const maxEvents = 1 << 16
	for ev := 0; ev < maxEvents; ev++ {
		// Candidates: released and unfinished.
		var cand []int
		nextRelease := math.Inf(1)
		for j := 0; j < nc; j++ {
			if finished[j] {
				continue
			}
			r := inst.Coflows[j].Release
			if r <= now+1e-12 {
				cand = append(cand, j)
			} else if r < nextRelease {
				nextRelease = r
			}
		}
		if len(cand) == 0 {
			if math.IsInf(nextRelease, 1) {
				break // all done
			}
			now = nextRelease
			continue
		}
		// SRTF key: remaining fraction × standalone time (exact under
		// proportional depletion; a documented approximation when
		// backfilling depletes flows unevenly).
		key := func(j int) float64 {
			var maxFrac float64
			for i, fl := range inst.Coflows[j].Flows {
				if fr := remaining[j][i] / fl.Demand; fr > maxFrac {
					maxFrac = fr
				}
			}
			return maxFrac * res.Standalone[j]
		}
		sort.SliceStable(cand, func(a, b int) bool {
			ka, kb := key(cand[a]), key(cand[b])
			if ka != kb {
				return ka < kb
			}
			return cand[a] < cand[b]
		})
		// Allocate in SRTF order on the residual network.
		residual := append([]float64(nil), fullCaps...)
		type alloc struct {
			j     int
			rates [][]float64 // per flow, per edge
			done  float64     // time until this coflow finishes at these rates
		}
		var allocs []alloc
		for _, j := range cand {
			mu, rates, err := concurrentFlowRate(ctx, g, inst.Coflows[j].Flows, remaining[j], residual)
			res.LPSolves++
			if err != nil {
				return nil, err
			}
			if mu <= 1e-9 {
				continue
			}
			for i := range inst.Coflows[j].Flows {
				if rates[i] == nil {
					continue
				}
				for e := range residual {
					residual[e] -= rates[i][e]
					if residual[e] < 0 {
						residual[e] = 0
					}
				}
			}
			allocs = append(allocs, alloc{j: j, rates: rates, done: 1 / mu})
		}
		if len(allocs) == 0 {
			return nil, fmt.Errorf("baselines: SRTF stalled at t=%g", now)
		}
		// Advance to the next event: earliest completion or release.
		dt := nextRelease - now
		for _, a := range allocs {
			if a.done < dt {
				dt = a.done
			}
		}
		if dt <= 0 || math.IsInf(dt, 1) {
			dt = allocs[0].done
		}
		for _, a := range allocs {
			c := &inst.Coflows[a.j]
			allDone := true
			for i, fl := range c.Flows {
				if a.rates[i] == nil {
					if remaining[a.j][i] > 1e-9 {
						allDone = false
					}
					continue
				}
				remaining[a.j][i] -= netSourceRate(g, fl, a.rates[i]) * dt
				if remaining[a.j][i] < 1e-9 {
					remaining[a.j][i] = 0
				} else {
					allDone = false
				}
			}
			if allDone && !finished[a.j] {
				finished[a.j] = true
				res.Completions[a.j] = now + dt
			}
		}
		now += dt
	}
	for j := 0; j < nc; j++ {
		if !finished[j] {
			return nil, fmt.Errorf("baselines: coflow %d never finished (simulation cap reached)", inst.Coflows[j].ID)
		}
		res.Total += res.Completions[j]
	}
	return res, nil
}
