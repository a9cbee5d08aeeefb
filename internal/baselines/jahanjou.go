// Package baselines implements the two prior-work algorithms the
// paper compares against (Section 6.2) plus a non-LP greedy used for
// ablations:
//
//   - Jahanjou et al. (SPAA '17) for the single path model: a
//     geometric-interval LP whose α-points order the coflows, followed
//     by priority-ordered rate allocation;
//   - Terra (You & Chowdhury '19) for the free path model: per-coflow
//     standalone completion times via max-concurrent-flow LPs and an
//     SRTF (shortest remaining time first) event simulation in
//     continuous time;
//   - a weighted shortest-job-first greedy that needs no LP.
//
// The original systems are not open source; both are re-implemented
// from their published descriptions, which is exactly what the paper
// itself did for its experiments.
package baselines

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/coflow"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/simplex"
	"repro/internal/timegrid"
)

// JahanjouEpsilon is the interval growth rate that optimizes the
// approximation ratio of Jahanjou et al.'s rounding (the paper quotes
// ε = 0.5436).
const JahanjouEpsilon = 0.5436

// JahanjouAdaptive runs Jahanjou under core.Grow: it retries at 2×, 4×
// and 8× the horizon while the failure is cured by a longer grid (an
// infeasible or over-budget interval LP, a flow released after the
// geometric grid's last slot starts, or a priority fill that ran out
// of slots, seen on high-diameter generated topologies where the
// LP-sized horizon underestimates path contention). Other errors
// surface immediately.
func JahanjouAdaptive(ctx context.Context, in *coflow.Instance, horizon float64, eps, alpha float64) (*JahanjouResult, error) {
	return core.Grow(horizon, func(h float64) (*JahanjouResult, error) {
		return Jahanjou(ctx, in, h, eps, alpha)
	})
}

// JahanjouResult reports the baseline's outcome.
type JahanjouResult struct {
	// LowerBound is the geometric-interval LP objective.
	LowerBound float64
	// Schedule is the feasibility-verified schedule produced by
	// α-point priority allocation (on a uniform unit grid).
	Schedule *schedule.Schedule
	// Weighted is Σ w_j C_j of the schedule.
	Weighted float64
	// Completions holds the per-coflow completion times.
	Completions []float64
	// Order is the coflow priority order chosen by the α-points.
	Order []int
}

// Jahanjou runs the single path baseline: solve the time-interval LP
// with geometric intervals {(1+ε)^i}, compute each coflow's α-point
// (the interval in which an α fraction of the coflow completes), and
// schedule coflows by α-point priority with greedy per-slot rate
// allocation. alpha is the completion fraction defining the α-point
// (1/2 is the conventional choice); horizon is in slot units.
func Jahanjou(ctx context.Context, inst *coflow.Instance, horizon float64, eps, alpha float64) (*JahanjouResult, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("baselines: alpha %g outside (0,1]", alpha)
	}
	grid := timegrid.Geometric(horizon, eps)
	l, err := model.BuildSinglePath(inst, grid)
	if err != nil {
		return nil, err
	}
	sol, err := l.Solve(ctx, simplex.Options{})
	if err != nil {
		return nil, err
	}

	// α-point per coflow: the first interval by whose end every flow
	// of the coflow has completed an α fraction.
	nc := len(inst.Coflows)
	alphaSlot := make([]int, nc)
	for j := range alphaSlot {
		alphaSlot[j] = grid.NumSlots()
	}
	cum := make([]float64, len(sol.Frac))
	perCoflowMin := make([][]float64, nc) // min over flows of cumulative, per slot
	flowsOf := make([][]int, nc)
	for f, ref := range l.Flows() {
		flowsOf[ref.Coflow] = append(flowsOf[ref.Coflow], f)
	}
	for j := 0; j < nc; j++ {
		perCoflowMin[j] = make([]float64, grid.NumSlots())
		for k := range perCoflowMin[j] {
			perCoflowMin[j][k] = math.Inf(1)
		}
	}
	for k := 0; k < grid.NumSlots(); k++ {
		for f := range l.Flows() {
			cum[f] += sol.Frac[f][k]
		}
		for j := 0; j < nc; j++ {
			minCum := math.Inf(1)
			for _, f := range flowsOf[j] {
				if cum[f] < minCum {
					minCum = cum[f]
				}
			}
			perCoflowMin[j][k] = minCum
			if minCum >= alpha-1e-9 && alphaSlot[j] == grid.NumSlots() {
				alphaSlot[j] = k
			}
		}
	}

	// Priority order: earlier α-interval first; ties by weighted
	// demand (heavier, smaller coflows first), then id for determinism.
	order := make([]int, nc)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if alphaSlot[ja] != alphaSlot[jb] {
			return alphaSlot[ja] < alphaSlot[jb]
		}
		ra := inst.Coflows[ja].TotalDemand() / inst.Coflows[ja].Weight
		rb := inst.Coflows[jb].TotalDemand() / inst.Coflows[jb].Weight
		if ra != rb {
			return ra < rb
		}
		return ja < jb
	})

	s, err := PriorityFill(inst, order, int(math.Ceil(horizon))+1)
	if err != nil {
		return nil, err
	}
	res := &JahanjouResult{
		LowerBound:  sol.LowerBound,
		Schedule:    s,
		Completions: s.CompletionTimes(),
		Order:       order,
	}
	res.Weighted = s.WeightedCompletion()
	return res, nil
}

// PriorityFill builds a feasible single path schedule by strict
// priority water-filling: slot by slot, coflows in the given order
// grab as much of their paths' residual capacity as their remaining
// demand allows. This is the rate-allocation step shared by the
// Jahanjou baseline and the greedy baseline.
func PriorityFill(inst *coflow.Instance, order []int, slots int) (*schedule.Schedule, error) {
	if err := inst.Validate(coflow.SinglePath); err != nil {
		return nil, err
	}
	grid := timegrid.Uniform(slots)
	flows := inst.FlattenFlows()
	s := &schedule.Schedule{
		Inst:  inst,
		Mode:  coflow.SinglePath,
		Grid:  grid,
		Flows: flows,
	}
	s.Frac = make([][]float64, len(flows))
	remaining := make([]float64, len(flows))
	for f := range flows {
		s.Frac[f] = make([]float64, slots)
		remaining[f] = 1.0
	}
	flowsOf := make([][]int, len(inst.Coflows))
	for f, ref := range flows {
		flowsOf[ref.Coflow] = append(flowsOf[ref.Coflow], f)
	}
	g := inst.Graph
	residual := make([]float64, g.NumEdges())
	for k := 0; k < slots; k++ {
		for _, e := range g.Edges() {
			residual[e.ID] = e.Capacity * grid.Len(k)
		}
		done := true
		for _, j := range order {
			for _, f := range flowsOf[j] {
				if remaining[f] <= 1e-12 {
					continue
				}
				done = false
				if grid.Start(k) < inst.ReleaseAt(flows[f]) {
					continue
				}
				fl := inst.FlowAt(flows[f])
				// Largest fraction the path's residual allows.
				frac := remaining[f]
				for _, eid := range fl.Path {
					if r := residual[eid] / fl.Demand; r < frac {
						frac = r
					}
				}
				if frac <= 1e-12 {
					continue
				}
				for _, eid := range fl.Path {
					residual[eid] -= frac * fl.Demand
				}
				s.Frac[f][k] = frac
				remaining[f] -= frac
			}
		}
		if done {
			break
		}
	}
	for f, rem := range remaining {
		if rem > 1e-9 {
			return nil, fmt.Errorf("baselines: flow %d has %.3g demand left after %d slots: %w",
				f, rem, slots, core.ErrHorizonTooSmall)
		}
	}
	return s, nil
}

// GreedyWSJF is the non-LP ablation baseline: coflows ordered by the
// Smith ratio (total demand over weight, smallest first), then
// priority water-filling. Single path model.
func GreedyWSJF(inst *coflow.Instance, slots int) (*schedule.Schedule, error) {
	order := make([]int, len(inst.Coflows))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		ra := inst.Coflows[ja].TotalDemand() / inst.Coflows[ja].Weight
		rb := inst.Coflows[jb].TotalDemand() / inst.Coflows[jb].Weight
		if ra != rb {
			return ra < rb
		}
		return ja < jb
	})
	return PriorityFill(inst, order, slots)
}
