package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/coflow"
)

// simulateReference is the un-optimized event loop this package
// shipped before it scaled to 100k-coflow instances, kept verbatim as
// the executable specification of the simulator's semantics: every
// event rescans all coflows for reveals and next releases, the sparse
// policy allocation is densified into a full coflows × flows matrix,
// and the dense matrix is verified in full per event. It is
// O(n²·flows) and is the oracle of the differential property tests,
// which hold Simulate bit-identical to it across every policy.
func simulateReference(ctx context.Context, inst *coflow.Instance, opt Options) (*Result, error) {
	opt = opt.Normalize()
	if err := inst.Validate(coflow.SinglePath); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if opt.Epoch != 0 && opt.Epoch < 1e-6 {
		return nil, fmt.Errorf("sim: epoch %g below the minimum of 1e-6 slots", opt.Epoch)
	}
	pol, err := New(opt.Policy, opt)
	if err != nil {
		return nil, err
	}

	g := inst.Graph
	nc := len(inst.Coflows)
	caps := make([]float64, g.NumEdges())
	for _, e := range g.Edges() {
		caps[e.ID] = e.Capacity
	}

	st := newState(inst)
	revealed := make([]bool, nc)
	finished := make([]bool, nc)

	res := &Result{
		Policy:      opt.Policy,
		Completions: make([]float64, nc),
		Arrivals:    append([]float64(nil), st.Arrival...),
	}

	now := 0.0
	done := 0
	nextEpoch := math.Inf(1)
	if opt.Epoch > 0 {
		nextEpoch = opt.Epoch
	}
	var alloc Alloc
	activeBuf := make([]bool, nc)
	loadBuf := make([]float64, g.NumEdges())
	for done < nc {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res.Events >= opt.MaxEvents {
			return nil, fmt.Errorf("sim: event cap %d reached at t=%g (%d/%d coflows done)",
				opt.MaxEvents, now, done, nc)
		}
		res.Events++

		// Reveal coflows whose release time has passed (all of them at
		// t=0 in clairvoyant mode) — the full j = 0..n scan.
		replan := false
		for j := 0; j < nc; j++ {
			if !revealed[j] && (opt.Clairvoyant || inst.Coflows[j].Release <= now+eps) {
				revealed[j] = true
				replan = true
				res.Trace = append(res.Trace, Event{Time: now, Kind: Arrival, Coflow: j})
			}
		}
		if opt.Epoch > 0 && nextEpoch <= now+eps {
			replan = true
			res.Trace = append(res.Trace, Event{Time: now, Kind: EpochTick, Coflow: -1})
			nextEpoch = opt.Epoch * (math.Floor(now/opt.Epoch) + 1)
			if nextEpoch <= now+eps {
				nextEpoch += opt.Epoch
			}
		}

		st.Now = now
		st.Active = st.Active[:0]
		for j := 0; j < nc; j++ {
			st.activeMask[j] = revealed[j] && !finished[j]
			if st.activeMask[j] {
				st.Active = append(st.Active, j)
			}
		}
		st.Replan = replan

		// Densify the policy's sparse entries into the full-instance
		// matrix the original loop worked on.
		var rates [][]float64
		if len(st.Active) > 0 {
			if replan {
				res.Replans++
			}
			alloc.Reset()
			if err := pol.Allocate(ctx, st, &alloc); err != nil {
				return nil, fmt.Errorf("sim: policy %s at t=%g: %w", opt.Policy, now, err)
			}
			rates = make([][]float64, nc)
			for _, en := range alloc.Entries {
				if en.Coflow < 0 || en.Coflow >= nc {
					return nil, fmt.Errorf("sim: policy %s at t=%g: allocation entry names coflow %d of %d",
						opt.Policy, now, en.Coflow, nc)
				}
				flows := len(inst.Coflows[en.Coflow].Flows)
				if en.Flow < 0 || en.Flow >= flows {
					return nil, fmt.Errorf("sim: policy %s at t=%g: allocation entry names flow %d of coflow %d (%d flows)",
						opt.Policy, now, en.Flow, en.Coflow, flows)
				}
				if rates[en.Coflow] == nil {
					rates[en.Coflow] = make([]float64, flows)
				}
				rates[en.Coflow][en.Flow] = en.Rate
			}
			if err := checkRatesDense(st, caps, rates, activeBuf, loadBuf); err != nil {
				return nil, fmt.Errorf("sim: policy %s at t=%g: %w", opt.Policy, now, err)
			}
		}

		// Next event: the earliest of coflow reveal, flow release,
		// epoch tick, and flow completion at the current rates, found
		// by scanning everything.
		next := math.Inf(1)
		if len(st.Active) > 0 {
			next = nextEpoch
		}
		for j := 0; j < nc; j++ {
			if finished[j] {
				continue
			}
			c := &inst.Coflows[j]
			if !revealed[j] && c.Release > now+eps && c.Release < next {
				next = c.Release
			}
			for i := range c.Flows {
				if st.Remaining[j][i] <= eps {
					continue
				}
				if r := c.EffectiveRelease(i); r > now+eps && r < next {
					next = r
				}
			}
		}
		progress := false
		for _, j := range st.Active {
			if rates == nil || rates[j] == nil {
				continue
			}
			for i, rem := range st.Remaining[j] {
				if rem <= eps || rates[j][i] <= eps {
					continue
				}
				progress = true
				if t := now + rem/rates[j][i]; t < next {
					next = t
				}
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("sim: stalled at t=%g with %d/%d coflows done (no rates, no pending events)",
				now, done, nc)
		}
		if !progress && next <= now+eps {
			return nil, fmt.Errorf("sim: no progress at t=%g", now)
		}
		dt := next - now
		if dt < 0 {
			dt = 0
		}

		// Advance: deplete demands at constant rates for dt.
		for _, j := range st.Active {
			if rates == nil || rates[j] == nil {
				continue
			}
			served := 0.0
			for i := range st.Remaining[j] {
				if st.Remaining[j][i] <= eps || rates[j][i] <= eps {
					continue
				}
				d := rates[j][i] * dt
				if d > st.Remaining[j][i] {
					d = st.Remaining[j][i]
				}
				st.Remaining[j][i] -= d
				served += d
				if st.Remaining[j][i] <= eps {
					st.Remaining[j][i] = 0
				}
			}
			st.Attained[j] += served
		}
		now = next

		// Completions.
		for _, j := range st.Active {
			all := true
			for _, rem := range st.Remaining[j] {
				if rem > eps {
					all = false
					break
				}
			}
			if all {
				finished[j] = true
				done++
				res.Completions[j] = now
				res.Trace = append(res.Trace, Event{Time: now, Kind: Completion, Coflow: j})
			}
		}
	}

	for j := 0; j < nc; j++ {
		c := res.Completions[j]
		res.WeightedCCT += inst.Coflows[j].Weight * c
		res.TotalCCT += c
		res.AvgCCT += c - st.Arrival[j]
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	res.AvgCCT /= float64(nc)
	return res, nil
}

// checkRatesDense verifies a densified allocation the way the original
// simulator did: a full-instance rate matrix, non-negative rates,
// nothing granted to unavailable flows, and per-edge loads within
// capacity, all rebuilt from scratch per event. active and load are
// caller-owned scratch buffers (len = coflows / edges), cleared here.
func checkRatesDense(st *State, caps []float64, rates [][]float64, active []bool, load []float64) error {
	if len(rates) != len(st.Inst.Coflows) {
		return fmt.Errorf("rate matrix has %d rows for %d coflows (size it by the full instance)",
			len(rates), len(st.Inst.Coflows))
	}
	for j := range active {
		active[j] = false
	}
	for _, j := range st.Active {
		active[j] = true
	}
	for e := range load {
		load[e] = 0
	}
	for j := range rates {
		if rates[j] == nil {
			continue
		}
		if !active[j] {
			// A positive rate on an unrevealed or finished coflow means
			// the policy used information it must not have.
			for i, r := range rates[j] {
				if r > eps {
					return fmt.Errorf("rate %g granted to inactive coflow %d flow %d", r, j, i)
				}
			}
			continue
		}
		c := &st.Inst.Coflows[j]
		if len(rates[j]) != len(c.Flows) {
			return fmt.Errorf("coflow %d rate row has %d entries for %d flows", j, len(rates[j]), len(c.Flows))
		}
		for i := range c.Flows {
			r := rates[j][i]
			if r < 0 {
				return fmt.Errorf("negative rate %g for coflow %d flow %d", r, j, i)
			}
			if r <= eps {
				continue
			}
			if st.Remaining[j][i] <= eps || !st.Available(j, i) {
				return fmt.Errorf("rate %g granted to inactive flow %d of coflow %d", r, i, j)
			}
			for _, e := range c.Flows[i].Path {
				load[e] += r
			}
		}
	}
	for e, l := range load {
		if l > caps[e]*(1+1e-6)+eps {
			return fmt.Errorf("edge %d overloaded: rate %g > capacity %g", e, l, caps[e])
		}
	}
	return nil
}
