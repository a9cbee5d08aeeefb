package sim

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/coflow"
	"repro/internal/engine"
	"repro/internal/stats"
)

// adapterPrefix selects the engine-wrapping policy family:
// "epoch:stretch", "epoch:heuristic", "epoch:sincronia-greedy", … —
// one adapter per registered single-path-capable engine scheduler.
const adapterPrefix = "epoch:"

// adapterNames lists the dynamic "epoch:<scheduler>" policy names.
func adapterNames() []string {
	var names []string
	for _, n := range engine.NamesSupporting(coflow.SinglePath) {
		names = append(names, adapterPrefix+n)
	}
	return names
}

// epochAdapter turns any offline engine scheduler into an online
// policy: at every arrival (and, when Options.Epoch > 0, every epoch
// tick) it re-runs the wrapped scheduler on the residual instance —
// the currently-known coflows with their remaining demands — and
// converts the resulting offline schedule into a priority order by
// planned completion time. Between re-plans the cached order is
// water-filled in continuous time (pruned of finished coflows so the
// fill stays O(active)), so freed capacity is reused immediately even
// while the plan is stale.
type epochAdapter struct {
	sched   string
	opt     Options
	order   []int // cached priority order, original coflow indices
	res     residualBuffers
	replans int
}

// newAdapter resolves the wrapped scheduler eagerly so unknown or
// incompatible names fail at policy construction, listing what exists.
func newAdapter(sched string, opt Options) (Policy, error) {
	s, err := engine.Get(sched)
	if err != nil {
		return nil, fmt.Errorf("sim: policy %q: %w", adapterPrefix+sched, err)
	}
	if !s.Supports(coflow.SinglePath) {
		return nil, fmt.Errorf("sim: policy %q: scheduler %q does not support the single path model (have %v)",
			adapterPrefix+sched, sched, adapterNames())
	}
	return &epochAdapter{sched: sched, opt: opt}, nil
}

func (p *epochAdapter) Name() string { return adapterPrefix + p.sched }

func (p *epochAdapter) Allocate(ctx context.Context, st *State, out *Alloc) error {
	if st.Replan || p.order == nil {
		if err := p.replan(ctx, st); err != nil {
			return err
		}
	} else {
		p.order = pruneOrder(st, p.order)
	}
	PriorityRates(st, p.order, out)
	return nil
}

// replan runs the wrapped scheduler offline on the residual instance
// and caches the induced priority order; the result is read only here,
// so the residual's buffers are free for the next replan. Each replan
// derives its own seed from (Options.Seed, replan index): replans
// happen in the same order in every run, so traces reproduce exactly,
// and randomized schedulers still see fresh randomness per plan.
func (p *epochAdapter) replan(ctx context.Context, st *State) error {
	sub, back := p.res.build(st)
	if len(sub.Coflows) == 0 {
		p.order = []int{}
		return nil
	}
	p.replans++
	eopt := engine.Options{
		MaxSlots: p.opt.MaxSlots,
		Trials:   p.opt.Trials,
		Seed:     stats.SubSeed(p.opt.Seed, uint64(p.replans)),
		Workers:  p.opt.Workers,
		Obs:      p.opt.Obs,
	}
	res, err := engine.Schedule(ctx, p.sched, sub, coflow.SinglePath, eopt)
	if err != nil {
		return fmt.Errorf("replanning with %s over %d coflows: %w", p.sched, len(sub.Coflows), err)
	}
	if len(res.Completions) != len(sub.Coflows) {
		return fmt.Errorf("scheduler %s returned %d completions for %d coflows",
			p.sched, len(res.Completions), len(sub.Coflows))
	}
	order := make([]int, len(sub.Coflows))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case res.Completions[a] < res.Completions[b]:
			return -1
		case res.Completions[a] > res.Completions[b]:
			return 1
		case back[a] < back[b]:
			return -1
		case back[a] > back[b]:
			return 1
		default:
			return 0
		}
	})
	p.order = p.order[:0]
	for _, s := range order {
		p.order = append(p.order, back[s])
	}
	return nil
}
