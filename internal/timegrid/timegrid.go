// Package timegrid implements the time expansions used by the paper's
// linear programs: the uniform slotting of Section 3 (slot t covers
// [t−1, t] in slot units) and the geometric intervals of Appendix A
// (τ_0 = 0, τ_1 = 1, τ_k = (1+ε)^{k−1}) that keep the LP polynomial
// when the horizon is large, at a (1+ε) cost in the approximation
// ratio.
//
// All grid quantities are expressed in slot units. Converting wall
// clock seconds to slot units (the paper uses 50-second slots) is the
// caller's concern.
package timegrid

import (
	"fmt"
	"math"
)

// Grid is a partition of [0, Horizon] into consecutive intervals
// ("slots"). Slot k ∈ {0, …, NumSlots()-1} covers (Start(k), End(k)].
type Grid struct {
	// bounds[0] = 0 and slot k covers (bounds[k], bounds[k+1]].
	bounds []float64
}

// Uniform returns a grid of n unit-length slots: bounds 0, 1, …, n.
// This is the Section 3 time-indexed grid.
func Uniform(n int) Grid {
	if n <= 0 {
		panic(fmt.Sprintf("timegrid: Uniform(%d)", n))
	}
	b := make([]float64, n+1)
	for i := range b {
		b[i] = float64(i)
	}
	return Grid{bounds: b}
}

// Geometric returns the Appendix A grid covering at least horizon slot
// units: bounds 0, 1, (1+ε), (1+ε)², … . ε must be positive.
func Geometric(horizon float64, eps float64) Grid {
	if eps <= 0 {
		panic(fmt.Sprintf("timegrid: Geometric eps=%g", eps))
	}
	if horizon < 1 {
		horizon = 1
	}
	b := []float64{0, 1}
	for b[len(b)-1] < horizon {
		b = append(b, b[len(b)-1]*(1+eps))
	}
	return Grid{bounds: b}
}

// NumSlots reports the number of intervals.
func (g Grid) NumSlots() int { return len(g.bounds) - 1 }

// Horizon returns the end of the last interval.
func (g Grid) Horizon() float64 { return g.bounds[len(g.bounds)-1] }

// Start returns the left endpoint of slot k.
func (g Grid) Start(k int) float64 { return g.bounds[k] }

// End returns the right endpoint of slot k.
func (g Grid) End(k int) float64 { return g.bounds[k+1] }

// Len returns the length of slot k.
func (g Grid) Len(k int) float64 { return g.bounds[k+1] - g.bounds[k] }

// IsUniform reports whether every slot has length 1.
func (g Grid) IsUniform() bool {
	for k := 0; k < g.NumSlots(); k++ {
		if math.Abs(g.Len(k)-1) > 1e-12 {
			return false
		}
	}
	return true
}

// FirstUsableSlot returns the first slot whose start is at or after
// the release time r: releases are snapped up to slot boundaries so
// schedules derived from the LP never transmit before release (the
// implementation detail discussed with Figure 8 of the paper: "we will
// not start a job until the whole current interval is after its
// release time"). Returns NumSlots() when r is at or beyond the
// horizon.
func (g Grid) FirstUsableSlot(r float64) int {
	if r <= 0 {
		return 0
	}
	n := g.NumSlots()
	// First k with Start(k) ≥ r.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Start(mid) >= r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Bounds returns a copy of the interval boundaries.
func (g Grid) Bounds() []float64 { return append([]float64(nil), g.bounds...) }

// String summarizes the grid.
func (g Grid) String() string {
	return fmt.Sprintf("timegrid.Grid{%d slots, horizon %.4g}", g.NumSlots(), g.Horizon())
}
