package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/stats"
)

// seededLambda is the λ TrialLambda stands for: SampleLambda's first
// draw from a generator seeded with s.
func seededLambda(s int64) float64 {
	return schedule.SampleLambda(rand.New(rand.NewSource(s)))
}

// TestTrialLambdaClosedForm: the closed form draws what a generator
// seeded with the trial's sub-seed draws, bit for bit, on 10⁵ sub-seeds
// of the kind TrialLambda derives and on seeds at the edges of
// math/rand's seed reduction: 0 and the multiples of 2³¹−1 (which it
// maps to 89482311), the extremes of int64, and 89482311 itself.
func TestTrialLambdaClosedForm(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, m - 1, m + 1, math.MinInt64, math.MaxInt64, 89482311}
	for base := int64(0); base < 5000; base++ {
		for i := uint64(0); i < 20; i++ {
			seeds = append(seeds, stats.SubSeed(base, i))
		}
	}
	r := rand.New(rand.NewSource(1))
	for _, s := range seeds {
		r.Seed(s) // the same stream as rand.NewSource(s), without its allocation
		want := schedule.SampleLambda(r)
		if got := lambdaFrom(s, firstInt63(s)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: closed form gives λ = %v, the generator %v", s, got, want)
		}
	}
	for _, s := range seeds[:11] {
		if got, want := lambdaFrom(s, firstInt63(s)), seededLambda(s); got != want {
			t.Fatalf("seed %d: closed form gives λ = %v, a new generator %v", s, got, want)
		}
	}
	if got, want := TrialLambda(3, 7), seededLambda(stats.SubSeed(3, 7)); got != want {
		t.Fatalf("TrialLambda(3, 7) = %v, want %v", got, want)
	}
}

// TestTrialLambdaFallback: a first draw that Float64 would retry
// (it rounds to 1) or that SampleLambda would redraw (0) sends the
// closed form to the generator itself. No seed reaches these cases (a
// search over all 2³¹−2 reduced seeds found none), so the test hands
// the first draws in.
func TestTrialLambdaFallback(t *testing.T) {
	for _, s := range []int64{5, 89482311} {
		want := seededLambda(s)
		for _, r := range []int64{0, 1<<63 - 1, 1<<63 - 512} {
			if got := lambdaFrom(s, r); got != want {
				t.Errorf("seed %d, first draw %d: λ = %v, want the generator's %v", s, r, got, want)
			}
		}
		// One below the values that round to 2⁶³ is a draw like any other.
		r := int64(1<<63 - 1024)
		if got, want := lambdaFrom(s, r), math.Sqrt(float64(r)/(1<<63)); got != want {
			t.Errorf("seed %d, first draw %d: λ = %v, want %v", s, r, got, want)
		}
	}
}
