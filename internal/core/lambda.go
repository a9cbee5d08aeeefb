package core

import (
	"math"
	"math/rand"

	"repro/internal/schedule"
	"repro/internal/stats"
)

// TrialLambda returns the λ drawn for trial i under the given base
// seed: schedule.SampleLambda's first draw from
// rand.New(rand.NewSource(stats.SubSeed(seed, i))), so the sample
// sequence is a pure function of the seed and index, independent of
// execution order. It computes that draw in closed form instead of
// seeding a generator.
func TrialLambda(seed int64, i int) float64 {
	s := stats.SubSeed(seed, uint64(i))
	return lambdaFrom(s, firstInt63(s))
}

// lambdaFrom returns the λ that SampleLambda draws from a generator
// seeded with s whose first Int63 is r: √f for f = r/2⁶³ when
// 0 < f < 1. Otherwise Float64 retries a draw that rounds to 1, or
// SampleLambda redraws a 0, and the generator itself is run; a search
// over all 2³¹−2 reduced seeds found no seed that gets there.
func lambdaFrom(s, r int64) float64 {
	if f := float64(r) / (1 << 63); f > 0 && f < 1 {
		return math.Sqrt(f)
	}
	return schedule.SampleLambda(rand.New(rand.NewSource(s)))
}

// math/rand's seeding (rngSource.Seed in $GOROOT/src/math/rand/rng.go)
// runs the generator x ← 48271·x mod (2³¹−1) from the reduced seed x₀
// and sets word i of its state to
//
//	x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i].
//
// The first Int63 reads only words 333 and 606:
// (vec[333] + vec[606]) & (2⁶³−1). Since x_n = 48271ⁿ·x₀ mod (2³¹−1),
// each iterate is one product with a power computed once. Go 1
// compatibility freezes seeded math/rand streams, so this stays exact.
const (
	lcgMod    = 1<<31 - 1
	cooked333 = -4633371852008891965 // rngCooked[333]
	cooked606 = 4152330101494654406  // rngCooked[606]
)

// lcgPow holds 48271ⁿ mod (2³¹−1) for the six iterates n that words
// 333 and 606 are built from.
var lcgPow = func() (p [6]uint64) {
	for j, n := range [6]int{21 + 3*333, 22 + 3*333, 23 + 3*333, 21 + 3*606, 22 + 3*606, 23 + 3*606} {
		p[j] = 1
		for b := uint64(48271); n > 0; n >>= 1 {
			if n&1 == 1 {
				p[j] = p[j] * b % lcgMod
			}
			b = b * b % lcgMod
		}
	}
	return p
}()

// firstInt63 returns the first Int63 of rand.NewSource(s).
func firstInt63(s int64) int64 {
	s %= lcgMod
	if s < 0 {
		s += lcgMod
	}
	if s == 0 {
		s = 89482311
	}
	x := uint64(s)
	word := func(p []uint64, cooked int64) int64 {
		return int64(p[0]*x%lcgMod)<<40 ^ int64(p[1]*x%lcgMod)<<20 ^ int64(p[2]*x%lcgMod) ^ cooked
	}
	return (word(lcgPow[:3], cooked333) + word(lcgPow[3:], cooked606)) & (1<<63 - 1)
}
