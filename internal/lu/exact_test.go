package lu

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameFloats reports whether a and b hold the same floats bit for bit,
// counting +0 and −0 as equal, and names the first difference.
func sameFloats(a, b []float64) (int, bool) {
	for i := range a {
		if a[i] != b[i] || (a[i] != 0 && math.Float64bits(a[i]) != math.Float64bits(b[i])) {
			return i, false
		}
	}
	return -1, true
}

// TestSparseSolvesMatchDenseExactly pins the claim the simplex pivot
// sequence rests on: the sparse-RHS paths (aliased b, n ≥ 64, at most
// n/8 nonzeros) return the dense path's floats bit for bit, up to the
// sign of zeros. Pattern sizes straddle n/8, so both paths run through
// every entry point, with and without a caller-supplied support, and
// the Supp variants must report every row that ends up nonzero.
func TestSparseSolvesMatchDenseExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 64 + rng.Intn(537)
		a := randomNonsingular(rng, n, n+rng.Intn(2*n))
		f := New(n)
		if err := f.Factor(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for rhs := 0; rhs < 8; rhs++ {
			k := 1 + rng.Intn(n/8)
			if rhs%2 == 1 {
				k = n/8 + 1 + rng.Intn(n/8)
			}
			b := make([]float64, n)
			pat := rng.Perm(n)[:k]
			for _, i := range pat {
				b[i] = rng.NormFloat64()
			}
			// A support superset: the pattern plus a few exact zeros,
			// ascending as SolveSupp requires.
			inSupp := make([]bool, n)
			for _, i := range pat {
				inSupp[i] = true
			}
			for e := 0; e < 3; e++ {
				inSupp[rng.Intn(n)] = true
			}
			var supp []int
			for i, ok := range inSupp {
				if ok {
					supp = append(supp, i)
				}
			}
			wrote := make([]uint64, (n+63)/64)
			for _, solve := range []struct {
				name   string
				dense  func(b, x []float64)
				sparse func(v []float64) bool // reports whether wrote is valid
			}{
				{"Solve", f.Solve, func(v []float64) bool { f.Solve(v, v); return false }},
				{"SolveSupp", f.Solve, func(v []float64) bool { return f.SolveSupp(v, v, supp, wrote) }},
				{"SolveTranspose", f.SolveTranspose, func(v []float64) bool { f.SolveTranspose(v, v); return false }},
				{"SolveTransposeSupp", f.SolveTranspose, func(v []float64) bool { return f.SolveTransposeSupp(v, v, supp, wrote) }},
			} {
				want := make([]float64, n)
				solve.dense(b, want) // x does not alias b: the dense path
				got := append([]float64(nil), b...)
				for w := range wrote {
					wrote[w] = 0
				}
				sparse := solve.sparse(got)
				if i, ok := sameFloats(got, want); !ok {
					t.Fatalf("trial %d (n=%d, %d nonzeros): %s[%d] = %v (bits %016x), dense path %v (bits %016x)",
						trial, n, k, solve.name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
				if sparse != (strings.HasSuffix(solve.name, "Supp") && k <= n/8) {
					t.Fatalf("trial %d (n=%d, %d nonzeros): %s reported sparse=%v", trial, n, k, solve.name, sparse)
				}
				for i, v := range got {
					if sparse && v != 0 && wrote[i>>6]&(1<<(uint(i)&63)) == 0 {
						t.Fatalf("trial %d: %s left nonzero x[%d] outside the written rows", trial, solve.name, i)
					}
				}
			}
		}
	}
}
