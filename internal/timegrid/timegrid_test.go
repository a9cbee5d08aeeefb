package timegrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformBasics(t *testing.T) {
	g := Uniform(5)
	if g.NumSlots() != 5 {
		t.Fatalf("slots = %d, want 5", g.NumSlots())
	}
	if g.Horizon() != 5 {
		t.Fatalf("horizon = %v, want 5", g.Horizon())
	}
	for k := 0; k < 5; k++ {
		if g.Len(k) != 1 || g.Start(k) != float64(k) || g.End(k) != float64(k+1) {
			t.Fatalf("slot %d: [%v,%v] len %v", k, g.Start(k), g.End(k), g.Len(k))
		}
	}
	if !g.IsUniform() {
		t.Fatal("uniform grid not recognized")
	}
}

func TestUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	Uniform(0)
}

func TestGeometricBounds(t *testing.T) {
	g := Geometric(10, 0.5)
	b := g.Bounds()
	if b[0] != 0 || b[1] != 1 {
		t.Fatalf("bounds start %v", b[:2])
	}
	for k := 2; k < len(b); k++ {
		if math.Abs(b[k]-b[k-1]*1.5) > 1e-12 {
			t.Fatalf("bound %d = %v, want %v", k, b[k], b[k-1]*1.5)
		}
	}
	if g.Horizon() < 10 {
		t.Fatalf("horizon %v < 10", g.Horizon())
	}
	if g.IsUniform() {
		t.Fatal("geometric grid misdetected as uniform")
	}
}

func TestGeometricSlotCountLogarithmic(t *testing.T) {
	g := Geometric(1e6, 0.2)
	// Number of intervals ≈ log_{1.2}(1e6) ≈ 76.
	if n := g.NumSlots(); n > 100 {
		t.Fatalf("slots = %d, want ≈76", n)
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eps=0")
		}
	}()
	Geometric(10, 0)
}

func TestFirstUsableSlot(t *testing.T) {
	g := Uniform(4)
	cases := []struct {
		r    float64
		want int
	}{
		{0, 0}, {-1, 0}, {0.5, 1}, {1, 1}, {1.5, 2}, {4, 4}, {10, 4},
	}
	for _, c := range cases {
		if got := g.FirstUsableSlot(c.r); got != c.want {
			t.Errorf("FirstUsableSlot(%v) = %d, want %d", c.r, got, c.want)
		}
	}
	geo := Geometric(8, 1.0) // bounds 0,1,2,4,8
	geoCases := []struct {
		r    float64
		want int
	}{
		{0, 0}, {0.5, 1}, {1, 1}, {1.5, 2}, {3, 3}, {4, 3}, {5, 4}, {8, 4},
	}
	for _, c := range geoCases {
		if got := geo.FirstUsableSlot(c.r); got != c.want {
			t.Errorf("geo FirstUsableSlot(%v) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestFirstUsableSlotProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var g Grid
		if r.Intn(2) == 0 {
			g = Uniform(1 + r.Intn(30))
		} else {
			g = Geometric(1+r.Float64()*1000, 0.05+r.Float64())
		}
		tt := r.Float64() * g.Horizon()
		// FirstUsableSlot never returns a slot starting before r.
		fu := g.FirstUsableSlot(tt)
		if fu < g.NumSlots() && g.Start(fu) < tt-1e-12 {
			return false
		}
		// And it is the tightest such slot.
		if fu > 0 && fu <= g.NumSlots() && g.Start(fu-1) >= tt {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestLenSumsToHorizon(t *testing.T) {
	g := Geometric(500, 0.3)
	var sum float64
	for k := 0; k < g.NumSlots(); k++ {
		sum += g.Len(k)
	}
	if math.Abs(sum-g.Horizon()) > 1e-9 {
		t.Fatalf("len sum %v, horizon %v", sum, g.Horizon())
	}
}

func TestStringer(t *testing.T) {
	if s := Uniform(3).String(); s == "" {
		t.Fatal("empty String()")
	}
}
