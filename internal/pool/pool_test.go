package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Map(context.Background(), 50, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapLowestIndexError(t *testing.T) {
	boom7 := errors.New("boom 7")
	_, err := Map(context.Background(), 20, 4, func(i int) (int, error) {
		if i == 7 {
			return 0, boom7
		}
		if i == 15 {
			return 0, fmt.Errorf("boom 15")
		}
		return i, nil
	})
	if !errors.Is(err, boom7) {
		t.Fatalf("want lowest-index error, got %v", err)
	}
}

func TestMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, 10, 4, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := Map(ctx, 10, 1, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial path: want context.Canceled, got %v", err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0, 4, func(i int) (int, error) { return i, nil })
	if err != nil || got != nil {
		t.Fatalf("empty: %v %v", got, err)
	}
}

func TestSize(t *testing.T) {
	if s := Size(0, 100); s < 1 {
		t.Fatalf("Size(0,100) = %d", s)
	}
	if s := Size(8, 3); s != 3 {
		t.Fatalf("Size(8,3) = %d", s)
	}
	if s := Size(-1, 0); s != 1 {
		t.Fatalf("Size(-1,0) = %d", s)
	}
}

// TestStreamYieldsAll: every index arrives exactly once, from the
// calling goroutine, at several worker counts.
func TestStreamYieldsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		seen := make([]bool, 100)
		Stream(context.Background(), len(seen), workers, func(i int) int { return i * i }, func(i, v int) bool {
			if v != i*i {
				t.Fatalf("workers=%d: fn(%d) arrived as %d", workers, i, v)
			}
			if seen[i] {
				t.Fatalf("workers=%d: index %d yielded twice", workers, i)
			}
			seen[i] = true
			return true
		})
		for i, ok := range seen {
			if !ok {
				t.Fatalf("workers=%d: index %d never yielded", workers, i)
			}
		}
	}
}

// TestStreamSerialOrder: one worker streams in index order.
func TestStreamSerialOrder(t *testing.T) {
	last := -1
	Stream(context.Background(), 50, 1, func(i int) int { return i }, func(i, v int) bool {
		if i != last+1 {
			t.Fatalf("index %d after %d", i, last)
		}
		last = i
		return true
	})
	if last != 49 {
		t.Fatalf("stopped at %d", last)
	}
}

// TestStreamEarlyStop: yield returning false stops new work; at most
// consumed+workers items ever run.
func TestStreamEarlyStop(t *testing.T) {
	var ran atomic.Int64
	const workers, consume = 4, 10
	got := 0
	Stream(context.Background(), 100000, workers, func(i int) int {
		ran.Add(1)
		return i
	}, func(i, v int) bool {
		got++
		return got < consume
	})
	if got != consume {
		t.Fatalf("yielded %d, want %d", got, consume)
	}
	if r := ran.Load(); r > consume+2*workers {
		t.Fatalf("ran %d items after early stop; want ≤ %d", r, consume+2*workers)
	}
}

// TestStreamCancel: a cancelled context ends the stream without
// running the whole range.
func TestStreamCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	got := 0
	Stream(ctx, 100000, 4, func(i int) int { ran.Add(1); return i }, func(i, v int) bool {
		if got++; got == 5 {
			cancel()
		}
		return true
	})
	if r := ran.Load(); r >= 100000 {
		t.Fatal("cancelled stream ran the full range")
	}
}
