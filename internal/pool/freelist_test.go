package pool

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type entry struct {
	inUse atomic.Bool
	owner int
}

// TestFreeListAcrossGoroutines: the entry one goroutine puts is the one
// another gets, and gets return entries last in first out.
func TestFreeListAcrossGoroutines(t *testing.T) {
	var l FreeList[entry]
	a, b := new(entry), new(entry)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Put(a)
		l.Put(b)
	}()
	<-done
	got := make(chan [3]*entry)
	go func() { got <- [3]*entry{l.Get(), l.Get(), l.Get()} }()
	g := <-got
	if g[0] != b || g[1] != a {
		t.Fatalf("got %p then %p, want %p then %p", g[0], g[1], b, a)
	}
	if g[2] == a || g[2] == b || g[2] == nil {
		t.Fatalf("an empty list returned %p, want a new entry", g[2])
	}
}

// collect runs one collection and waits until the list has aged after
// it: until the entries idle before it are marked aged (or gone).
func collect(t *testing.T, l *FreeList[entry], wantLeft int) {
	t.Helper()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		left, aged := len(l.items), l.aged
		l.mu.Unlock()
		if left == wantLeft && aged == left {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after a collection the list holds %d entries, %d aged; want %d, all aged", left, aged, wantLeft)
		}
	}
}

// TestFreeListAgesByGC: an entry survives one collection and is dropped
// at the second.
func TestFreeListAgesByGC(t *testing.T) {
	// Only this test's own runtime.GC calls collect while it runs, so
	// each collect call is exactly one cycle.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var l FreeList[entry]
	x := new(entry)
	l.Put(x)
	collect(t, &l, 1)
	if got := l.Get(); got != x {
		t.Fatalf("after one collection Get returned %p, want the entry %p", got, x)
	}
	l.Put(x)
	collect(t, &l, 1)
	collect(t, &l, 0)
	if got := l.Get(); got == x {
		t.Fatal("an entry idle through two collections was returned")
	}
}

// TestFreeListConcurrent: eight goroutines get and put on one list,
// with collections in between; no entry is ever held by two at once.
func TestFreeListConcurrent(t *testing.T) {
	var l FreeList[entry]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				e := l.Get()
				if !e.inUse.CompareAndSwap(false, true) {
					t.Error("an entry was handed out twice")
					return
				}
				e.owner = g
				if g == 0 && i%500 == 0 {
					runtime.GC()
				}
				if e.owner != g {
					t.Errorf("goroutine %d's entry was written by goroutine %d", g, e.owner)
				}
				e.inUse.Store(false)
				l.Put(e)
			}
		}()
	}
	wg.Wait()
}
