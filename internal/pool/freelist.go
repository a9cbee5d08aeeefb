package pool

import (
	"runtime"
	"sync"
)

// FreeList holds idle values for reuse, last in first out. Unlike a
// sync.Pool it is one list for the whole process rather than one per
// P, so the value one goroutine puts is the next one any goroutine
// gets. Like a sync.Pool it ages its entries by the collector: a value
// left idle through two GC cycles is dropped, so a burst of large
// values does not pin memory for the rest of the process.
//
// The zero FreeList is empty and ready to use. It must not be copied
// after first use.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []*T // idle values, oldest first
	aged  int  // items[:aged] were already idle at the last collection
	armed bool // a sentinel will report the next collection
}

// Get removes and returns the most recently put value, or a new zero T
// when the list is empty.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	v := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	l.aged = min(l.aged, n-1)
	return v
}

// Put adds v to the list. The caller must not use v afterwards.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, v)
	if !l.armed {
		l.arm()
	}
}

// sentinel is the object whose collection marks a GC cycle. Its pointer
// field keeps it out of the tiny allocator, whose shared blocks can
// outlive any one of their objects.
type sentinel struct{ _ *byte }

// arm allocates an unreachable sentinel whose cleanup ages the list
// after the next collection. l.mu must be held.
func (l *FreeList[T]) arm() {
	runtime.AddCleanup(new(sentinel), (*FreeList[T]).age, l)
	l.armed = true
}

// age runs after each collection while the list holds values: it drops
// the values that were already idle at the previous one, and re-arms
// while values remain.
func (l *FreeList[T]) age() {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := copy(l.items, l.items[l.aged:])
	clear(l.items[n:])
	l.items, l.aged, l.armed = l.items[:n], n, false
	if n > 0 {
		l.arm()
	}
}
