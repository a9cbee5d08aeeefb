// Package pool provides the bounded worker pool shared by the
// scheduler engine and the experiment harnesses. Work items are
// indexed, results are collected positionally, and aggregation happens
// in index order after all workers drain — so a computation fanned out
// over any number of workers produces bit-identical output to a serial
// run, provided each item's work depends only on its index.
//
// It also provides FreeList, the process-wide list of idle values that
// the LP solves and the Stretch trials reuse their buffers from.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Size normalizes a requested worker count: values ≤ 0 mean
// GOMAXPROCS, and the count never exceeds the item count n.
func Size(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(i) for every i in [0, n) on at most `workers`
// goroutines and returns the results in index order. If any call
// fails, the lowest-index error is returned, remaining items are
// skipped, and the partial results are discarded. A cancelled context
// stops new items and returns ctx.Err() unless an fn error (lower
// index) takes precedence.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	workers = Size(workers, n)
	if workers == 1 {
		// Serial fast path: no goroutines, same semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		mu     sync.Mutex
		next   int
		failed bool
		wg     sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next >= n || ctx.Err() != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				v, err := fn(i)
				if err != nil {
					mu.Lock()
					errs[i] = err
					failed = true
					mu.Unlock()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Stream runs fn(i) for every i in [0, n) on at most `workers`
// goroutines and calls yield with each (index, result) pair as it
// completes — in completion order, not index order — always from the
// calling goroutine. Unlike Map, results are handed off one at a time
// instead of collected: a stream over n items holds O(workers) results
// in memory, never O(n), which is what lets 100k-cell sweeps stream.
//
// Stream returns when every item has been yielded, when yield returns
// false, or when ctx is cancelled, whichever comes first. On early
// exit no new items start and in-flight results are discarded. With
// workers == 1 items run serially in index order on the calling
// goroutine, so single-worker streams are deterministic end to end.
func Stream[T any](ctx context.Context, n, workers int, fn func(i int) T, yield func(i int, v T) bool) {
	if n <= 0 {
		return
	}
	workers = Size(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			v := fn(i)
			if ctx.Err() != nil || !yield(i, v) {
				return
			}
		}
		return
	}
	type item struct {
		i int
		v T
	}
	var (
		next atomic.Int64
		stop = make(chan struct{})
		out  = make(chan item)
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				select {
				case out <- item{i, fn(i)}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(out) }()
	for it := range out {
		// Check cancellation before yielding, so no result computed
		// after the cancel point reaches the caller.
		if ctx.Err() != nil || !yield(it.i, it.v) {
			close(stop)
			for range out { // unblock senders until the pool drains
			}
			return
		}
	}
}
