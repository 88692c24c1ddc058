// Package parallel is the bounded worker pool behind the maintenance
// engines.
//
// The chunked transformation of Results 1–2 is embarrassingly parallel on
// the CPU side: chunks are disjoint, each chunk's transform depends only on
// its own cells, and its SHIFT-SPLIT output is a set of per-tile delta
// buckets (tile.BucketSet). What must stay sequential is the order in which
// those buckets meet storage, because (a) floating-point addition is not
// associative, so bit-identical results across worker counts require a fixed
// per-tile accumulation order, and (b) the I/O accounting of the paper — one
// read and one write per touched tile per chunk — and the journal's
// deterministic write sequence both assume chunk-ordered application.
//
// Run therefore fans chunk transforms out to a bounded pool but delivers
// results to a single consumer, on the caller's goroutine, in strictly
// ascending chunk order; the engines apply each chunk's buckets there. With
// one worker Run degrades to fully inline sequential execution over the
// very same kernels, which is the determinism argument: the parallel
// schedule performs the same floating-point operations and the same storage
// calls in the same order as the sequential one, so the transforms are
// bit-identical, the I/O counters equal and the physical write sequence the
// same for every worker count.
package parallel

import (
	"runtime"
	"sync"
)

// item carries one produced result to the reordering consumer.
type item[T any] struct {
	seq int
	v   T
	err error
}

// Run executes produce(seq) for every seq in [0, n) on a bounded worker
// pool of workers goroutines (<= 0 selects runtime.GOMAXPROCS(0)) and feeds
// each result to consume in strictly ascending seq order. consume runs on
// the calling goroutine only. At most 2*workers results are in flight
// (being produced or buffered for reordering). The first error — by seq
// order for produce, immediately for consume — cancels the run and is
// returned after all workers have stopped.
//
// With one worker (or n <= 1) everything runs inline on the caller: the
// sequential fallback is the same code path minus the goroutines.
func Run[T any](n, workers int, produce func(seq int) (T, error), consume func(seq int, v T) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for seq := 0; seq < n; seq++ {
			v, err := produce(seq)
			if err != nil {
				return err
			}
			if err := consume(seq, v); err != nil {
				return err
			}
		}
		return nil
	}
	queue := 2 * workers
	jobs := make(chan int)
	results := make(chan item[T], queue)
	tickets := make(chan struct{}, queue)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range jobs {
				v, err := produce(seq)
				select {
				case results <- item[T]{seq: seq, v: v, err: err}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for seq := 0; seq < n; seq++ {
			select {
			case tickets <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case jobs <- seq:
			case <-stop:
				return
			}
		}
	}()

	// Reorder out-of-order arrivals; tickets are released only when a seq is
	// consumed, which bounds buffered results without deadlock (the ticket
	// holders are always the next `queue` sequence numbers, so the one the
	// consumer waits for is among them).
	pending := make(map[int]item[T], queue)
	var err error
	next := 0
	for next < n && err == nil {
		it, ok := pending[next]
		if !ok {
			it = <-results
			if it.seq != next {
				pending[it.seq] = it
				continue
			}
		} else {
			delete(pending, next)
		}
		if it.err != nil {
			err = it.err
		} else {
			err = consume(it.seq, it.v)
		}
		next++
		<-tickets
	}
	halt()
	wg.Wait()
	return err
}
