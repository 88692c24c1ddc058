// Package b exercises the worker-pool rule of the scratchescape analyzer:
// a closure handed to internal/parallel runs on worker goroutines, so
// capturing a pooled buffer there races the pool just like a go statement.
package b

import (
	"sync"

	"github.com/shiftsplit/shiftsplit/internal/parallel"
)

var pool = sync.Pool{New: func() any { b := make([]float64, 64); return &b }}

func fanOutCaptured(n int) error {
	bp := pool.Get().(*[]float64)
	defer pool.Put(bp)
	b := *bp
	return parallel.Run(n, 0,
		func(seq int) (float64, error) {
			return b[seq], nil // want `pooled scratch buffer b is captured by a closure handed to the parallel worker pool`
		},
		func(seq int, v float64) error { return nil })
}

func fanOutCopied(n int) error {
	bp := pool.Get().(*[]float64)
	c := append([]float64(nil), (*bp)...)
	pool.Put(bp)
	// The closure owns its own copy: no finding.
	return parallel.Run(n, 0,
		func(seq int) (float64, error) { return c[seq], nil },
		func(seq int, v float64) error { return nil })
}

func consumeOnCaller(n int) error {
	bp := pool.Get().(*[]float64)
	defer pool.Put(bp)
	b := *bp
	// consume runs on the calling goroutine, but the analyzer cannot tell
	// the stages apart and the buffer still outlives individual calls, so
	// capturing scratch in any worker-pool closure is flagged.
	return parallel.Run(n, 0,
		func(seq int) (float64, error) { return 0, nil },
		func(seq int, v float64) error {
			b[seq] = v // want `pooled scratch buffer b is captured by a closure handed to the parallel worker pool`
			return nil
		})
}

// stageResult carries a worker's pooled scratch to the consumer with the
// value computed in it.
type stageResult struct {
	v  float64
	bp *[]float64
}

// drawnInWorker: each produce call draws its own buffer and returns it in
// its result; consume, the only other holder, Puts it. Ownership moves, it
// is never shared: no finding.
func drawnInWorker(n int) error {
	return parallel.Run(n, 0,
		func(seq int) (stageResult, error) {
			bp := pool.Get().(*[]float64)
			(*bp)[0] = float64(seq)
			return stageResult{v: (*bp)[0], bp: bp}, nil
		},
		func(seq int, res stageResult) error {
			pool.Put(res.bp)
			return nil
		})
}
