// Package a exercises the scratchescape analyzer: buffers drawn from a
// sync.Pool must not outlive the call that drew them.
package a

import "sync"

var pool = sync.Pool{New: func() any { b := make([]float64, 64); return &b }}

type holder struct {
	buf []float64
}

var global []float64

func returned() []float64 {
	bp := pool.Get().(*[]float64)
	defer pool.Put(bp)
	b := *bp
	return b // want `pooled scratch buffer is returned`
}

func stored(h *holder) {
	bp := pool.Get().(*[]float64)
	h.buf = *bp // want `pooled scratch buffer is stored in a field`
	pool.Put(bp)
}

func sent(ch chan []float64) {
	bp := pool.Get().(*[]float64)
	ch <- *bp // want `pooled scratch buffer is sent on a channel`
	pool.Put(bp)
}

func captured() {
	bp := pool.Get().(*[]float64)
	b := *bp
	go process(b) // want `pooled scratch buffer b is shared with a goroutine`
	pool.Put(bp)
}

func pkgVar() {
	bp := pool.Get().(*[]float64)
	global = (*bp)[:8] // want `stored in a package variable`
	pool.Put(bp)
}

func element(m map[int][]float64) {
	bp := pool.Get().(*[]float64)
	m[0] = *bp // want `stored in a container element`
	pool.Put(bp)
}

func good(dst []float64) float64 {
	bp := pool.Get().(*[]float64)
	defer pool.Put(bp)
	b := *bp
	copy(dst, b) // handing scratch to an ordinary call is the intended use
	return b[0]  // reading one element copies a scalar out
}

// fetched hands a pooled buffer from the goroutine that drew it to the
// receiver that returns it.
type fetched struct {
	bp *[]float64
	n  int
}

// handedOver draws the buffer inside the goroutine and passes ownership
// across the channel; the receiver Puts it. One holder at a time: no
// finding.
func handedOver(n int) float64 {
	ch := make(chan fetched, 1)
	go func() {
		for i := 0; i < n; i++ {
			bp := pool.Get().(*[]float64)
			(*bp)[0] = float64(i)
			ch <- fetched{bp, i}
		}
		close(ch)
	}()
	var sum float64
	for f := range ch {
		sum += (*f.bp)[0]
		pool.Put(f.bp)
	}
	return sum
}

// sharedThenDrawn still shares the outer buffer, whatever the goroutine
// draws for itself.
func sharedThenDrawn() {
	outer := pool.Get().(*[]float64)
	done := make(chan struct{})
	go func() {
		inner := pool.Get().(*[]float64)
		copy(*inner, *outer) // want `pooled scratch buffer outer is shared with a goroutine`
		pool.Put(inner)
		close(done)
	}()
	<-done
	pool.Put(outer)
}

func process([]float64) {}
