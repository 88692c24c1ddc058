package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// TestLentFramesKeepTheirBytes runs lenders against Drop, Invalidate and
// eviction churn on a small cache: every frame lent must hold the bytes it
// had when lent until its lease returns, however its slot left the index
// meanwhile. Afterwards no slot is lent, and no shard holds more slots than
// its capacity plus the most pins that could be out at once.
func TestLentFramesKeepTheirBytes(t *testing.T) {
	const bs, span, lenders, batch = 8, 64, 4, 6
	mem := storage.NewMemStore(bs)
	fill(t, mem, span)
	c, err := New(mem, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		buf := make([]float64, bs)
		for i := 0; !stop.Load(); i++ {
			switch i % 8 {
			case 0:
				c.Invalidate()
			case 1, 2:
				c.Drop(i % span)
			default:
				_ = c.ReadBlock((i*7)%span, buf) // evicts
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < lenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var l storage.Lease
			ids := make([]int, batch)
			bufs := make([][]float64, batch)
			for round := 0; round < 400; round++ {
				for i := range ids {
					ids[i] = (g*13 + round*5 + i*3) % span
					bufs[i] = make([]float64, bs)
				}
				if err := c.LendBlocks(ids, bufs, &l); err != nil {
					t.Error(err)
					return
				}
				for check := 0; check < 3; check++ {
					runtime.Gosched()
					for i, id := range ids {
						for k, v := range bufs[i] {
							if v != float64(id*1000+k) {
								t.Errorf("lender %d round %d: block %d slot %d reads %v while lent, want %v", g, round, id, k, v, float64(id*1000+k))
								l.Return()
								return
							}
						}
					}
				}
				l.Return()
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	churn.Wait()
	if st := c.Stats(); st.Lent != 0 {
		t.Errorf("after every lease returned: %d slots lent", st.Lent)
	}
	for i, sh := range c.shards {
		if n := len(sh.slots) - 1; n > c.capPerShard+lenders*batch {
			t.Errorf("shard %d holds %d slots, over its capacity %d plus %d pins", i, n, c.capPerShard, lenders*batch)
		}
	}
}
