package cache

import (
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// lruModel is the reference the cache must match under a single caller:
// one container/list LRU per shard, holding the cache's per-shard capacity,
// and the counters a batch read of that LRU implies.
type lruModel struct {
	c     *Sharded
	lists map[*shard]*list.List // front = most recently used; values are ids
	elems map[int]*list.Element
	st    Stats
}

func newLRUModel(c *Sharded) *lruModel {
	m := &lruModel{c: c, lists: map[*shard]*list.List{}, elems: map[int]*list.Element{}}
	for _, sh := range c.shards {
		m.lists[sh] = list.New()
	}
	return m
}

// read resolves every position against residency as it stood when the
// batch began, then loads each distinct missing id once and installs the
// loads in batch order, evicting from the cold end.
func (m *lruModel) read(ids []int) {
	var loads []int
	for _, id := range ids {
		if el, ok := m.elems[id]; ok {
			m.st.Hits++
			m.lists[m.c.shardOf(id)].MoveToFront(el)
			continue
		}
		m.st.Misses++
		if !slices.Contains(loads, id) {
			loads = append(loads, id)
		}
	}
	m.st.Loads += int64(len(loads))
	for _, id := range loads {
		l := m.lists[m.c.shardOf(id)]
		m.elems[id] = l.PushFront(id)
		if l.Len() > m.c.capPerShard {
			delete(m.elems, l.Remove(l.Back()).(int))
			m.st.Evictions++
		}
	}
}

func (m *lruModel) drop(id int) {
	if el, ok := m.elems[id]; ok {
		m.lists[m.c.shardOf(id)].Remove(el)
		delete(m.elems, id)
	}
}

func (m *lruModel) invalidate() {
	for _, l := range m.lists {
		l.Init()
	}
	clear(m.elems)
}

// check compares counters and every shard's LRU order, newest first.
func (m *lruModel) check(t *testing.T, step int, op string) {
	t.Helper()
	want := m.st
	want.Resident = int64(len(m.elems))
	if got := m.c.Stats(); got != want {
		t.Fatalf("step %d (%s): stats %+v, model %+v", step, op, got, want)
	}
	for _, sh := range m.c.shards {
		var got, want []int
		for s := sh.slots[0].next; s != 0; s = sh.slots[s].next {
			got = append(got, sh.slots[s].id)
		}
		for el := m.lists[sh].Front(); el != nil; el = el.Next() {
			want = append(want, el.Value.(int))
		}
		if !slices.Equal(got, want) || len(sh.ids) != len(want) {
			t.Fatalf("step %d (%s): shard LRU %v (%d mapped), model %v", step, op, got, len(sh.ids), want)
		}
	}
}

// TestShardedMatchesLRUModel drives the cache and a plain container/list
// LRU through one seeded sequence of batch and single reads (with
// duplicate ids), writes, drops and invalidations, and requires the same
// counters and eviction order after every step — what keeps the cache rows
// of the benchmark and the stack matrix's pinned counts where they were.
func TestShardedMatchesLRUModel(t *testing.T) {
	const bs = 2
	for _, shards := range []int{1, 4, 16} {
		for _, capacity := range []int{1, 3, 64} {
			t.Run(fmt.Sprintf("shards%d_cap%d", shards, capacity), func(t *testing.T) {
				span := 2*capacity + 5
				mem := storage.NewMemStore(bs)
				fill(t, mem, span)
				truth := make([][]float64, span)
				for id := range truth {
					truth[id] = []float64{float64(id * 1000), float64(id*1000 + 1)}
				}
				c, err := New(mem, capacity, shards)
				if err != nil {
					t.Fatal(err)
				}
				m := newLRUModel(c)
				rng := rand.New(rand.NewSource(int64(shards*100 + capacity)))
				write := func(id int) []float64 {
					truth[id] = []float64{rng.Float64(), rng.Float64()}
					m.drop(id)
					return slices.Clone(truth[id])
				}
				for step := 0; step < 3000; step++ {
					var op string
					switch r := rng.Intn(100); {
					case r < 45:
						op = "ReadBlocks"
						ids := make([]int, 1+rng.Intn(12))
						bufs := make([][]float64, len(ids))
						for i := range ids {
							ids[i] = rng.Intn(span)
							bufs[i] = make([]float64, bs)
						}
						m.read(ids)
						if err := c.ReadBlocks(ids, bufs); err != nil {
							t.Fatal(err)
						}
						for i, id := range ids {
							if !slices.Equal(bufs[i], truth[id]) {
								t.Fatalf("step %d: block %d read %v, want %v", step, id, bufs[i], truth[id])
							}
						}
					case r < 70:
						op = "ReadBlock"
						id, buf := rng.Intn(span), make([]float64, bs)
						m.read([]int{id})
						if err := c.ReadBlock(id, buf); err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(buf, truth[id]) {
							t.Fatalf("step %d: block %d read %v, want %v", step, id, buf, truth[id])
						}
					case r < 80:
						op = "WriteBlock"
						id := rng.Intn(span)
						if err := c.WriteBlock(id, write(id)); err != nil {
							t.Fatal(err)
						}
					case r < 88:
						op = "WriteBlocks"
						ids := []int{rng.Intn(span), rng.Intn(span), rng.Intn(span)}
						data := make([][]float64, len(ids))
						for i, id := range ids {
							data[i] = write(id)
						}
						// A repeated id lands its last copy.
						for i, id := range ids {
							truth[id] = data[i]
						}
						if err := c.WriteBlocks(ids, data); err != nil {
							t.Fatal(err)
						}
					case r < 98:
						op = "Drop"
						id := rng.Intn(span)
						m.drop(id)
						c.Drop(id)
					default:
						op = "Invalidate"
						m.invalidate()
						c.Invalidate()
					}
					m.check(t, step, op)
				}
			})
		}
	}
}

// TestMissAllocBudget gates the tentpole of the slot slab: once the slab
// is full, a batch of misses reuses evicted slots and spare calls, and a
// batch of hits copies out, neither allocating.
func TestMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const bs, span = 256, 256
	mem := storage.NewMemStore(bs)
	fill(t, mem, span)
	c, err := New(mem, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 8)
	bufs := make([][]float64, len(ids))
	for i := range bufs {
		bufs[i] = make([]float64, bs)
	}
	next := 0
	misses := func() {
		// Ids cycle through 8x the capacity, so none is still resident.
		for i := range ids {
			ids[i], next = next, (next+1)%span
		}
		if err := c.ReadBlocks(ids, bufs); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * span / len(ids) {
		misses()
	}
	before := c.Stats()
	if got := testing.AllocsPerRun(200, misses); got != 0 {
		t.Errorf("batch of misses: %.2f allocations, want 0", got)
	}
	if st := c.Stats(); st.Hits != before.Hits || st.Loads-before.Loads != 201*int64(len(ids)) {
		t.Fatalf("miss batches hit or coalesced: before %+v, after %+v", before, st)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := c.ReadBlock(next, bufs[0]); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % span
	}); got != 0 {
		t.Errorf("single miss: %.2f allocations, want 0", got)
	}

	for i := range ids {
		ids[i] = i // 8 ids fit any shard's capacity of 8
	}
	hits := func() {
		if err := c.ReadBlocks(ids, bufs); err != nil {
			t.Fatal(err)
		}
	}
	hits()
	before = c.Stats()
	if got := testing.AllocsPerRun(200, hits); got != 0 {
		t.Errorf("batch of hits: %.2f allocations, want 0", got)
	}
	if st := c.Stats(); st.Misses != before.Misses {
		t.Fatalf("hit batches missed: before %+v, after %+v", before, st)
	}
}

// TestSlabGrowsLazily pins that a cache commits memory only for blocks it
// holds: opening a million-block cache allocates under 1 MiB.
func TestSlabGrowsLazily(t *testing.T) {
	mem := storage.NewMemStore(256)
	fill(t, mem, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(mem, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReadBlock(3, make([]float64, 256)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("New(mem, 1<<20, 0) and one read allocated %d bytes, want under 1 MiB", got)
	}
	runtime.KeepAlive(c)
}

var errInjected = errors.New("injected read failure")

// idGateStore parks every read of a gated id, after performing it, until
// that id's gate is closed, announcing each park on entered. While fail is
// set, the next gated read fails.
type idGateStore struct {
	storage.BlockStore
	gates   map[int]chan struct{}
	entered chan int
	fail    atomic.Bool
}

func newIDGateStore(inner storage.BlockStore, ids ...int) *idGateStore {
	g := &idGateStore{BlockStore: inner, gates: map[int]chan struct{}{}, entered: make(chan int, 16)}
	for _, id := range ids {
		g.gates[id] = make(chan struct{})
	}
	return g
}

func (g *idGateStore) ReadBlock(id int, buf []float64) error {
	err := g.BlockStore.ReadBlock(id, buf)
	if gate, ok := g.gates[id]; ok {
		g.entered <- id
		<-gate
		if g.fail.Swap(false) {
			return errInjected
		}
	}
	return err
}

// awaitWaiters spins until n callers are parked on id's in-flight load.
func awaitWaiters(c *Sharded, id, n int) {
	sh := c.shardOf(id)
	for {
		sh.mu.Lock()
		cl := sh.inflight[id]
		parked := cl != nil && cl.waiters == n
		sh.mu.Unlock()
		if parked {
			return
		}
		runtime.Gosched()
	}
}

// TestWaiterRereadsBlockEvictedBeforeCopy parks a waiter between the
// owner's install and its own copy, evicts the block in that window, and
// requires the waiter to re-read the store (counted as a load) rather than
// copy whatever now occupies the slot.
func TestWaiterRereadsBlockEvictedBeforeCopy(t *testing.T) {
	mem := storage.NewMemStore(1)
	for id := 0; id < 4; id++ {
		if err := mem.WriteBlock(id, []float64{float64(10 + id)}); err != nil {
			t.Fatal(err)
		}
	}
	gate := newIDGateStore(mem, 0, 2)
	c, err := New(gate, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ownerDone := make(chan error)
	go func() { ownerDone <- c.ReadBlock(0, make([]float64, 1)) }()
	<-gate.entered // the owner's load of 0 is parked

	// The waiter joins the load of 0, then parks on its own load of 2, so
	// its copy of 0 comes only after 2 is released.
	bufs := [][]float64{{-1}, {-1}}
	waiterDone := make(chan error)
	go func() { waiterDone <- c.ReadBlocks([]int{0, 2}, bufs) }()
	<-gate.entered

	close(gate.gates[0])
	if err := <-ownerDone; err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 1)
	if err := c.ReadBlock(3, buf); err != nil { // evicts 0 from the one slot
		t.Fatal(err)
	}
	close(gate.gates[2])
	if err := <-waiterDone; err != nil {
		t.Fatal(err)
	}
	if bufs[0][0] != 10 || bufs[1][0] != 12 {
		t.Errorf("waiter read %v, want [[10] [12]]", bufs)
	}
	// Loads: the owner's 0, the waiter's 2, the evicting 3, the re-read 0.
	if st := c.Stats(); st.Loads != 4 || st.Misses != 4 || st.Inflight != 0 {
		t.Errorf("stats %+v, want 4 loads, 4 misses, none in flight", st)
	}
}

// TestLoadErrorReachesEveryWaiter fails a batch's load while callers from
// other goroutines are parked on it: each gets the error, no load stays in
// flight, both calls return to the spare list, and the next read succeeds.
func TestLoadErrorReachesEveryWaiter(t *testing.T) {
	mem := storage.NewMemStore(1)
	fill(t, mem, 2)
	gate := newIDGateStore(mem, 0)
	c, err := New(gate, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	errs := make(chan error, waiters+1)
	go func() {
		errs <- c.ReadBlocks([]int{0, 1}, [][]float64{make([]float64, 1), make([]float64, 1)})
	}()
	<-gate.entered
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.ReadBlock(0, make([]float64, 1))
		}()
	}
	awaitWaiters(c, 0, waiters)
	gate.fail.Store(true)
	close(gate.gates[0])
	wg.Wait()
	for range waiters + 1 {
		if err := <-errs; !errors.Is(err, errInjected) {
			t.Errorf("read returned %v, want the injected error", err)
		}
	}
	sh := c.shards[0]
	sh.mu.Lock()
	spare, inflight := len(sh.spare), len(sh.inflight)
	sh.mu.Unlock()
	if st := c.Stats(); st.Inflight != 0 || inflight != 0 || spare != 2 {
		t.Errorf("after the failed load: %d in flight (%d registered), %d spare calls, want 0, 0, 2", st.Inflight, inflight, spare)
	}
	buf := make([]float64, 1)
	if err := c.ReadBlock(0, buf); err != nil || buf[0] != 0 {
		t.Errorf("read after the failure = %v, %v; want [0], nil", buf, err)
	}
}
