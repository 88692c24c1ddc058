package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/ingest/ingesttest"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

func newTestIngester(t *testing.T, cfg Config) *Ingester {
	t.Helper()
	app, err := appender.New([]int{4, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close() }) // idempotent; tests may close early
	return in
}

// newWedgedIngester is newTestIngester over a backing whose commits block
// until the returned wedge is released, with one slab already enqueued and
// its commit wedged: the commit loop is provably busy, so whatever a test
// enqueues next stays queued and unclaimed until Release. holder yields the
// first slab's outcome.
func newWedgedIngester(t *testing.T, cfg Config) (in *Ingester, w *ingesttest.Wedge, holder <-chan error) {
	t.Helper()
	w = ingesttest.NewWedge()
	app, err := appender.NewWithBacking([]int{4, 4}, 1, w.Backing)
	if err != nil {
		t.Fatal(err)
	}
	if in, err = New(app, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Release()
		_ = in.Close()
	})
	done := make(chan error, 1)
	go func() {
		_, err := in.Enqueue(context.Background(), slabCol(0))
		done <- err
	}()
	select {
	case <-w.Entered():
	case <-time.After(5 * time.Second):
		t.Fatal("the first commit never reached the store")
	}
	return in, w, done
}

// slabCol builds a 4x1 slab (a column appended along dim 1) whose cells
// are seeded deterministically.
func slabCol(seed int) *ndarray.Array {
	vals := make([]float64, 4)
	for i := range vals {
		vals[i] = float64(seed*10 + i + 1)
	}
	return ndarray.FromSlice(vals, 4, 1)
}

// TestGroupCommitAmortization is the tentpole property: many concurrent
// client appends collapse into few group commits, visible in the device's
// Commits counter.
func TestGroupCommitAmortization(t *testing.T) {
	in, wedge, holder := newWedgedIngester(t, Config{Dim: 1})
	const clients = 32
	var wg sync.WaitGroup
	errs := make([]error, clients) // errs[0] is the holder's, already committing
	for c := 1; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = in.Enqueue(context.Background(), slabCol(c))
		}(c)
	}
	// Everyone else stages while the first commit is in flight — the
	// self-clocking that needs no gathering window.
	waitFor(t, func() bool { return in.Stats().QueueSlabs == clients-1 })
	wedge.Release()
	wg.Wait()
	errs[0] = <-holder
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	st := in.Stats()
	if st.CommittedSlabs != clients {
		t.Fatalf("committed %d slabs, want %d", st.CommittedSlabs, clients)
	}
	if st.Groups >= clients/4 {
		t.Errorf("%d groups for %d appends: amortization below 4x", st.Groups, clients)
	}
	if st.AppendsPerJournalGroup <= 0 {
		t.Errorf("appends-per-journal-group not computed: %+v", st)
	}
	// Device truth: a group's expansions ride in its one commit, so the
	// ratio holds at the device's Commits counter too.
	if st.MergeIO.Commits != st.Groups || st.DeviceIO.Commits != st.Groups {
		t.Errorf("merge commits %d, device commits %d, groups %d", st.MergeIO.Commits, st.DeviceIO.Commits, st.Groups)
	}
	if got := st.Used[1]; got != clients {
		t.Errorf("used[1] = %d, want %d", got, clients)
	}
	if st.CommitP99Millis < st.CommitP50Millis {
		t.Errorf("p99 %v < p50 %v", st.CommitP99Millis, st.CommitP50Millis)
	}
}

// TestReconstructMatchesOracle checks committed ⇒ queryable: every
// Result.Offset points at exactly the cells the client sent.
func TestReconstructMatchesOracle(t *testing.T) {
	in := newTestIngester(t, Config{Dim: 1, FlushInterval: time.Millisecond})
	rng := rand.New(rand.NewSource(7))
	const clients = 24
	type sent struct {
		slab *ndarray.Array
		res  Result
	}
	out := make([]sent, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		vals := make([]float64, 4*2)
		for i := range vals {
			vals[i] = math.Round(rng.Float64()*100) / 4
		}
		slab := ndarray.FromSlice(vals, 4, 2)
		out[c].slab = slab
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := in.Enqueue(context.Background(), out[c].slab)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			out[c].res = res
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	got, err := in.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range out {
		off := s.res.Offset
		for i := 0; i < 4; i++ {
			for j := 0; j < 2; j++ {
				want := s.slab.At(i, j)
				have := got.At(off[0]+i, off[1]+j)
				if math.Abs(want-have) > 1e-9 {
					t.Fatalf("client %d cell (%d,%d): got %g want %g", c, i, j, have, want)
				}
			}
		}
		if v, err := in.Point([]int{0, off[1]}); err != nil {
			t.Fatalf("point: %v", err)
		} else if math.Abs(v-s.slab.At(0, 0)) > 1e-9 {
			t.Fatalf("client %d point query: got %g want %g", c, v, s.slab.At(0, 0))
		}
	}
}

// TestBackpressure checks the queue bound sheds with ErrBacklog while
// staged requests still commit — and that it sheds at once, while the
// commit ahead of the queue is still blocked: admission takes no lock the
// commit holds.
func TestBackpressure(t *testing.T) {
	in, wedge, holder := newWedgedIngester(t, Config{Dim: 1, MaxQueueSlabs: 2})
	done := make(chan error, 2)
	for c := 1; c <= 2; c++ {
		go func(c int) {
			_, err := in.Enqueue(context.Background(), slabCol(c))
			done <- err
		}(c)
	}
	waitFor(t, func() bool { return in.Stats().QueueSlabs == 2 })
	if _, err := in.Enqueue(context.Background(), slabCol(9)); !errors.Is(err, ErrBacklog) {
		t.Fatalf("enqueue into a full queue: err = %v, want ErrBacklog", err)
	}
	if st := in.Stats(); st.Shed != 1 || st.CommittedSlabs != 0 {
		t.Fatalf("while the commit is blocked: shed=%d committed=%d, want 1 and 0", st.Shed, st.CommittedSlabs)
	}
	wedge.Release()
	for _, c := range []<-chan error{holder, done, done} {
		if err := <-c; err != nil {
			t.Fatalf("staged request failed: %v", err)
		}
	}
	st := in.Stats()
	if st.Shed != 1 || st.CommittedSlabs != 3 {
		t.Fatalf("shed=%d committed=%d, want 1 and 3", st.Shed, st.CommittedSlabs)
	}
}

// TestDeadlineWithdrawsUnpicked checks the 503 guarantee: a request
// abandoned before the commit loop claims it is withdrawn and provably
// not committed — and its deadline is honoured while the commit ahead of
// it is still blocked.
func TestDeadlineWithdrawsUnpicked(t *testing.T) {
	in, wedge, holder := newWedgedIngester(t, Config{Dim: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := in.Enqueue(ctx, slabCol(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if st := in.Stats(); st.TimedOut != 1 || st.QueueSlabs != 0 || st.CommittedSlabs != 0 {
		t.Fatalf("while the commit is blocked: timedOut=%d queued=%d committed=%d", st.TimedOut, st.QueueSlabs, st.CommittedSlabs)
	}
	wedge.Release()
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	// The withdrawn slab must not surface later: the next append lands at
	// the frontier the holder left, column 1.
	res, err := in.Enqueue(context.Background(), slabCol(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Offset[1] != 1 {
		t.Fatalf("offset %v after a withdrawn request, want frontier 1", res.Offset)
	}
	st := in.Stats()
	if st.TimedOut != 1 || st.CommittedSlabs != 2 || st.Used[1] != 2 {
		t.Fatalf("timedOut=%d committed=%d used=%v", st.TimedOut, st.CommittedSlabs, st.Used)
	}
}

// TestLoneClientNeverWaits: with nobody else announced a staged slab
// commits at once; FlushInterval, here an hour, is never armed.
func TestLoneClientNeverWaits(t *testing.T) {
	in := newTestIngester(t, Config{Dim: 1, FlushInterval: time.Hour})
	done := make(chan error, 1)
	go func() {
		_, err := in.Enqueue(context.Background(), slabCol(1))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lone client waited on the gathering window")
	}
	if st := in.Stats(); st.ClosedIdle != 1 || st.ClosedFull != 0 || st.ClosedByWindow != 0 {
		t.Fatalf("closed idle=%d full=%d window=%d, want 1, 0, 0", st.ClosedIdle, st.ClosedFull, st.ClosedByWindow)
	}
}

// TestAnnouncedRequestHoldsTheGroup: a request that has announced itself
// keeps the forming group open until it stages (then they commit as one
// group) or withdraws; one that never arrives costs the others
// FlushInterval and no more.
func TestAnnouncedRequestHoldsTheGroup(t *testing.T) {
	in := newTestIngester(t, Config{Dim: 1, FlushInterval: time.Hour})
	enqueue := func(seed int) <-chan Result {
		done := make(chan Result, 1)
		go func() {
			res, err := in.Enqueue(context.Background(), slabCol(seed))
			if err != nil {
				t.Errorf("slab %d: %v", seed, err)
			}
			done <- res
		}()
		return done
	}
	late := in.Announce()
	early := enqueue(1)
	waitFor(t, func() bool { return in.Stats().QueueSlabs == 1 })
	results, errs := late.Enqueue(context.Background(), []*ndarray.Array{slabCol(2), slabCol(3)})
	for _, res := range append(results, <-early) {
		if res.Group != 1 || res.Slabs != 3 {
			t.Fatalf("errs %v, result %+v: the announced request and the early slab should share group 1", errs, res)
		}
	}

	gone := in.Announce()
	early = enqueue(4)
	waitFor(t, func() bool { return in.Stats().QueueSlabs == 1 })
	gone.Withdraw()
	if res := <-early; res.Group != 2 || res.Slabs != 1 {
		t.Fatalf("after the withdrawal: %+v", res)
	}
	if st := in.Stats(); st.ClosedIdle != 2 || st.ClosedByWindow != 0 {
		t.Fatalf("closed idle=%d window=%d, want 2 and 0", st.ClosedIdle, st.ClosedByWindow)
	}
}

func TestWindowCapsTheWaitForAnAnnouncedRequest(t *testing.T) {
	in := newTestIngester(t, Config{Dim: 1, FlushInterval: 5 * time.Millisecond})
	noShow := in.Announce()
	defer noShow.Withdraw()
	if _, err := in.Enqueue(context.Background(), slabCol(1)); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.ClosedByWindow != 1 || st.ClosedIdle != 0 {
		t.Fatalf("closed window=%d idle=%d, want 1 and 0", st.ClosedByWindow, st.ClosedIdle)
	}
	if st.GatherP50Millis < 5 || st.GatherP99Millis < st.GatherP50Millis {
		t.Fatalf("gather p50=%vms p99=%vms, want at least the 5ms window", st.GatherP50Millis, st.GatherP99Millis)
	}
}

// TestRequestLinesShareOneGroup: the slabs of one Request.Enqueue are
// staged together, so nothing but MaxBatchSlabs parts them, and each line
// has its own outcome.
func TestRequestLinesShareOneGroup(t *testing.T) {
	lines := func(n int) []*ndarray.Array {
		slabs := make([]*ndarray.Array, n)
		for i := range slabs {
			slabs[i] = slabCol(i)
		}
		return slabs
	}
	t.Run("one group", func(t *testing.T) {
		in := newTestIngester(t, Config{Dim: 1, FlushInterval: time.Hour})
		results, errs := in.Announce().Enqueue(context.Background(), lines(16))
		for i, res := range results {
			if errs[i] != nil || res.Group != 1 || res.Slabs != 16 || res.Offset[1] != i {
				t.Fatalf("line %d: %+v, %v", i, res, errs[i])
			}
		}
	})
	t.Run("parted by the batch cap only", func(t *testing.T) {
		in := newTestIngester(t, Config{Dim: 1, MaxBatchSlabs: 4})
		results, errs := in.Announce().Enqueue(context.Background(), lines(10))
		for i, res := range results {
			if errs[i] != nil || res.Group != int64(i/4+1) || res.Offset[1] != i {
				t.Fatalf("line %d: %+v, %v", i, res, errs[i])
			}
		}
		if st := in.Stats(); st.ClosedFull != 2 || st.ClosedIdle != 1 || st.Groups != 3 {
			t.Fatalf("closed full=%d idle=%d groups=%d, want 2, 1, 3", st.ClosedFull, st.ClosedIdle, st.Groups)
		}
	})
	t.Run("a bad line fails alone", func(t *testing.T) {
		in := newTestIngester(t, Config{Dim: 1})
		slabs := lines(3)
		slabs[1] = ndarray.FromSlice(make([]float64, 3), 3, 1)
		results, errs := in.Announce().Enqueue(context.Background(), slabs)
		if !errors.Is(errs[1], query.ErrInvalid) || errs[0] != nil || errs[2] != nil {
			t.Fatalf("errs = %v", errs)
		}
		if results[0].Offset[1] != 0 || results[2].Offset[1] != 1 || results[2].Slabs != 2 {
			t.Fatalf("results = %+v", results)
		}
	})
	t.Run("backlog and deadline are per line", func(t *testing.T) {
		in, wedge, holder := newWedgedIngester(t, Config{Dim: 1, MaxQueueSlabs: 2})
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, errs := in.Announce().Enqueue(ctx, lines(3))
		if !errors.Is(errs[0], context.DeadlineExceeded) || !errors.Is(errs[1], context.DeadlineExceeded) || !errors.Is(errs[2], ErrBacklog) {
			t.Fatalf("errs = %v, want two deadlines and a backlog", errs)
		}
		if st := in.Stats(); st.TimedOut != 2 || st.Shed != 1 || st.QueueSlabs != 0 {
			t.Fatalf("timedOut=%d shed=%d queued=%d", st.TimedOut, st.Shed, st.QueueSlabs)
		}
		wedge.Release()
		if err := <-holder; err != nil {
			t.Fatal(err)
		}
		if st := in.Stats(); st.CommittedSlabs != 1 {
			t.Fatalf("committed %d, want the holder alone", st.CommittedSlabs)
		}
	})
}

// TestGateSheds checks the degraded/breaker seam: a failing gate sheds
// before staging, with the gate's own error.
func TestGateSheds(t *testing.T) {
	gateErr := fmt.Errorf("serving: %w", storage.ErrUnavailable)
	var allow bool
	in := newTestIngester(t, Config{
		Dim:           1,
		FlushInterval: time.Millisecond,
		Gate: func() error {
			if !allow {
				return gateErr
			}
			return nil
		},
	})
	if _, err := in.Enqueue(context.Background(), slabCol(1)); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	allow = true
	if _, err := in.Enqueue(context.Background(), slabCol(1)); err != nil {
		t.Fatalf("gate open: %v", err)
	}
	st := in.Stats()
	if st.Shed != 1 || st.CommittedSlabs != 1 {
		t.Fatalf("shed=%d committed=%d", st.Shed, st.CommittedSlabs)
	}
}

// TestValidationRejects checks malformed slabs fail fast as ErrInvalid
// without reaching the appender.
func TestValidationRejects(t *testing.T) {
	in := newTestIngester(t, Config{Dim: 1, FlushInterval: time.Millisecond})
	cases := []struct {
		name string
		slab *ndarray.Array
	}{
		{"wrong dims", ndarray.FromSlice([]float64{1, 2}, 2)},
		{"cross not pow2", ndarray.FromSlice(make([]float64, 3), 3, 1)},
		{"cross exceeds domain", ndarray.FromSlice(make([]float64, 8), 8, 1)},
	}
	for _, tc := range cases {
		if _, err := in.Enqueue(context.Background(), tc.slab); !errors.Is(err, query.ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, err)
		}
	}
	// Fix the cross-section at 4, then offer a mismatching one.
	if _, err := in.Enqueue(context.Background(), slabCol(0)); err != nil {
		t.Fatal(err)
	}
	bad := ndarray.FromSlice(make([]float64, 2), 2, 1)
	if _, err := in.Enqueue(context.Background(), bad); !errors.Is(err, query.ErrInvalid) {
		t.Errorf("cross mismatch: err = %v, want ErrInvalid", err)
	}
	if st := in.Stats(); st.CommittedSlabs != 1 {
		t.Fatalf("committed %d, want 1", st.CommittedSlabs)
	}
}

func TestNewSlab(t *testing.T) {
	if _, err := NewSlab([]int{2, 2}, []float64{1, 2, 3}); !errors.Is(err, query.ErrInvalid) {
		t.Errorf("shape/values mismatch: %v", err)
	}
	if _, err := NewSlab([]int{0, 2}, nil); !errors.Is(err, query.ErrInvalid) {
		t.Errorf("zero extent: %v", err)
	}
	if _, err := NewSlab(nil, nil); !errors.Is(err, query.ErrInvalid) {
		t.Errorf("no shape: %v", err)
	}
	if _, err := NewSlab([]int{2}, []float64{1, math.NaN()}); !errors.Is(err, query.ErrInvalid) {
		t.Errorf("NaN cell: %v", err)
	}
	if _, err := NewSlab([]int{2}, []float64{1, math.Inf(1)}); !errors.Is(err, query.ErrInvalid) {
		t.Errorf("Inf cell: %v", err)
	}
	if _, err := NewSlab([]int{1 << 20, 1 << 20}, nil); !errors.Is(err, query.ErrInvalid) {
		t.Errorf("overflowing shape: %v", err)
	}
	a, err := NewSlab([]int{2, 2}, []float64{1, 2, 3, 4})
	if err != nil || a.At(1, 1) != 4 {
		t.Fatalf("valid slab: %v, %v", a, err)
	}
}

// TestStream checks stream items feed the synopsis and reject non-finite
// values, and that per-item costs surface in stats.
func TestStream(t *testing.T) {
	in := newTestIngester(t, Config{Dim: 1, StreamK: 8, StreamBufBits: 2})
	if _, err := in.AddStream([]float64{1, math.Inf(-1)}); !errors.Is(err, query.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = math.Sin(float64(i))
	}
	n, err := in.AddStream(vals)
	if err != nil || n != 64 {
		t.Fatalf("AddStream: n=%d err=%v", n, err)
	}
	st := in.Stats()
	if st.StreamItems != 64 {
		t.Fatalf("stream items %d, want 64", st.StreamItems)
	}
	if st.StreamTotalPerItem <= 0 || st.StreamCrestPerItem < 0 {
		t.Fatalf("per-item costs not surfaced: %+v", st)
	}
	if st.ItemsPerSec <= 0 {
		t.Fatalf("items/sec not computed")
	}
}

// TestCloseDrains checks Close commits everything already admitted and
// subsequent operations fail with ErrClosed.
func TestCloseDrains(t *testing.T) {
	in, wedge, holder := newWedgedIngester(t, Config{Dim: 1})
	done := make(chan Result, 1)
	go func() {
		res, err := in.Enqueue(context.Background(), slabCol(1))
		if err != nil {
			t.Errorf("enqueue during close: %v", err)
		}
		done <- res
	}()
	waitFor(t, func() bool { return in.Stats().QueueSlabs == 1 })
	closed := make(chan error, 1)
	go func() { closed <- in.Close() }()
	// Close has stopped admission but cannot return: a slab is still queued
	// behind the blocked commit.
	waitFor(t, func() bool {
		in.mu.Lock()
		defer in.mu.Unlock()
		return in.closed
	})
	if _, err := in.Enqueue(context.Background(), slabCol(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	wedge.Release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.Cells != 4 || res.Offset[1] != 1 {
		t.Fatalf("drained result %+v", res)
	}
	if _, err := in.Enqueue(context.Background(), slabCol(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := in.AddStream([]float64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("stream after close: err = %v, want ErrClosed", err)
	}
}

func TestHistogram(t *testing.T) {
	if numHistBuckets != len(histBounds)+1 {
		t.Fatalf("numHistBuckets = %d, want %d", numHistBuckets, len(histBounds)+1)
	}
	var h latencyHist
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile")
	}
	for i := 0; i < 90; i++ {
		h.observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(10 * time.Second) // overflow bucket
	}
	if got := h.quantile(0.50); got != time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.quantile(0.99); got != 10*time.Second {
		t.Fatalf("p99 = %v (overflow should report the observed max)", got)
	}
	if cs := h.counts(); len(cs) != 2 || cs[0].N != 90 || !cs[1].Overflow {
		t.Fatalf("counts = %+v", cs)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
