// Package ingest is the write-path counterpart of the serving subsystem:
// a front door that accepts append slabs (and scalar stream items) from
// many concurrent clients and turns them into the batched maintenance
// operations the SHIFT-SPLIT engines are built for.
//
// The paper's appending result makes a single slab cheap; what a
// production write path needs on top is amortization ACROSS clients. The
// Ingester stages incoming slabs in a bounded queue and a single commit
// loop group-commits them: every queued slab is folded into one
// Appender.AppendBatch call, so domain expansion runs once for the whole
// group and the durable backing seals all of it, expansions included, with
// one journal group (one fsync pair) instead of one per client. The loop is work-conserving
// and self-clocking, like classic WAL group commit: a group closes when it
// is full or when every request known to be on its way has staged, so
// groups form while the previous commit is in flight and a lone client
// never waits on a timer.
//
// Ingestion is bounded the same way the read path is: when the staging
// queue is full new requests are shed immediately with ErrBacklog (the
// HTTP layer maps it to 429), and a request abandoned by its deadline
// before the commit loop picked it is removed from the queue, so a
// non-200 answer is a guarantee the slab was NOT committed. Conversely a
// success is returned only after the group commit sealed, so a 200 answer
// is a guarantee the slab IS durable and queryable. The only escape from
// this dichotomy is a commit whose outcome the process cannot know
// (appender.ErrInDoubt); it is surfaced as its own error class and the
// ingester refuses further work.
//
// The Appender itself is not concurrency-safe; the Ingester serializes
// every appender access (group commits, point queries, stats snapshots)
// behind one mutex, with the commit loop as the only writer.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/query"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/stream"
)

// ErrBacklog is returned when the staging queue is full: the client
// should back off and retry (HTTP 429).
var ErrBacklog = errors.New("ingest: staging queue full")

// ErrClosed is returned by operations on a closed Ingester.
var ErrClosed = errors.New("ingest: closed")

// Config bounds an Ingester. Zero values pick sensible defaults.
type Config struct {
	// Dim is the dimension slabs append along (the growing frontier).
	Dim int
	// MaxQueueSlabs / MaxQueueCells bound the staging queue; requests
	// beyond either bound are shed with ErrBacklog (defaults 256 slabs,
	// 1<<22 cells).
	MaxQueueSlabs int
	MaxQueueCells int
	// MaxBatchSlabs caps one group commit (default 64).
	MaxBatchSlabs int
	// FlushInterval is an upper bound, not a delay: the longest the commit
	// loop holds a group open for requests that have announced themselves
	// but not yet staged their slabs (default 2ms). With nobody announced
	// the group commits at once. Negative never waits for companions.
	FlushInterval time.Duration
	// Gate, when non-nil, is consulted before admitting an append; a
	// non-nil error sheds the request with that error (the degraded /
	// breaker integration seam: wire it to the serving store's health).
	Gate func() error
	// StreamK / StreamBufBits size the Result-3 synopsis fed by stream
	// items (defaults 64 coefficients, 2^6-item buffer).
	StreamK       int
	StreamBufBits int
}

func (c Config) withDefaults() Config {
	if c.MaxQueueSlabs <= 0 {
		c.MaxQueueSlabs = 256
	}
	if c.MaxQueueCells <= 0 {
		c.MaxQueueCells = 1 << 22
	}
	if c.MaxBatchSlabs <= 0 {
		c.MaxBatchSlabs = 64
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
	if c.StreamK <= 0 {
		c.StreamK = 64
	}
	if c.StreamBufBits <= 0 {
		c.StreamBufBits = 6
	}
	return c
}

// Result reports where a committed slab landed.
type Result struct {
	// Offset is the domain coordinate of the slab's origin cell.
	Offset []int
	// Cells is the slab's cell count.
	Cells int
	// Group is the sequence number of the group commit that sealed the
	// slab; Slabs is how many client slabs shared it.
	Group int64
	Slabs int
}

// pending is one staged slab waiting for its group commit.
type pending struct {
	slab   *ndarray.Array
	cells  int
	staged time.Time
	picked bool // claimed by the commit loop; no longer removable
	req    *Request
	line   int // index into the request's results
}

// Ingester is the group-committing write front door over one Appender.
// Create with New; it owns a background commit loop until Close.
type Ingester struct {
	cfg Config
	// maxCross bounds a slab's extents off the append dimension: the
	// domain's own, which no expansion changes (only cfg.Dim doubles).
	maxCross []int

	// appMu serializes all appender access: the commit loop's batches,
	// point queries, and stats snapshots. It is held across a whole group
	// commit, fsync included, so nothing on the admission path takes it.
	appMu sync.Mutex
	app   *appender.Appender

	mu          sync.Mutex
	queue       []*pending
	queuedCells int
	coming      int   // requests announced and not yet staged or withdrawn
	cross       []int // cross-section extents fixed by the first slab (0 = not yet)
	closed      bool
	view        appView

	// Counters (mu-guarded).
	committedSlabs int64
	committedCells int64
	groups         int64
	expansions     int64
	shed           int64
	timedOut       int64
	failedSlabs    int64
	failedGroups   int64
	streamItems    int64
	closedIdle     int64
	closedFull     int64
	closedWindow   int64
	hist           latencyHist // commit latency
	gatherHist     latencyHist // oldest slab staged → group claimed

	stream *stream.Buffered
	start  time.Time

	kickc chan struct{}
	stopc chan struct{}
	donec chan struct{}
}

// appView is what Stats reports of the appender, sampled whenever appMu is
// free and after every group commit, so a snapshot never waits out a
// commit. It is written holding both appMu and mu, in that order.
type appView struct {
	shape, used            []int
	device, expIO, mergeIO storage.Stats
	poisoned               string
}

// New starts an Ingester over app. The appender (and its backing store)
// stays owned by the caller: Close drains and stops the commit loop but
// does not close the store.
func New(app *appender.Appender, cfg Config) (*Ingester, error) {
	cfg = cfg.withDefaults()
	if cfg.Dim < 0 || cfg.Dim >= len(app.Shape()) {
		return nil, fmt.Errorf("ingest: append dimension %d out of range for shape %v", cfg.Dim, app.Shape())
	}
	in := &Ingester{
		cfg:    cfg,
		app:    app,
		stream: stream.NewBuffered(cfg.StreamK, cfg.StreamBufBits),
		start:  time.Now(),
		kickc:  make(chan struct{}, 1),
		stopc:  make(chan struct{}),
		donec:  make(chan struct{}),
	}
	in.maxCross = app.Shape()
	used := app.Used()
	in.cross = make([]int, len(used))
	for t, u := range used {
		if t != cfg.Dim {
			in.cross[t] = u
		}
	}
	in.view = in.sampleApp()
	go in.loop()
	return in, nil
}

// NewSlab validates a wire-format slab (shape + row-major values) and
// wraps it as an array. Structural problems — shape/values mismatch,
// non-positive extents, NaN/Inf cells — are query.ErrInvalid: the
// client's fault, never a panic.
func NewSlab(shape []int, values []float64) (*ndarray.Array, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("%w: slab has no shape", query.ErrInvalid)
	}
	size := 1
	for i, s := range shape {
		if s <= 0 {
			return nil, fmt.Errorf("%w: slab extent %d along dimension %d", query.ErrInvalid, s, i)
		}
		if size > (1<<31)/s {
			return nil, fmt.Errorf("%w: slab shape %v overflows", query.ErrInvalid, shape)
		}
		size *= s
	}
	if size != len(values) {
		return nil, fmt.Errorf("%w: slab shape %v wants %d values, got %d", query.ErrInvalid, shape, size, len(values))
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite cell at index %d", query.ErrInvalid, i)
		}
	}
	return ndarray.FromSlice(values, shape...), nil
}

// Request is one client request on its way through the front door. It
// exists from the moment the request is known to be coming (Announce) so
// the commit loop can hold the forming group open for it; it ends with one
// Enqueue, or a Withdraw if the request dies before it has slabs to stage.
type Request struct {
	in      *Ingester
	coming  bool // still counted in in.coming (mu-guarded)
	staged  []pending
	results []Result
	errs    []error
	left    int           // staged slabs not yet committed, failed or withdrawn (mu-guarded)
	done    chan struct{} // closed when left reaches 0
}

// Announce registers a request whose slabs are still to come — an HTTP
// handler calls it on entry, before reading the body. Until the request
// stages or withdraws, the commit loop keeps the current group open for it,
// for at most FlushInterval.
func (in *Ingester) Announce() *Request {
	r := &Request{in: in, coming: true}
	in.mu.Lock()
	in.coming++
	in.mu.Unlock()
	return r
}

// Withdraw ends a request that will stage nothing. It is a no-op after
// Enqueue, so handlers defer it.
func (r *Request) Withdraw() {
	in := r.in
	in.mu.Lock()
	arrived := r.arriveLocked()
	in.mu.Unlock()
	if arrived {
		in.kick()
	}
}

// arriveLocked drops the request from the announced count, once.
func (r *Request) arriveLocked() bool {
	if !r.coming {
		return false
	}
	r.coming = false
	r.in.coming--
	return true
}

func (in *Ingester) kick() {
	select {
	case in.kickc <- struct{}{}:
	default:
	}
}

// Enqueue stages slab for the next group commit and blocks until that
// commit seals (success: the slab is durable at Result.Offset) or fails.
// If ctx expires while the slab is still removable it is withdrawn and
// the error guarantees the slab was not committed; once the commit loop
// has claimed it, Enqueue waits out the commit and reports its true
// outcome.
func (in *Ingester) Enqueue(ctx context.Context, slab *ndarray.Array) (Result, error) {
	results, errs := in.Announce().Enqueue(ctx, []*ndarray.Array{slab})
	return results[0], errs[0]
}

// Enqueue stages the request's slabs, in order and under one lock
// acquisition, so they sit contiguously in the queue and only
// MaxBatchSlabs can part them into different groups. It then blocks as
// Ingester.Enqueue does, for all of them at once. Slab i's outcome is
// results[i], errs[i]: each slab is validated, shed or admitted on its own,
// exactly as if it had been enqueued alone after its predecessors.
func (r *Request) Enqueue(ctx context.Context, slabs []*ndarray.Array) ([]Result, []error) {
	in := r.in
	r.results = make([]Result, len(slabs))
	r.errs = make([]error, len(slabs))
	r.staged = make([]pending, 0, len(slabs))
	r.done = make(chan struct{})
	for i, slab := range slabs {
		r.errs[i] = in.validate(slab)
	}
	now := time.Now()

	in.mu.Lock()
	r.arriveLocked()
	for i, slab := range slabs {
		if r.errs[i] != nil {
			continue
		}
		if r.errs[i] = in.admitLocked(slab); r.errs[i] != nil {
			continue
		}
		r.staged = append(r.staged, pending{slab: slab, cells: slab.Size(), staged: now, req: r, line: i})
		in.queue = append(in.queue, &r.staged[len(r.staged)-1])
	}
	r.left = len(r.staged)
	in.mu.Unlock()
	in.kick()
	if len(r.staged) == 0 {
		return r.results, r.errs
	}

	select {
	case <-r.done:
	case <-ctx.Done():
		in.mu.Lock()
		for i := range r.staged {
			if p := &r.staged[i]; !p.picked {
				in.removeLocked(p)
				in.timedOut++
				r.errs[p.line] = fmt.Errorf("ingest: abandoned before commit: %w", ctx.Err())
				r.left--
			}
		}
		claimed := r.left > 0
		in.mu.Unlock()
		if claimed {
			<-r.done // those groups are committing; their outcome is authoritative
		}
	}
	return r.results, r.errs
}

// validate checks slab against the ingester's fixed geometry: everything
// that can be said about it without looking at the queue.
func (in *Ingester) validate(slab *ndarray.Array) error {
	d := len(in.maxCross)
	if slab.Dims() != d {
		return fmt.Errorf("%w: slab has %d dims, domain has %d", query.ErrInvalid, slab.Dims(), d)
	}
	for t := 0; t < d; t++ {
		if t == in.cfg.Dim {
			continue
		}
		if !bitutil.IsPow2(slab.Extent(t)) {
			return fmt.Errorf("%w: cross extent %d along dimension %d is not a power of two", query.ErrInvalid, slab.Extent(t), t)
		}
		if slab.Extent(t) > in.maxCross[t] {
			return fmt.Errorf("%w: cross extent %d exceeds domain %d along dimension %d", query.ErrInvalid, slab.Extent(t), in.maxCross[t], t)
		}
	}
	if cells := slab.Size(); cells > in.cfg.MaxQueueCells {
		return fmt.Errorf("%w: slab of %d cells exceeds the staging budget (%d)", query.ErrInvalid, cells, in.cfg.MaxQueueCells)
	}
	return nil
}

// admitLocked takes a valid slab into the staging budget or says why not.
// The caller appends it to the queue.
func (in *Ingester) admitLocked(slab *ndarray.Array) error {
	if in.closed {
		return ErrClosed
	}
	if gate := in.cfg.Gate; gate != nil {
		if err := gate(); err != nil {
			in.shed++
			return err
		}
	}
	for t, want := range in.cross {
		if t != in.cfg.Dim && want != 0 && slab.Extent(t) != want {
			return fmt.Errorf("%w: cross extent %d along dimension %d, ingest expects %d", query.ErrInvalid, slab.Extent(t), t, want)
		}
	}
	cells := slab.Size()
	if len(in.queue) >= in.cfg.MaxQueueSlabs || in.queuedCells+cells > in.cfg.MaxQueueCells {
		in.shed++
		return ErrBacklog
	}
	for t := range in.cross {
		if t != in.cfg.Dim && in.cross[t] == 0 {
			in.cross[t] = slab.Extent(t) // first slab fixes the cross-section
		}
	}
	in.queuedCells += cells
	return nil
}

// removeLocked withdraws an unpicked entry (deadline abandonment).
func (in *Ingester) removeLocked(p *pending) {
	for i, q := range in.queue {
		if q == p {
			in.queue = append(in.queue[:i], in.queue[i+1:]...)
			in.queuedCells -= p.cells
			return
		}
	}
}

// loop is the commit loop. It never sleeps on staged work it could be
// committing: a group closes as soon as it is full, or as soon as nobody
// who announced is still on the way. Only when companions are known to be
// coming does it hold the group open, and then for FlushInterval at most.
// Slabs that arrive during a commit are the next group, which is how
// concurrent clients amortize without a timer.
func (in *Ingester) loop() {
	defer close(in.donec)
	var window *time.Timer // runs while a group is held open
	var windowc <-chan time.Time
	expired := false
	disarm := func() {
		if window != nil {
			window.Stop()
		}
		window, windowc, expired = nil, nil, false
	}
	for {
		group, hold := in.take(expired)
		if group != nil {
			disarm()
			in.commitGroup(group)
			continue
		}
		if !hold {
			disarm() // nothing staged, or deadlines withdrew what was
		} else if window == nil {
			window = time.NewTimer(in.cfg.FlushInterval)
			windowc = window.C
		}
		select {
		case <-in.kickc:
			// A caller that fans out one Enqueue per goroutine has companions
			// that are runnable but have not run far enough to announce. Let
			// what is runnable run once before judging the group complete: on
			// one P it is the difference between sixteen groups and one.
			runtime.Gosched()
		case <-windowc:
			expired = true
		case <-in.stopc:
			disarm()
			for group, _ := in.take(true); group != nil; group, _ = in.take(true) {
				in.commitGroup(group)
			}
			return
		}
	}
}

// take claims the next group — up to MaxBatchSlabs staged slabs, oldest
// first — if the close rule lets it go: the batch is full, nobody announced
// is still on the way, or the window for those who are has run out
// (expired). Otherwise hold reports whether staged slabs are being kept
// waiting. Claimed entries can no longer be withdrawn by their deadlines.
func (in *Ingester) take(expired bool) (group []*pending, hold bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := len(in.queue)
	switch {
	case n == 0:
		return nil, false
	case n >= in.cfg.MaxBatchSlabs:
		n = in.cfg.MaxBatchSlabs
		in.closedFull++
	case in.coming == 0 || in.cfg.FlushInterval < 0:
		in.closedIdle++
	case expired:
		in.closedWindow++
	default:
		return nil, true
	}
	group = make([]*pending, n)
	copy(group, in.queue[:n])
	in.queue = append(in.queue[:0:0], in.queue[n:]...)
	for _, p := range group {
		p.picked = true
		in.queuedCells -= p.cells
	}
	in.gatherHist.observe(time.Since(group[0].staged))
	return group, false
}

// commitGroup folds one claimed group into the appender as a single
// atomic batch and wakes every waiter with the outcome.
func (in *Ingester) commitGroup(group []*pending) {
	slabs := make([]*ndarray.Array, len(group))
	cells := 0
	for i, p := range group {
		slabs[i] = p.slab
		cells += p.cells
	}
	in.appMu.Lock()
	defer in.appMu.Unlock()
	base := in.app.Used()
	begin := time.Now()
	st, err := in.app.AppendBatch(in.cfg.Dim, slabs)
	elapsed := time.Since(begin)

	d := len(base)
	offsets := make([]int, len(group)*d) // every Result.Offset of the group
	off := base[in.cfg.Dim]

	in.mu.Lock()
	defer in.mu.Unlock()
	in.view = in.sampleApp()
	if err == nil {
		in.groups++
		in.committedSlabs += int64(len(group))
		in.committedCells += int64(cells)
		in.expansions += int64(st.Expansions)
		in.hist.observe(elapsed)
	} else {
		in.failedGroups++
		in.failedSlabs += int64(len(group))
	}
	for i, p := range group {
		r := p.req
		if err == nil {
			offset := offsets[i*d : (i+1)*d : (i+1)*d]
			offset[in.cfg.Dim] = off
			r.results[p.line] = Result{Offset: offset, Cells: p.cells, Group: in.groups, Slabs: len(group)}
			off += slabs[i].Extent(in.cfg.Dim)
		} else {
			r.errs[p.line] = err
		}
		if r.left--; r.left == 0 {
			close(r.done)
		}
	}
}

// sampleApp reads the appender-side half of Stats. The caller holds appMu.
func (in *Ingester) sampleApp() appView {
	v := appView{shape: in.app.Shape(), used: in.app.Used(), device: in.app.TotalIO()}
	v.expIO, v.mergeIO = in.app.IOBreakdown()
	if err := in.app.Poisoned(); err != nil {
		v.poisoned = err.Error()
	}
	return v
}

// AddStream feeds scalar items into the Result-3 stream synopsis. Items
// are absorbed in memory (the synopsis IS the state); non-finite values
// are rejected with query.ErrInvalid.
func (in *Ingester) AddStream(values []float64) (int64, error) {
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: non-finite stream item at index %d", query.ErrInvalid, i)
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return 0, ErrClosed
	}
	for _, v := range values {
		in.stream.Add(v)
	}
	in.streamItems += int64(len(values))
	return in.streamItems, nil
}

// Point answers a point query against the ingested transform — the
// committed ⇒ queryable check. It serializes with the commit loop, so it
// never observes a half-applied group.
func (in *Ingester) Point(point []int) (float64, error) {
	in.appMu.Lock()
	defer in.appMu.Unlock()
	// Root-path reconstruction: the appender maintains raw standard-form
	// coefficients (not the materialized per-tile scaling slots
	// PointStandard shortcuts through).
	v, _, err := query.PointViaRootPath(in.app.Store(), in.app.Shape(), point)
	return v, err
}

// Used returns the extents occupied by committed data.
func (in *Ingester) Used() []int {
	in.appMu.Lock()
	defer in.appMu.Unlock()
	return in.app.Used()
}

// Shape returns the current (expanded) domain extents.
func (in *Ingester) Shape() []int {
	in.appMu.Lock()
	defer in.appMu.Unlock()
	return in.app.Shape()
}

// Reconstruct reads the committed dataset back (tests and audits; it
// serializes with the commit loop like any other appender access).
func (in *Ingester) Reconstruct() (*ndarray.Array, error) {
	in.appMu.Lock()
	defer in.appMu.Unlock()
	return in.app.Reconstruct()
}

// Close stops admitting, drains the staged queue through a final group
// commit, and waits for the commit loop to exit. The appender's backing
// store remains open (the caller owns it).
func (in *Ingester) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		<-in.donec
		return nil
	}
	in.closed = true
	in.mu.Unlock()
	close(in.stopc)
	<-in.donec
	return nil
}

// Stats snapshots the ingest counters. See the field comments for the
// amortization arithmetic.
type Stats struct {
	Dim   int   `json:"dim"`
	Shape []int `json:"shape"`
	Used  []int `json:"used"`

	// CommittedSlabs / CommittedCells are the client appends that reached
	// a sealed group commit; Groups counts those commits — the first
	// amortization ratio. Expansions counts domain doublings.
	CommittedSlabs int64 `json:"committed_slabs"`
	CommittedCells int64 `json:"committed_cells"`
	Groups         int64 `json:"groups"`
	Expansions     int64 `json:"expansions"`

	// Shed (backpressure / gate), TimedOut (abandoned before pick), and
	// Failed* (group commits that errored) all guarantee non-commitment.
	Shed         int64 `json:"shed"`
	TimedOut     int64 `json:"timed_out"`
	FailedSlabs  int64 `json:"failed_slabs"`
	FailedGroups int64 `json:"failed_groups"`

	StreamItems int64 `json:"stream_items"`

	QueueSlabs int `json:"queue_slabs"`
	QueueCells int `json:"queue_cells"`

	// AppendsPerJournalGroup is CommittedSlabs over the device's journal
	// groups (Commits counter) — the fsync-amortization figure. ItemsPerSec
	// is committed cells plus stream items over the ingester's lifetime.
	AppendsPerJournalGroup float64 `json:"appends_per_journal_group"`
	ItemsPerSec            float64 `json:"items_per_sec"`

	// Why the commit loop closed its groups: nobody who had announced was
	// still on the way (idle), MaxBatchSlabs were staged (full), or
	// FlushInterval ran out on announced companions (window). They count
	// groups claimed, so they sum to Groups + FailedGroups.
	ClosedIdle     int64 `json:"closed_idle"`
	ClosedFull     int64 `json:"closed_full"`
	ClosedByWindow int64 `json:"closed_by_window"`

	// Commit latency distribution over sealed group commits, and next to it
	// how long each group gathered: from its oldest slab being staged to
	// the loop claiming it.
	CommitP50Millis float64        `json:"commit_p50_ms"`
	CommitP99Millis float64        `json:"commit_p99_ms"`
	CommitHistogram []LatencyCount `json:"commit_histogram,omitempty"`
	GatherP50Millis float64        `json:"gather_p50_ms"`
	GatherP99Millis float64        `json:"gather_p99_ms"`

	// Device truth and its attribution (satellite: expansion vs merge I/O
	// reported separately so the amortization is verifiable from stats).
	DeviceIO    storage.Stats `json:"device_io"`
	ExpansionIO storage.Stats `json:"expansion_io"`
	MergeIO     storage.Stats `json:"merge_io"`

	// Poisoned carries the sticky appender failure, "" while healthy.
	Poisoned string `json:"poisoned,omitempty"`

	// Per-item costs of the stream synopsis (Result 3).
	StreamCrestPerItem float64 `json:"stream_crest_per_item"`
	StreamTotalPerItem float64 `json:"stream_total_per_item"`
}

// Stats snapshots the counters. The appender-side fields (Shape, Used, the
// three I/O figures, Poisoned) are read fresh when no commit is running and
// otherwise stand as of the last one, so Stats answers at once even while a
// commit is stuck on the device.
func (in *Ingester) Stats() Stats {
	fresh := in.appMu.TryLock()
	if fresh {
		defer in.appMu.Unlock()
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if fresh {
		in.view = in.sampleApp()
	}
	device := in.view.device
	st := Stats{
		Dim:            in.cfg.Dim,
		Shape:          append([]int(nil), in.view.shape...),
		Used:           append([]int(nil), in.view.used...),
		CommittedSlabs: in.committedSlabs,
		CommittedCells: in.committedCells,
		Groups:         in.groups,
		Expansions:     in.expansions,
		Shed:           in.shed,
		TimedOut:       in.timedOut,
		FailedSlabs:    in.failedSlabs,
		FailedGroups:   in.failedGroups,
		StreamItems:    in.streamItems,
		QueueSlabs:     len(in.queue),
		QueueCells:     in.queuedCells,
		ClosedIdle:     in.closedIdle,
		ClosedFull:     in.closedFull,
		ClosedByWindow: in.closedWindow,
		DeviceIO:       device,
		ExpansionIO:    in.view.expIO,
		MergeIO:        in.view.mergeIO,
		Poisoned:       in.view.poisoned,
	}
	if device.Commits > 0 {
		st.AppendsPerJournalGroup = float64(in.committedSlabs) / float64(device.Commits)
	}
	if elapsed := time.Since(in.start).Seconds(); elapsed > 0 {
		st.ItemsPerSec = float64(in.committedCells+in.streamItems) / elapsed
	}
	st.CommitP50Millis = in.hist.quantile(0.50).Seconds() * 1e3
	st.CommitP99Millis = in.hist.quantile(0.99).Seconds() * 1e3
	st.CommitHistogram = in.hist.counts()
	st.GatherP50Millis = in.gatherHist.quantile(0.50).Seconds() * 1e3
	st.GatherP99Millis = in.gatherHist.quantile(0.99).Seconds() * 1e3
	costs := in.stream.Costs()
	st.StreamCrestPerItem = costs.PerItemCrest()
	st.StreamTotalPerItem = costs.PerItemTotal()
	return st
}
