package shiftsplit

import (
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/stream"
)

// Appender maintains a dataset that grows along one or more dimensions
// entirely in the wavelet domain (paper §5.2): incoming slabs are
// transformed in memory and SHIFT-SPLIT-merged, and when a dimension
// outgrows its domain the transform is expanded in place (Figure 10) rather
// than recomputed.
type Appender struct {
	inner *appender.Appender
}

// AppendResult reports the cost of one append or append batch. The two
// I/O windows are disjoint: ExpansionIO covers the domain doublings (the
// top-band blocks they read and rewrite), MergeIO covers transforming and
// applying the slabs plus the single group commit that seals them and the
// doublings together — so the journal-group amortization of a batch is
// readable directly from MergeIO.Commits.
type AppendResult struct {
	// Expansions is how many times the domain doubled to fit the slabs.
	Expansions int
	// Slabs is how many client slabs the call folded in.
	Slabs int
	// ExpansionIO and MergeIO are the block I/O spent on each phase.
	ExpansionIO IOStats
	MergeIO     IOStats
}

// NewAppender creates an appender over an initially empty standard-form
// domain of the given power-of-two shape, tiled with per-dimension block
// edge 2^tileBits.
func NewAppender(shape []int, tileBits int) (*Appender, error) {
	a, err := appender.New(shape, tileBits)
	if err != nil {
		return nil, err
	}
	return &Appender{inner: a}, nil
}

// Append folds slab into the dataset along dim at the current frontier,
// expanding the domain as needed.
func (a *Appender) Append(dim int, slab *Array) (AppendResult, error) {
	return a.AppendBatch(dim, []*Array{slab})
}

// AppendBatch folds a group of slabs into the dataset along dim, in
// order, as one atomic batch sealed by a single commit: on a durable
// backing many client appends cost one journal group. The domain
// expansions the group needs are staged in the same batch, so a crash
// recovers to the whole group, expansions included, or to none of it.
func (a *Appender) AppendBatch(dim int, slabs []*Array) (AppendResult, error) {
	st, err := a.inner.AppendBatch(dim, slabs)
	if err != nil {
		return AppendResult{}, err
	}
	return AppendResult{
		Expansions:  st.Expansions,
		Slabs:       st.Slabs,
		ExpansionIO: ioStatsOf(st.ExpansionIO),
		MergeIO:     ioStatsOf(st.MergeIO),
	}, nil
}

// IOBreakdown splits the lifetime append I/O into its two phases —
// domain expansion vs slab merging — so fsync-amortization claims are
// verifiable from stats alone (TotalIO may exceed the sum: queries and
// reconstruction belong to neither phase).
func (a *Appender) IOBreakdown() (expansion, merge IOStats) {
	e, m := a.inner.IOBreakdown()
	return ioStatsOf(e), ioStatsOf(m)
}

func ioStatsOf(st storage.Stats) IOStats {
	return IOStats{Reads: st.Reads, Writes: st.Writes, Syncs: st.Syncs, Commits: st.Commits, MappedReads: st.MappedReads}
}

// Shape returns the current transformed domain extents.
func (a *Appender) Shape() []int { return a.inner.Shape() }

// Used returns the extents occupied by appended data.
func (a *Appender) Used() []int { return a.inner.Used() }

// TotalIO returns the cumulative block I/O.
func (a *Appender) TotalIO() IOStats { return ioStatsOf(a.inner.TotalIO()) }

// Reconstruct reads the transform back and inverts it.
func (a *Appender) Reconstruct() (*Array, error) { return a.inner.Reconstruct() }

// StreamCoef identifies one finalized coefficient of a stream synopsis:
// the detail w[Level, Pos] of the growing 1-d transform, or (when Avg is
// set) the running average over the leading 2^Level items.
type StreamCoef struct {
	Level int
	Pos   int
	Avg   bool
}

// StreamEntry is one retained synopsis coefficient with its energy weight.
type StreamEntry struct {
	Coef   StreamCoef
	Value  float64
	Energy float64
}

// StreamSynopsis maintains a best-K-term wavelet synopsis of an unbounded
// one-dimensional stream using the buffered SHIFT-SPLIT scheme of Result 3:
// per-item crest cost O((1/B) log(N/B)) with B = 2^bufBits buffered items.
// bufBits = 0 degenerates to the Gilbert et al. baseline cost profile.
type StreamSynopsis struct {
	inner *stream.Buffered
}

// NewStreamSynopsis creates a synopsis of capacity k (0 = unbounded) with a
// buffer of 2^bufBits items.
func NewStreamSynopsis(k, bufBits int) *StreamSynopsis {
	return &StreamSynopsis{inner: stream.NewBuffered(k, bufBits)}
}

// Add consumes one stream item.
func (s *StreamSynopsis) Add(v float64) { s.inner.Add(v) }

// Finish flushes the crest; the stream must stop at a buffer boundary.
func (s *StreamSynopsis) Finish() error { return s.inner.Finish() }

// Entries returns the retained coefficients.
func (s *StreamSynopsis) Entries() []StreamEntry {
	raw := s.inner.Synopsis().Entries()
	out := make([]StreamEntry, len(raw))
	for i, e := range raw {
		out[i] = StreamEntry{
			Coef:   StreamCoef{Level: e.Key.J, Pos: e.Key.K, Avg: e.Key.Avg},
			Value:  e.Value,
			Energy: e.Weight,
		}
	}
	return out
}

// PerItemCost returns the average crest updates and total coefficient
// operations per consumed item.
func (s *StreamSynopsis) PerItemCost() (crest, total float64) {
	c := s.inner.Costs()
	return c.PerItemCrest(), c.PerItemTotal()
}

// Items returns how many items have been consumed.
func (s *StreamSynopsis) Items() int64 { return s.inner.Costs().Items }

// NonStdAppender maintains a dataset growing along its last dimension under
// the non-standard decomposition, as a sequence of hypercubes plus a 1-d
// averages tree (the paper's Result-5 construction applied to disk-resident
// data). Unlike the standard-form Appender it never rewrites old data: each
// append costs only the new hypercube's tiles plus an O(log T) averages
// update.
type NonStdAppender struct {
	inner *appender.NonStd
}

// NewNonStdAppender creates a non-standard appender for d-dimensional
// hypercubes of edge 2^n, tiled with block edge 2^tileBits.
func NewNonStdAppender(n, d, tileBits int) (*NonStdAppender, error) {
	inner, err := appender.NewNonStd(n, d, tileBits)
	if err != nil {
		return nil, err
	}
	return &NonStdAppender{inner: inner}, nil
}

// Append stores the next hypercube (cubic, edge 2^n, covering the next
// 2^n time steps).
func (a *NonStdAppender) Append(cube *Array) error { return a.inner.Append(cube) }

// Hypercubes returns how many hypercubes have been appended.
func (a *NonStdAppender) Hypercubes() int { return a.inner.Hypercubes() }

// Shape returns the current global data extents.
func (a *NonStdAppender) Shape() []int { return a.inner.Shape() }

// PointAt reconstructs one cell (time indexed globally).
func (a *NonStdAppender) PointAt(coords []int) (float64, error) { return a.inner.PointAt(coords) }

// RangeSum evaluates a global box aggregate.
func (a *NonStdAppender) RangeSum(start, shape []int) (float64, error) {
	return a.inner.RangeSum(start, shape)
}

// Reconstruct reads all data back.
func (a *NonStdAppender) Reconstruct() (*Array, error) { return a.inner.Reconstruct() }

// TotalIO returns the cumulative block I/O.
func (a *NonStdAppender) TotalIO() IOStats { return ioStatsOf(a.inner.TotalIO()) }
