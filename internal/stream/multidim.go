package stream

import (
	"fmt"

	"github.com/shiftsplit/shiftsplit/internal/bitutil"
	"github.com/shiftsplit/shiftsplit/internal/core"
	"github.com/shiftsplit/shiftsplit/internal/haar"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/synopsis"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
	"github.com/shiftsplit/shiftsplit/internal/zorder"
)

// CoefMD identifies a finalized coefficient of a multidimensional stream
// transform. Cross is the row-major index of the cross-section basis
// combination (standard form) or of the within-hypercube coefficient
// (non-standard form); Time carries the 1-d time identity.
type CoefMD struct {
	Cross int
	Time  Coef1D
}

// Standard maintains a best-K standard-form synopsis of a d-dimensional
// stream growing along its last (time) dimension (Result 4). Data arrives
// as full cross-section slices; bufBits slices are buffered, transformed,
// and merged: coefficients that are details along time finalize
// immediately, while each cross-basis time-average climbs a per-cross
// crest chain — all prod(crossShape) of them, which is exactly the
// O(N^(d-1) log T) memory cost the paper proves.
type Standard struct {
	crossShape []int
	bufBits    int
	buf        *ndarray.Array
	filled     int
	buffers    int
	chains     []*Chain
	syn        *synopsis.Synopsis[CoefMD]
	costs      Costs
}

// NewStandard creates a Result-4 maintainer. crossShape lists the fixed
// dimensions (each a power of two); time slices are buffered in groups of
// 2^bufBits; k bounds the synopsis (0 = unbounded).
func NewStandard(crossShape []int, bufBits, k int) *Standard {
	for _, s := range crossShape {
		if !bitutil.IsPow2(s) {
			panic(fmt.Sprintf("stream: cross extent %d is not a power of two", s))
		}
	}
	crossSize := 1
	for _, s := range crossShape {
		crossSize *= s
	}
	bufShape := append(append([]int(nil), crossShape...), 1<<uint(bufBits))
	s := &Standard{
		crossShape: append([]int(nil), crossShape...),
		bufBits:    bufBits,
		buf:        ndarray.New(bufShape...),
		chains:     make([]*Chain, crossSize),
		syn:        synopsis.New[CoefMD](k),
	}
	for i := range s.chains {
		cross := i
		s.chains[i] = NewChain(bufBits, func(c Coef1D, v float64) {
			s.offer(CoefMD{Cross: cross, Time: c}, v)
		})
	}
	return s
}

// crossSupport returns the support volume of a cross-basis combination
// (the product of per-dimension support lengths of each 1-d index).
func (s *Standard) crossSupport(cross int) float64 {
	vol := 1.0
	for i := len(s.crossShape) - 1; i >= 0; i-- {
		idx := cross % s.crossShape[i]
		cross /= s.crossShape[i]
		n := bitutil.Log2(s.crossShape[i])
		vol *= float64(haar.Support(n, idx).Len())
	}
	return vol
}

func (s *Standard) offer(c CoefMD, v float64) {
	s.costs.TotalOps++
	support := s.crossSupport(c.Cross) * float64(int64(1)<<uint(c.Time.J))
	s.syn.Offer(c, v, v*v*support)
}

// AddSlice consumes one time slice of the stream (shape = crossShape).
func (s *Standard) AddSlice(slice *ndarray.Array) error {
	if slice.Dims() != len(s.crossShape) {
		return fmt.Errorf("stream: slice has %d dims, want %d", slice.Dims(), len(s.crossShape))
	}
	for i, e := range s.crossShape {
		if slice.Extent(i) != e {
			return fmt.Errorf("stream: slice shape %v, want %v", slice.Shape(), s.crossShape)
		}
	}
	s.costs.Items += int64(slice.Size())
	d := len(s.crossShape)
	start := make([]int, d+1)
	start[d] = s.filled
	shape := append(append([]int(nil), s.crossShape...), 1)
	sub := ndarray.FromSlice(slice.Data(), shape...)
	s.buf.SubPaste(sub, start)
	s.filled++
	if s.filled == s.buf.Extent(d) {
		s.flush()
	}
	return nil
}

func (s *Standard) flush() {
	hat := wavelet.TransformStandard(s.buf)
	d := len(s.crossShape)
	B := 1 << uint(s.bufBits)
	s.costs.TotalOps += int64(hat.Size())
	bufIdx := s.buffers
	hat.Each(func(coords []int, v float64) {
		cross := 0
		for i := 0; i < d; i++ {
			cross = cross*s.crossShape[i] + coords[i]
		}
		it := coords[d]
		if it >= 1 {
			j, k := haar.LevelPos(s.bufBits, it)
			s.offer(CoefMD{Cross: cross, Time: Coef1D{J: j, K: bufIdx<<uint(s.bufBits-j) + k}}, v)
			return
		}
		ops := s.chains[cross].Push(v)
		s.costs.CrestOps += int64(ops)
	})
	_ = B
	s.filled = 0
	s.buffers++
}

// Finish flushes every cross chain. The stream must stop at a buffer
// boundary.
func (s *Standard) Finish() error {
	if s.filled != 0 {
		return fmt.Errorf("stream: %d slices buffered; stop at a multiple of %d", s.filled, s.buf.Extent(len(s.crossShape)))
	}
	for _, c := range s.chains {
		c.Finish()
	}
	return nil
}

// CrestMemory returns the number of crest coefficients currently held: the
// Result-4 memory term O(N^(d-1) log T).
func (s *Standard) CrestMemory() int {
	total := 0
	for _, c := range s.chains {
		total += c.Levels()
	}
	return total
}

// Synopsis returns the maintained best-K synopsis.
func (s *Standard) Synopsis() *synopsis.Synopsis[CoefMD] { return s.syn }

// Costs returns the accumulated cost counters.
func (s *Standard) Costs() Costs { return s.costs }

// NonStandard maintains a best-K non-standard synopsis of a d-dimensional
// stream growing along time (Result 5). The stream is seen as a sequence of
// cubic hypercubes of edge 2^n; each hypercube arrives as chunks of edge
// 2^m in z-order (the access-pattern assumption of §5.1 that the paper
// carries over), is folded through a (2^d - 1) log(N/M)-coefficient crest,
// and its average joins a 1-d chain over hypercube index — log(T/N) more
// coefficients.
type NonStandard struct {
	n, d, m   int
	crest     *crest
	timeChain *Chain
	syn       *synopsis.Synopsis[CoefMD]
	costs     Costs
	hyper     int // current hypercube index
	chunksIn  int // chunks received for the current hypercube
	chunkSeq  [][]int
}

// NewNonStandard creates a Result-5 maintainer for hypercubes of edge 2^n
// in d dimensions, fed by chunks of edge 2^m, with synopsis capacity k.
func NewNonStandard(n, d, m, k int) *NonStandard {
	if m > n {
		panic(fmt.Sprintf("stream: chunk level %d above hypercube level %d", m, n))
	}
	s := &NonStandard{n: n, d: d, m: m, syn: synopsis.New[CoefMD](k)}
	s.timeChain = NewChain(0, func(c Coef1D, v float64) {
		s.offerTime(c, v)
	})
	s.rebuildCrest()
	// Precompute the z-order chunk sequence for one hypercube.
	side := 1 << uint(n-m)
	zorder.Curve(d, side, func(pos []int) {
		s.chunkSeq = append(s.chunkSeq, append([]int(nil), pos...))
	})
	return s
}

func (s *NonStandard) rebuildCrest() {
	hyper := s.hyper
	s.crest = newCrest(s.d, s.n, s.m, func(coords []int, v float64) {
		s.offerSpatial(hyper, coords, v)
	})
}

func (s *NonStandard) offerSpatial(hyper int, coords []int, v float64) {
	origin := true
	for _, c := range coords {
		if c != 0 {
			origin = false
			break
		}
	}
	if origin {
		// The hypercube average: push it onto the time chain instead of the
		// synopsis.
		ops := s.timeChain.Push(v)
		s.costs.CrestOps += int64(ops)
		return
	}
	s.costs.TotalOps++
	j, _, _ := wavelet.NonStdLevel(s.n, coords)
	support := float64(bitutil.IntPow(1<<uint(j), s.d))
	flat := 0
	edge := 1 << uint(s.n)
	for _, c := range coords {
		flat = flat*edge + c
	}
	s.syn.Offer(CoefMD{Cross: flat, Time: Coef1D{J: hyper, K: -1}}, v, v*v*support)
}

func (s *NonStandard) offerTime(c Coef1D, v float64) {
	s.costs.TotalOps++
	// Support in cells: 2^(J) hypercubes of N^d cells each.
	support := float64(int64(1)<<uint(c.J)) * float64(bitutil.IntPow(1<<uint(s.n), s.d))
	s.syn.Offer(CoefMD{Cross: -1, Time: c}, v, v*v*support)
}

// NextChunkPos returns the position (in chunk units) the maintainer expects
// next within the current hypercube.
func (s *NonStandard) NextChunkPos() []int {
	return append([]int(nil), s.chunkSeq[s.chunksIn]...)
}

// AddChunk consumes the next z-ordered chunk (a cube of edge 2^m) of the
// current hypercube.
func (s *NonStandard) AddChunk(chunk *ndarray.Array) error {
	edge := 1 << uint(s.m)
	if chunk.Dims() != s.d {
		return fmt.Errorf("stream: chunk has %d dims, want %d", chunk.Dims(), s.d)
	}
	for i := 0; i < s.d; i++ {
		if chunk.Extent(i) != edge {
			return fmt.Errorf("stream: chunk shape %v, want edge %d", chunk.Shape(), edge)
		}
	}
	s.costs.Items += int64(chunk.Size())
	s.costs.TotalOps += int64(chunk.Size())
	pos := s.chunkSeq[s.chunksIn]
	bHat := wavelet.TransformNonStandard(chunk)
	hyper := s.hyper
	// Details of the chunk subtree finalize immediately (the SHIFT).
	shape := make([]int, s.d)
	for i := range shape {
		shape[i] = 1 << uint(s.n)
	}
	core.EachShiftNonStandard(shape, s.m, pos, bHat, func(coords []int, v float64) {
		s.offerSpatial(hyper, coords, v)
	})
	origin := make([]int, s.d)
	s.crest.push(0, pos, bHat.At(origin...))
	s.chunksIn++
	if s.chunksIn == len(s.chunkSeq) {
		s.chunksIn = 0
		s.hyper++
		s.rebuildCrest()
	}
	return nil
}

// Finish flushes the time chain. The stream must stop at a hypercube
// boundary.
func (s *NonStandard) Finish() error {
	if s.chunksIn != 0 {
		return fmt.Errorf("stream: %d chunks into a hypercube; stop at a boundary", s.chunksIn)
	}
	s.timeChain.Finish()
	return nil
}

// CrestMemory returns the coefficients currently buffered outside the
// synopsis: the spatial crest plus the time chain (the Result-5 memory
// term).
func (s *NonStandard) CrestMemory() int {
	spatial := (bitutil.Pow2(s.d)) * (s.n - s.m)
	return spatial + s.timeChain.Levels()
}

// Synopsis returns the maintained best-K synopsis.
func (s *NonStandard) Synopsis() *synopsis.Synopsis[CoefMD] { return s.syn }

// Costs returns the accumulated cost counters.
func (s *NonStandard) Costs() Costs { return s.costs }
