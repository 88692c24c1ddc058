package tile

import (
	"fmt"
	"sync"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// Store provides coefficient-level access to a transform laid out on a
// BlockStore according to a Tiling. Every access goes through whole-block
// reads and writes, so wrapping the underlying store with storage.Counting
// (and optionally a storage.BufferPool to model available memory) measures
// exactly the block I/O the paper's figures report.
//
// The read path (Get, ReadTile, Tiling) uses per-call scratch buffers and is
// safe for concurrent use provided the underlying BlockStore is; the
// serving layer relies on this. Read-modify-write mutations (Set, Add) are
// serialized against each other by an internal mutex, but concurrent
// mutation of the same coefficients from multiple writers still needs
// external coordination, as do WriteTile, Commit, and Close.
type Store struct {
	bs     storage.BlockStore
	tiling Tiling
	mu     sync.Mutex // serializes read-modify-write block updates
	bufs   sync.Pool  // *[]float64 scratch blocks
	apply  applyScratch
}

// NewStore binds a tiling to a block store. The store's block size must
// match the tiling's.
func NewStore(bs storage.BlockStore, tiling Tiling) (*Store, error) {
	s := new(Store)
	if err := s.Init(bs, tiling); err != nil {
		return nil, err
	}
	return s, nil
}

// Init is NewStore in place: it binds a zero Store embedded in a larger
// object, so the binding costs no allocation of its own.
func (s *Store) Init(bs storage.BlockStore, tiling Tiling) error {
	if bs.BlockSize() != tiling.BlockSize() {
		return fmt.Errorf("tile: block size mismatch: store %d, tiling %d", bs.BlockSize(), tiling.BlockSize())
	}
	s.bs, s.tiling = bs, tiling
	return nil
}

func (s *Store) getBuf() *[]float64 {
	if b, ok := s.bufs.Get().(*[]float64); ok {
		return b
	}
	b := make([]float64, s.bs.BlockSize())
	return &b
}

// Tiling returns the tiling in use.
func (s *Store) Tiling() Tiling { return s.tiling }

// Blocks returns the underlying block store.
func (s *Store) Blocks() storage.BlockStore { return s.bs }

// Get reads one coefficient.
func (s *Store) Get(coords []int) (float64, error) {
	block, slot := s.tiling.Locate(coords)
	bp := s.getBuf()
	defer s.bufs.Put(bp)
	if err := s.bs.ReadBlock(block, *bp); err != nil {
		return 0, err
	}
	return (*bp)[slot], nil
}

// Set writes one coefficient (read-modify-write of its block).
func (s *Store) Set(coords []int, v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	block, slot := s.tiling.Locate(coords)
	bp := s.getBuf()
	defer s.bufs.Put(bp)
	if err := s.bs.ReadBlock(block, *bp); err != nil {
		return err
	}
	(*bp)[slot] = v
	return s.bs.WriteBlock(block, *bp)
}

// Add accumulates a delta into one coefficient (read-modify-write).
func (s *Store) Add(coords []int, delta float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	block, slot := s.tiling.Locate(coords)
	bp := s.getBuf()
	defer s.bufs.Put(bp)
	if err := s.bs.ReadBlock(block, *bp); err != nil {
		return err
	}
	(*bp)[slot] += delta
	return s.bs.WriteBlock(block, *bp)
}

// ReadTile returns a copy of one whole block.
func (s *Store) ReadTile(block int) ([]float64, error) {
	out := make([]float64, s.tiling.BlockSize())
	if err := s.bs.ReadBlock(block, out); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteTile stores one whole block.
func (s *Store) WriteTile(block int, data []float64) error {
	return s.bs.WriteBlock(block, data)
}

// ReadTiles returns copies of the given blocks, fetched as one vectored
// read when the underlying stack supports it (one device request per
// consecutive run instead of one per tile).
func (s *Store) ReadTiles(blocks []int) ([][]float64, error) {
	if len(blocks) == 0 {
		return nil, nil
	}
	bufs := storage.SliceFrames(make([]float64, len(blocks)*s.tiling.BlockSize()), len(blocks), s.tiling.BlockSize())
	if err := s.ReadTilesInto(blocks, bufs); err != nil {
		return nil, err
	}
	return bufs, nil
}

// ReadTilesInto is ReadTiles into caller-owned frames, one block-sized
// frame per id: the fetch step of the query kernels, which reuse the frames
// across queries.
func (s *Store) ReadTilesInto(blocks []int, frames [][]float64) error {
	return storage.ReadBlocksOf(s.bs, blocks, frames)
}

// WriteTiles stores whole blocks as one vectored write; the physical write
// order is the slice order, exactly as a WriteTile loop would produce.
func (s *Store) WriteTiles(blocks []int, data [][]float64) error {
	return storage.WriteBlocksOf(s.bs, blocks, data)
}

// Close closes the underlying block store.
func (s *Store) Close() error { return s.bs.Close() }
