// Package ingesttest holds the fixture the ingest and server tests share
// for keeping slabs queued: a commit that blocks until the test says go.
package ingesttest

import (
	"sync"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// Wedge blocks the Commit of every store its Backing hands out until
// Release. While a commit is wedged the ingester's commit loop has claimed
// that group and holds the appender, so every slab enqueued afterwards
// stays queued and unclaimed — deterministically, with no timer involved.
type Wedge struct {
	entered chan struct{} // closed when the first Commit arrives
	release chan struct{} // closed by Release
	enter   sync.Once
	open    sync.Once
}

// NewWedge returns a wedge in the blocking state.
func NewWedge() *Wedge {
	return &Wedge{entered: make(chan struct{}), release: make(chan struct{})}
}

// Backing is an appender.Backing over in-memory stores whose Commit waits
// for Release.
func (w *Wedge) Backing(_, blockSize int) (storage.BlockStore, error) {
	return &wedgedStore{BlockStore: storage.NewMemStore(blockSize), w: w}, nil
}

// Entered is closed once a commit is blocked on the wedge.
func (w *Wedge) Entered() <-chan struct{} { return w.entered }

// Release lets the blocked commit, and every later one, through. It may
// be called more than once.
func (w *Wedge) Release() { w.open.Do(func() { close(w.release) }) }

type wedgedStore struct {
	storage.BlockStore
	w *Wedge
}

func (s *wedgedStore) Commit() error {
	s.w.enter.Do(func() { close(s.w.entered) })
	<-s.w.release
	return nil
}
