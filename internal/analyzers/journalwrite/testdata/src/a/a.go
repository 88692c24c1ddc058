// Package a exercises the journalwrite analyzer: direct block mutations
// from an engine-level package must be flagged; reads and the sanctioned
// tile.Store write path must not.
package a

import (
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
)

func direct(bs storage.BlockStore, fs *storage.FileStore, buf []float64) error {
	if err := bs.WriteBlock(0, buf); err != nil { // want `bypasses the maintenance journal`
		return err
	}
	if err := fs.WriteBlock(1, buf); err != nil { // want `bypasses the maintenance journal`
		return err
	}
	if err := fs.Truncate(); err != nil { // want `bypasses the maintenance journal`
		return err
	}
	if err := storage.TruncateIfAble(bs); err != nil { // want `only the journal protocol may truncate`
		return err
	}
	return bs.ReadBlock(0, buf) // reads never bypass anything
}

func sanctioned(st *tile.Store, batch storage.Committer, buf []float64) error {
	if err := st.WriteTile(0, buf); err != nil { // the journaled path: no finding
		return err
	}
	if err := st.Set([]int{0, 0}, 1.5); err != nil {
		return err
	}
	return batch.Commit()
}

func suppressed(fs *storage.FileStore, buf []float64) error {
	//shiftsplitvet:ignore journalwrite -- recovery tooling writes raw blocks on purpose
	return fs.WriteBlock(2, buf)
}

func adHocGoroutine(st *tile.Store, buf []float64) {
	done := make(chan error, 2)
	go func() {
		done <- st.WriteTile(3, buf) // want `tile.WriteTile from an ad hoc goroutine`
	}()
	go func() {
		done <- st.Set([]int{1, 1}, 2.0) // want `tile.Set from an ad hoc goroutine`
	}()
	<-done
	<-done
}

func goroutineReadsAreFine(st *tile.Store) {
	done := make(chan error, 1)
	go func() {
		_, err := st.ReadTile(0) // reads from goroutines are the serving path: no finding
		done <- err
	}()
	<-done
}
