package storage

import "sync"

// This file defines the zero-copy read capability and the mapped-read
// accounting interface that go with MappedStore.
//
// Borrow/release discipline for frame views: a FrameViews is a borrow
// of the store's current mapping generation. The borrower must call
// Release exactly once, before the next mutation (write, truncate,
// close) of the viewed blocks, and must not retain any frame slice past
// Release. Wrappers that intercept reads for fault injection (Faulty,
// CrashStore, Degraded, Breaker) deliberately do NOT forward
// FrameViewer: a zero-copy view would bypass their read interception,
// so stacks containing them fall back to the copying read path.

// FrameViewer is implemented by stores that can expose borrowed,
// zero-copy views of raw block frames (the 8*BlockSize()-byte
// little-endian extents). It is an internal capability consumed by the
// Checksummed fast path; engines never see it.
type FrameViewer interface {
	// ViewFrames returns views for ids. Frame(i) is nil when block
	// ids[i] lies wholly beyond the file (reads as zeros). The views
	// are valid until Release.
	ViewFrames(ids []int) (*FrameViews, error)
}

// FrameViews is a set of borrowed block-frame views over one mapping
// generation. The zero value is not useful; obtain one from a
// FrameViewer and always Release it.
type FrameViews struct {
	frames [][]byte
	m      *mapping
	pool   *sync.Pool // recycles the FrameViews itself on Release
}

// Len returns the number of views.
func (v *FrameViews) Len() int { return len(v.frames) }

// Frame returns the raw frame bytes for entry i, or nil when the block
// was never allocated on the medium (it reads as zeros). The slice is
// borrowed: it is invalidated by Release and by writes to the block.
func (v *FrameViews) Frame(i int) []byte { return v.frames[i] }

// Release returns the borrow. It must be called exactly once; frames
// must not be used afterwards.
func (v *FrameViews) Release() {
	if v.m != nil {
		v.m.dropRef()
		v.m = nil
	}
	for i := range v.frames {
		v.frames[i] = nil
	}
	if v.pool != nil {
		v.frames = v.frames[:0]
		v.pool.Put(v)
		return
	}
	v.frames = nil
}

// MappedReadsReporter is implemented by devices that serve reads from a
// memory mapping rather than positional read syscalls (MappedStore). The
// counter keeps the syscall proxy honest: mapped stacks report 0 preads,
// and this counter carries the traffic instead. The layers stacked above
// a device do not forward it; whoever opened the device reads it there.
type MappedReadsReporter interface {
	MappedReads() int64
}
