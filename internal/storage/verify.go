package storage

import "fmt"

// Verifier is implemented by stores that can check block integrity without
// delivering payloads: VerifyBlocks walks the given ids and reports which
// ones are corrupt on the medium. It is the scrub primitive, following the
// same capability-interface pattern as Syncer/BatchReader.
//
// The contract: a non-nil err means the verification itself could not run
// (device error, closed store) and says nothing about integrity; a nil err
// with a non-empty corrupt list means those blocks failed verification and
// every other id in the batch passed. Unwritten blocks verify clean (they
// read as zeros by design).
type Verifier interface {
	VerifyBlocks(ids []int) (corrupt []int, err error)
}

// VerifyBlocksOf verifies ids against bs, natively when bs implements
// Verifier, else by reading each block and classifying the error: a
// corruption-classed failure marks the block corrupt, any other failure
// aborts the scan. Mirrors ReadBlocksOf: callers request the capability
// without knowing how deep in the stack it is implemented.
func VerifyBlocksOf(bs BlockStore, ids []int) (corrupt []int, err error) {
	if v, ok := bs.(Verifier); ok {
		return v.VerifyBlocks(ids)
	}
	buf := make([]float64, bs.BlockSize())
	for _, id := range ids {
		switch err := bs.ReadBlock(id, buf); {
		case err == nil:
		case IsCorruption(err):
			corrupt = append(corrupt, id)
		default:
			return corrupt, err
		}
	}
	return corrupt, nil
}

// VerifyBlocks implements Verifier natively: one vectored inner read of the
// frames, then a verification pass that collects every corrupt id instead
// of stopping at the first (ReadBlocks semantics would hide all but one).
func (c *Checksummed) VerifyBlocks(ids []int) (corrupt []int, err error) {
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("storage: negative block id %d", id)
		}
	}
	inner := c.inner.BlockSize()
	frames := SliceFrames(make([]float64, len(ids)*inner), len(ids), inner)
	if err := ReadBlocksOf(c.inner, ids, frames); err != nil {
		return nil, err
	}
	for i, id := range ids {
		if _, _, err := verifyFrame(c.sc.bytes, c.BlockSize(), id, frames[i]); err != nil {
			corrupt = append(corrupt, id)
		}
	}
	return corrupt, nil
}

// VerifyBlocks counts one read per block (the frames are transferred from
// the device) and forwards.
func (c *Counting) VerifyBlocks(ids []int) ([]int, error) {
	c.reads.Add(int64(len(ids)))
	return VerifyBlocksOf(c.inner, ids)
}

// VerifyBlocks delegates under the lock.
func (l *Locked) VerifyBlocks(ids []int) ([]int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return VerifyBlocksOf(l.inner, ids)
}

// Repairer is implemented by stores that can roll a corrupt block forward
// from a retained post-image (Durable keeps the last committed batch and
// the staging overlay as sources). repaired=false with a nil error means
// no source covers the block; only a rebuild can recover it.
type Repairer interface {
	RepairBlock(id int) (repaired bool, err error)
}

// RepairBlockOf repairs id when bs supports it and reports unrepairable
// otherwise.
func RepairBlockOf(bs BlockStore, id int) (bool, error) {
	if r, ok := bs.(Repairer); ok {
		return r.RepairBlock(id)
	}
	return false, nil
}

// RepairBlock counts one write when the repair rewrites a frame.
func (c *Counting) RepairBlock(id int) (bool, error) {
	ok, err := RepairBlockOf(c.inner, id)
	if ok && err == nil {
		c.writes.Add(1)
	}
	return ok, err
}

// RepairBlock delegates under the lock.
func (l *Locked) RepairBlock(id int) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return RepairBlockOf(l.inner, id)
}
