package storage

import "fmt"

// This file defines the vectored block I/O capability. The tiling
// allocation guarantees that SHIFT-SPLIT maintenance and range queries
// touch runs of consecutive block ids; moving those runs one block per
// call pays a syscall, a lock acquisition, a checksum frame, and a journal
// record each. BatchReader/BatchWriter let every layer of the stack move a
// whole batch per call instead, following the same optional-capability
// pattern as Syncer/Truncater/Committer.
//
// Contract: a successful batch is equivalent to the per-block loop — same
// contents, same per-block I/O counts on any Counting in the stack, same
// physical write order (batches preserve the order of ids). On error the
// same first error surfaces, but a wrapper may have probed or transferred
// more blocks than the loop would have before failing; callers must treat
// every buffer of a failed batch as undefined.

// BatchReader is implemented by stores that can serve many block reads in
// one call. ids[i] fills bufs[i]; ids need not be sorted or distinct, and
// implementations exploit runs of consecutive ids.
type BatchReader interface {
	ReadBlocks(ids []int, bufs [][]float64) error
}

// BatchWriter is implemented by stores that can absorb many block writes
// in one call. data[i] is stored as block ids[i], in slice order — the
// physical write sequence is the same as the per-block loop's, which crash
// recovery relies on.
type BatchWriter interface {
	WriteBlocks(ids []int, data [][]float64) error
}

// ZeroFill zeroes buf. It replaces the hand-rolled zero loops that used to
// be scattered over the store implementations and is what the batch
// fallbacks use for unwritten blocks.
func ZeroFill(buf []float64) {
	clear(buf)
}

// checkBatchArgs validates a batch the way checkBlockArgs validates a
// single call: matching lengths, non-negative ids, block-sized buffers.
func checkBatchArgs(bs BlockStore, ids []int, bufs [][]float64) error {
	if len(ids) != len(bufs) {
		return fmt.Errorf("storage: batch has %d ids, %d buffers", len(ids), len(bufs))
	}
	for i, id := range ids {
		if err := checkBlockArgs(bs, id, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocksOf reads a batch through bs: natively when bs implements
// BatchReader, else by a per-block loop that stops at the first error.
// Mirrors SyncIfAble: callers request the capability without knowing how
// their stack is composed.
func ReadBlocksOf(bs BlockStore, ids []int, bufs [][]float64) error {
	if len(ids) == 0 && len(bufs) == 0 {
		return nil
	}
	if br, ok := bs.(BatchReader); ok {
		return br.ReadBlocks(ids, bufs)
	}
	if err := checkBatchArgs(bs, ids, bufs); err != nil {
		return err
	}
	for i, id := range ids {
		if err := bs.ReadBlock(id, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlocksOf writes a batch through bs: natively when bs implements
// BatchWriter, else by a per-block loop (in slice order) that stops at the
// first error.
func WriteBlocksOf(bs BlockStore, ids []int, data [][]float64) error {
	if len(ids) == 0 && len(data) == 0 {
		return nil
	}
	if bw, ok := bs.(BatchWriter); ok {
		return bw.WriteBlocks(ids, data)
	}
	if err := checkBatchArgs(bs, ids, data); err != nil {
		return err
	}
	for i, id := range ids {
		if err := bs.WriteBlock(id, data[i]); err != nil {
			return err
		}
	}
	return nil
}

// SliceFrames cuts a flat slab into n block-sized frames. The batch
// implementations use it to allocate one backing array per batch instead
// of n small ones.
func SliceFrames(slab []float64, n, frameLen int) [][]float64 {
	frames := make([][]float64, n)
	for i := range frames {
		frames[i] = slab[i*frameLen : (i+1)*frameLen : (i+1)*frameLen]
	}
	return frames
}
