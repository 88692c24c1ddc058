package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// Harness-side tracing. Spans are recorded from the benchmark's own files
// around the calls into each layer: one span per request (or direct store
// call), and one per call that reaches the block device, taken by a timing
// BlockStore slid under the checksum layer through the BaseWrap seam.
// Everything stays in memory until the run ends.

type spanName uint8

const (
	spanRequest spanName = iota // Handler().ServeHTTP
	spanStore                   // direct Store.Point/RangeSum/MergeBlock or Ingester.Enqueue group
	spanDevRead
	spanDevWrite
	spanDevSync
	spanDevTruncate
)

var spanNames = [...]string{"server.request", "store.call", "device.read", "device.write", "device.sync", "device.truncate"}

type span struct {
	ID, Parent int32
	Name       spanName
	Start, Dur int64 // ns since the tracer started
	Blocks     int32
}

// deviceTotals aggregates the device spans of one pass.
type deviceTotals struct {
	ReadCalls, ReadBlocks, ReadNs    int64
	WriteBlocks, WriteNs, WriteBytes int64
	Syncs                            int64
}

func (d deviceTotals) add(o deviceTotals) deviceTotals {
	return deviceTotals{
		ReadCalls: d.ReadCalls + o.ReadCalls, ReadBlocks: d.ReadBlocks + o.ReadBlocks, ReadNs: d.ReadNs + o.ReadNs,
		WriteBlocks: d.WriteBlocks + o.WriteBlocks, WriteNs: d.WriteNs + o.WriteNs, WriteBytes: d.WriteBytes + o.WriteBytes,
		Syncs: d.Syncs + o.Syncs,
	}
}

func (d deviceTotals) sub(o deviceTotals) deviceTotals {
	return deviceTotals{
		ReadCalls: d.ReadCalls - o.ReadCalls, ReadBlocks: d.ReadBlocks - o.ReadBlocks, ReadNs: d.ReadNs - o.ReadNs,
		WriteBlocks: d.WriteBlocks - o.WriteBlocks, WriteNs: d.WriteNs - o.WriteNs, WriteBytes: d.WriteBytes - o.WriteBytes,
		Syncs: d.Syncs - o.Syncs,
	}
}

// tracer owns the span log of one traced workload. Only the goroutine
// driving the workload appends request spans; device spans come from
// whichever goroutine the stack calls the device on (the ingest commit
// loop, on the ingest workload), which never overlaps another device call
// because every write path is serialized above it.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // request span the device spans are children of
	dev   deviceTotals
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a request-level span and makes it the parent of the device
// spans that follow; end closes it.
func (t *tracer) begin(name spanName) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: t.now()})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	s := &t.spans[id-1]
	s.Dur = t.now() - s.Start
	t.cur = 0
}

// device closes a device span opened at start and returns its duration.
func (t *tracer) device(name spanName, start int64, blocks int) int64 {
	dur := t.now() - start
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: t.cur, Name: name, Start: start, Dur: dur, Blocks: int32(blocks)})
	return dur
}

// commitP50us is the median, over the requests that reached the device, of
// the time from a request's first device call to the end of its last: on
// the ingest workload, the group commit as the data device sees it (the
// ingester's own histogram has 1-2-5 buckets, too coarse to compare runs).
func (t *tracer) commitP50us() float64 {
	first, last := map[int32]int64{}, map[int32]int64{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		if _, seen := first[s.Parent]; !seen {
			first[s.Parent] = s.Start
		}
		last[s.Parent] = s.Start + s.Dur
	}
	windows := make([]float64, 0, len(first))
	for id, start := range first {
		windows = append(windows, float64(last[id]-start)/1e3)
	}
	return medianOf(windows)
}

// writeSpans dumps the span log as NDJSON.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			ID     int32  `json:"id"`
			Parent int32  `json:"parent,omitempty"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			Dur    int64  `json:"dur_ns"`
			Blocks int32  `json:"blocks,omitempty"`
		}{s.ID, s.Parent, spanNames[s.Name], s.Start, s.Dur, s.Blocks}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// timedStore is the timing BlockStore. It forwards the capabilities both
// base devices share (vectored reads and writes, sync, truncate);
// timedMapped adds the two only MappedStore has. wrapTimed picks the type
// whose method set equals the wrapped device's, so every capability probe
// above (Checksummed's FrameViewer fast path, SyncIfAble, ReadBlocksOf)
// takes the same branch traced as untraced.
type timedStore struct {
	inner interface {
		storage.BlockStore
		storage.BatchReader
		storage.BatchWriter
		storage.Syncer
		storage.Truncater
	}
	t *tracer
}

func (s *timedStore) BlockSize() int { return s.inner.BlockSize() }

func (s *timedStore) read(start int64, blocks int) {
	dur := s.t.device(spanDevRead, start, blocks)
	d := &s.t.dev
	d.ReadCalls++
	d.ReadBlocks += int64(blocks)
	d.ReadNs += dur
}

func (s *timedStore) wrote(start int64, blocks int) {
	dur := s.t.device(spanDevWrite, start, blocks)
	d := &s.t.dev
	d.WriteBlocks += int64(blocks)
	d.WriteNs += dur
	d.WriteBytes += int64(blocks) * int64(s.inner.BlockSize()) * 8
}

func (s *timedStore) ReadBlock(id int, buf []float64) error {
	start := s.t.now()
	err := s.inner.ReadBlock(id, buf)
	s.read(start, 1)
	return err
}

func (s *timedStore) ReadBlocks(ids []int, bufs [][]float64) error {
	start := s.t.now()
	err := s.inner.ReadBlocks(ids, bufs)
	s.read(start, len(ids))
	return err
}

func (s *timedStore) WriteBlock(id int, data []float64) error {
	start := s.t.now()
	err := s.inner.WriteBlock(id, data)
	s.wrote(start, 1)
	return err
}

func (s *timedStore) WriteBlocks(ids []int, data [][]float64) error {
	start := s.t.now()
	err := s.inner.WriteBlocks(ids, data)
	s.wrote(start, len(ids))
	return err
}

func (s *timedStore) Sync() error {
	start := s.t.now()
	err := s.inner.Sync()
	s.t.device(spanDevSync, start, 0)
	s.t.dev.Syncs++
	return err
}

func (s *timedStore) Truncate() error {
	start := s.t.now()
	err := s.inner.Truncate()
	s.t.device(spanDevTruncate, start, 0)
	return err
}

func (s *timedStore) Close() error { return s.inner.Close() }

// timedMapped adds MappedStore's zero-copy frame views and mapped-read
// counter. A view is a read: the blocks are counted when borrowed, and the
// span covers the borrow (the CRC pass over the views runs above, in the
// checksum layer).
type timedMapped struct {
	timedStore
	views interface {
		storage.FrameViewer
		storage.MappedReadsReporter
	}
}

func (s *timedMapped) ViewFrames(ids []int) (*storage.FrameViews, error) {
	start := s.t.now()
	v, err := s.views.ViewFrames(ids)
	s.read(start, len(ids))
	return v, err
}

func (s *timedMapped) MappedReads() int64 { return s.views.MappedReads() }

// deviceCapabilities lists, per optional storage interface, whether bs
// implements it. The forwarding test compares a device and its wrapper
// with it.
func deviceCapabilities(bs storage.BlockStore) map[string]bool {
	_, batchR := bs.(storage.BatchReader)
	_, batchW := bs.(storage.BatchWriter)
	_, views := bs.(storage.FrameViewer)
	_, sync := bs.(storage.Syncer)
	_, commit := bs.(storage.Committer)
	_, trunc := bs.(storage.Truncater)
	_, mapped := bs.(storage.MappedReadsReporter)
	_, verify := bs.(storage.Verifier)
	_, repair := bs.(storage.Repairer)
	return map[string]bool{
		"BatchReader": batchR, "BatchWriter": batchW, "FrameViewer": views,
		"Syncer": sync, "Committer": commit, "Truncater": trunc,
		"MappedReadsReporter": mapped, "Verifier": verify, "Repairer": repair,
	}
}

// wrapTimed returns the timing wrapper for a base device. A device whose
// capability set is neither FileStore's nor MappedStore's cannot be
// wrapped faithfully; that is a change to internal/storage this file has
// to follow, so it panics rather than silently dropping a capability.
func wrapTimed(bs storage.BlockStore, t *tracer) storage.BlockStore {
	var out storage.BlockStore
	switch dev := bs.(type) {
	case *storage.MappedStore:
		out = &timedMapped{timedStore: timedStore{inner: dev, t: t}, views: dev}
	case *storage.FileStore:
		out = &timedStore{inner: dev, t: t}
	default:
		panic(fmt.Sprintf("bench: no timing wrapper for base device %T", bs))
	}
	want, got := deviceCapabilities(bs), deviceCapabilities(out)
	for name := range want {
		if want[name] != got[name] {
			panic(fmt.Sprintf("bench: timing wrapper for %T forwards %s=%v, device has %v", bs, name, got[name], want[name]))
		}
	}
	return out
}
