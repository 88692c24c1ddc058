package storage

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Faulty wraps a BlockStore and fails operations on command. It exists for
// failure-injection tests: every engine in this repository must surface
// storage errors rather than panic or silently corrupt state.
//
// Three error-trigger modes compose (an operation fails if any mode fires):
//
//   - one-shot: FailReadAfter/FailWriteAfter make the n-th subsequent
//     operation and every later one fail — a device that dies and stays
//     dead;
//   - every-Nth: FailEveryNthRead/FailEveryNthWrite fail one operation in
//     every N — deterministic sustained flakiness;
//   - probabilistic: FailReadsWithProbability fails each read with
//     probability p under a seeded RNG — random sustained flakiness for
//     stress tests.
//
// Two silent modes model faults the device does NOT report:
//
//   - bit rot: RotReadsWithProbability/RotWritesWithProbability flip one
//     bit of one slot per triggered block and return success. Only an
//     integrity layer above (Checksummed) can catch it — which is the
//     point: tests prove checksums, not error codes, are the detector.
//   - latency: Delay stalls each operation, modeling a congested device
//     for timeout and rate-limit tests.
//
// All arming methods and triggers are mutex-guarded, so a chaos campaign
// can re-arm a Faulty while other goroutines drive I/O through it. Faulty
// does not offer FrameViewer: zero-copy views would bypass fault
// injection, so faulted stacks always take the copying read path.
type Faulty struct {
	inner BlockStore

	mu sync.Mutex
	// FailReadAfter / FailWriteAfter make the n-th subsequent read/write
	// fail (1 = the next one). Zero disables the trigger.
	failReadAfter  int64
	failWriteAfter int64
	everyNthRead   int64
	everyNthWrite  int64
	pRead          float64
	pRotRead       float64
	pRotWrite      float64
	delay          time.Duration
	rng            *rand.Rand
	reads          int64
	writes         int64
	injected       int64
	rotted         int64
}

// ErrInjected is the error returned by triggered failures. It belongs to
// the ErrTransient class of the storage error taxonomy: retrying an
// injected fault is legitimate (the fault model is a flaky device, not a
// corrupted one).
var ErrInjected = newClassified("storage: injected fault", ErrTransient)

// NewFaulty wraps inner; arm it with the Fail*/Rot*/Delay methods.
func NewFaulty(inner BlockStore) *Faulty {
	return &Faulty{inner: inner}
}

// FailReadAfter arms the one-shot read trigger: the n-th read from now
// (and every read after it) fails. Zero disarms.
func (f *Faulty) FailReadAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n == 0 {
		f.failReadAfter = 0
		return
	}
	f.failReadAfter = f.reads + n
}

// FailWriteAfter arms the one-shot write trigger: the n-th write from now
// (and every write after it) fails. Zero disarms.
func (f *Faulty) FailWriteAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n == 0 {
		f.failWriteAfter = 0
		return
	}
	f.failWriteAfter = f.writes + n
}

// FailEveryNthRead fails one read in every n (n <= 0 disarms).
func (f *Faulty) FailEveryNthRead(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		n = 0
	}
	f.everyNthRead = n
}

// FailEveryNthWrite fails one write in every n (n <= 0 disarms).
func (f *Faulty) FailEveryNthWrite(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n <= 0 {
		n = 0
	}
	f.everyNthWrite = n
}

// seedRNG must be called with f.mu held.
func (f *Faulty) seedRNG(seed int64) {
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(seed))
	}
}

// FailReadsWithProbability fails each read with probability p, drawn from
// an RNG seeded on the first probabilistic call (p <= 0 disarms).
func (f *Faulty) FailReadsWithProbability(p float64, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p > 0 {
		f.seedRNG(seed)
	}
	f.pRead = p
}

// RotReadsWithProbability silently flips one bit of one slot in each read
// block with probability p, reporting success. The device lies; only a
// checksum above can tell (p <= 0 disarms).
func (f *Faulty) RotReadsWithProbability(p float64, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p > 0 {
		f.seedRNG(seed)
	}
	f.pRotRead = p
}

// RotWritesWithProbability silently flips one bit of one slot in each
// written block with probability p before it reaches the medium, reporting
// success — persistent rot that every later read of the block sees
// (p <= 0 disarms). The caller's slice is not modified.
func (f *Faulty) RotWritesWithProbability(p float64, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p > 0 {
		f.seedRNG(seed)
	}
	f.pRotWrite = p
}

// Delay stalls every subsequent operation by d before it runs, modeling a
// congested device (zero disarms).
func (f *Faulty) Delay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d < 0 {
		d = 0
	}
	f.delay = d
}

// InjectedFaults returns how many operations have been failed so far.
func (f *Faulty) InjectedFaults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// RottedBlocks returns how many blocks have had a bit silently flipped.
func (f *Faulty) RottedBlocks() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rotted
}

// BlockSize returns the wrapped block size.
func (f *Faulty) BlockSize() int { return f.inner.BlockSize() }

// rotPlan describes one silent bit flip: slot idx, bit position bit.
// idx < 0 means no rot.
type rotPlan struct {
	idx int
	bit uint
}

// applyRot flips the planned bit in block (in place).
func (p rotPlan) applyRot(block []float64) {
	if p.idx < 0 || p.idx >= len(block) {
		return
	}
	block[p.idx] = math.Float64frombits(math.Float64bits(block[p.idx]) ^ (1 << p.bit))
}

// readPlan counts one read and evaluates its triggers under the lock,
// consuming exactly the RNG draws the per-block path would.
func (f *Faulty) readPlan() (fail bool, rot rotPlan, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rot.idx = -1
	delay = f.delay
	f.reads++
	fail = f.failReadAfter != 0 && f.reads >= f.failReadAfter
	fail = fail || (f.everyNthRead > 0 && f.reads%f.everyNthRead == 0)
	fail = fail || (f.pRead > 0 && f.rng.Float64() < f.pRead)
	if fail {
		f.injected++
		return fail, rot, delay
	}
	if f.pRotRead > 0 && f.rng.Float64() < f.pRotRead {
		rot.idx = f.rng.Intn(f.inner.BlockSize())
		rot.bit = uint(f.rng.Intn(64))
		f.rotted++
	}
	return fail, rot, delay
}

// writePlan counts one write and evaluates its triggers under the lock.
func (f *Faulty) writePlan() (fail bool, rot rotPlan, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rot.idx = -1
	delay = f.delay
	f.writes++
	fail = f.failWriteAfter != 0 && f.writes >= f.failWriteAfter
	fail = fail || (f.everyNthWrite > 0 && f.writes%f.everyNthWrite == 0)
	if fail {
		f.injected++
		return fail, rot, delay
	}
	if f.pRotWrite > 0 && f.rng.Float64() < f.pRotWrite {
		rot.idx = f.rng.Intn(f.inner.BlockSize())
		rot.bit = uint(f.rng.Intn(64))
		f.rotted++
	}
	return fail, rot, delay
}

func stall(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// ReadBlock fails if any read trigger fires, else delegates; a firing rot
// trigger flips one bit of the returned block and reports success.
func (f *Faulty) ReadBlock(id int, buf []float64) error {
	fail, rot, delay := f.readPlan()
	stall(delay)
	if fail {
		return fmt.Errorf("read block %d: %w", id, ErrInjected)
	}
	if err := f.inner.ReadBlock(id, buf); err != nil {
		return err
	}
	rot.applyRot(buf)
	return nil
}

// WriteBlock fails if any write trigger fires, else delegates; a firing
// rot trigger flips one bit of the stored copy (the caller's slice is
// untouched) and reports success.
func (f *Faulty) WriteBlock(id int, data []float64) error {
	fail, rot, delay := f.writePlan()
	stall(delay)
	if fail {
		return fmt.Errorf("write block %d: %w", id, ErrInjected)
	}
	if rot.idx >= 0 {
		rotten := append([]float64(nil), data...)
		rot.applyRot(rotten)
		data = rotten
	}
	return f.inner.WriteBlock(id, data)
}

// ReadBlocks evaluates the per-block triggers in batch order (same
// counters and RNG draws as the loop) and forwards the maximal clean
// prefix as one vectored read. A firing fail trigger fails the batch with
// the same injected error the loop would return for that block; an inner
// error on the prefix takes precedence, as it would in the loop. Rot
// triggers flip bits in the delivered prefix exactly as the loop would.
func (f *Faulty) ReadBlocks(ids []int, bufs [][]float64) error {
	rots := make([]rotPlan, 0, len(ids))
	var delay time.Duration
	failAt := -1
	for i := range ids {
		fail, rot, d := f.readPlan()
		delay = d
		if fail {
			failAt = i
			break
		}
		rots = append(rots, rot)
	}
	stall(delay)
	n := len(ids)
	if failAt >= 0 {
		n = failAt
	}
	if err := ReadBlocksOf(f.inner, ids[:n], bufs[:n]); err != nil {
		return err
	}
	for i, rot := range rots[:n] {
		rot.applyRot(bufs[i])
	}
	if failAt >= 0 {
		return fmt.Errorf("read block %d: %w", ids[failAt], ErrInjected)
	}
	return nil
}

// WriteBlocks is ReadBlocks for the write triggers.
func (f *Faulty) WriteBlocks(ids []int, data [][]float64) error {
	rots := make([]rotPlan, 0, len(ids))
	var delay time.Duration
	failAt := -1
	for i := range ids {
		fail, rot, d := f.writePlan()
		delay = d
		if fail {
			failAt = i
			break
		}
		rots = append(rots, rot)
	}
	stall(delay)
	n := len(ids)
	if failAt >= 0 {
		n = failAt
	}
	out := data[:n]
	for i, rot := range rots[:n] {
		if rot.idx < 0 {
			continue
		}
		if &out[0] == &data[0] && n > 0 {
			out = append([][]float64(nil), data[:n]...)
		}
		rotten := append([]float64(nil), out[i]...)
		rot.applyRot(rotten)
		out[i] = rotten
	}
	if err := WriteBlocksOf(f.inner, ids[:n], out); err != nil {
		return err
	}
	if failAt >= 0 {
		return fmt.Errorf("write block %d: %w", ids[failAt], ErrInjected)
	}
	return nil
}

// Sync delegates (faults target block transfers, not barriers): slid in as
// a BaseWrap, Faulty stands in for the device the layers above sync.
func (f *Faulty) Sync() error { return SyncIfAble(f.inner) }

// Close delegates.
func (f *Faulty) Close() error { return f.inner.Close() }
