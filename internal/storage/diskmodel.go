package storage

import (
	"fmt"
	"time"
)

// DiskModel converts counted block I/O into estimated wall-clock time for a
// rotational disk of the kind the paper's 2005 experiments ran on. The
// model is the classic seek + rotational latency + transfer decomposition;
// it exists so experiments can report the *time* shape ("expansion is fast
// even though it is O(N^d)", §5.2) alongside raw counts, and so ablations
// can weigh sequential versus scattered access.
type DiskModel struct {
	// SeekTime is the average cost to position the head for a random access.
	SeekTime time.Duration
	// TransferPerBlock is the cost to move one block once positioned.
	TransferPerBlock time.Duration
	// SequentialFraction estimates the fraction of accesses that continue a
	// sequential run and therefore skip the seek (0 = all random).
	SequentialFraction float64
}

// Disk2005 approximates a 2005-era 7200 rpm disk: ~8.5 ms average seek +
// rotational latency, ~60 MB/s transfer.
func Disk2005(blockBytes int) DiskModel {
	return DiskModel{
		SeekTime:         8500 * time.Microsecond,
		TransferPerBlock: time.Duration(float64(blockBytes) / 60e6 * float64(time.Second)),
	}
}

// Estimate returns the modeled time for the given I/O counts.
func (m DiskModel) Estimate(s Stats) time.Duration {
	ops := float64(s.Total())
	seeks := ops * (1 - m.SequentialFraction)
	return time.Duration(seeks*float64(m.SeekTime) + ops*float64(m.TransferPerBlock))
}

// String renders the model parameters.
func (m DiskModel) String() string {
	return fmt.Sprintf("disk{seek=%v, transfer/block=%v, seq=%.0f%%}",
		m.SeekTime, m.TransferPerBlock, m.SequentialFraction*100)
}
