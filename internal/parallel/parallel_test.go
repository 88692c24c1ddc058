package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunDeliversInAscendingOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			var produced atomic.Int64
			var got []int
			err := Run(n, workers,
				func(seq int) (int, error) {
					produced.Add(1)
					return seq * seq, nil
				},
				func(seq, v int) error {
					if v != seq*seq {
						t.Errorf("consume(%d) got %d, want %d", seq, v, seq*seq)
					}
					got = append(got, seq)
					return nil
				})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if produced.Load() != n {
				t.Fatalf("produced %d items, want %d", produced.Load(), n)
			}
			if len(got) != n {
				t.Fatalf("consumed %d items, want %d", len(got), n)
			}
			for i, seq := range got {
				if seq != i {
					t.Fatalf("consume order %v is not ascending at %d", got[:i+1], i)
				}
			}
		})
	}
}

func TestRunZeroAndOneItems(t *testing.T) {
	if err := Run(0, 4, func(int) (int, error) { return 0, nil },
		func(int, int) error { t.Fatal("consume on empty run"); return nil }); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	calls := 0
	err := Run(1, 4,
		func(seq int) (int, error) { return seq + 7, nil },
		func(seq, v int) error { calls++; return nil })
	if err != nil || calls != 1 {
		t.Fatalf("single-item run: err=%v calls=%d", err, calls)
	}
}

func TestRunProduceErrorWins(t *testing.T) {
	wantErr := errors.New("boom")
	err := Run(50, 4,
		func(seq int) (int, error) {
			if seq == 13 {
				return 0, wantErr
			}
			return seq, nil
		},
		func(seq, v int) error {
			if seq >= 13 {
				t.Errorf("consumed seq %d after the failing seq", seq)
			}
			return nil
		})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run error = %v, want %v", err, wantErr)
	}
}

func TestRunConsumeErrorHalts(t *testing.T) {
	wantErr := errors.New("sink full")
	consumed := 0
	err := Run(200, 4,
		func(seq int) (int, error) { return seq, nil },
		func(seq, v int) error {
			consumed++
			if seq == 5 {
				return wantErr
			}
			return nil
		})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run error = %v, want %v", err, wantErr)
	}
	if consumed != 6 {
		t.Fatalf("consumed %d items, want 6 (halt after error)", consumed)
	}
}

// TestRunBoundsInFlight checks the fixed window: at most 2*workers results
// are being produced or waiting for the consumer at any time.
func TestRunBoundsInFlight(t *testing.T) {
	const workers = 4
	var inFlight, peak atomic.Int64
	err := Run(300, workers,
		func(seq int) (int, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			return seq, nil
		},
		func(seq, v int) error {
			inFlight.Add(-1)
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p := peak.Load(); p > 2*workers {
		t.Fatalf("peak in-flight %d exceeds the bound 2*workers = %d", p, 2*workers)
	}
}
