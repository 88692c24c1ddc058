package storage

import (
	"strings"
	"testing"
	"time"
)

func TestDiskModelEstimate(t *testing.T) {
	m := DiskModel{SeekTime: 10 * time.Millisecond, TransferPerBlock: time.Millisecond}
	got := m.Estimate(Stats{Reads: 50, Writes: 50})
	want := 100*10*time.Millisecond + 100*time.Millisecond
	if got != want {
		t.Errorf("Estimate = %v, want %v", got, want)
	}
}

func TestDiskModelSequentialFractionSkipsSeeks(t *testing.T) {
	m := DiskModel{SeekTime: 10 * time.Millisecond, TransferPerBlock: time.Millisecond, SequentialFraction: 1}
	got := m.Estimate(Stats{Reads: 100})
	if got != 100*time.Millisecond {
		t.Errorf("fully sequential estimate = %v", got)
	}
}

func TestDisk2005DominatedBySeeks(t *testing.T) {
	m := Disk2005(4096)
	stats := Stats{Reads: 1000}
	est := m.Estimate(stats)
	transferOnly := time.Duration(1000 * float64(m.TransferPerBlock))
	if est < 10*transferOnly {
		t.Errorf("2005 disk should be seek-dominated: est %v, transfer %v", est, transferOnly)
	}
}

func TestDiskModelString(t *testing.T) {
	if !strings.Contains(Disk2005(4096).String(), "seek=") {
		t.Error("String rendering wrong")
	}
}
