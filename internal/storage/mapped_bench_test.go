package storage

import (
	"path/filepath"
	"testing"
)

// The mapped benchmarks pair with the FileStore ones in
// batch_bench_test.go (same block count, block size, and access
// patterns) so one run puts the two stores side by side. Warm
// reads are the headline: once the pages are faulted in, a mapped batch
// read is a pure decode out of the page cache with zero read syscalls,
// while FileStore pays one pread memcpy per 64-block run.

func benchMappedStore(b *testing.B) (*MappedStore, []int, [][]float64) {
	b.Helper()
	ms, err := NewMappedStore(filepath.Join(b.TempDir(), "bench.dat"), benchBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	ids := make([]int, benchBlocks)
	frames := SliceFrames(make([]float64, benchBlocks*benchBlockSize), benchBlocks, benchBlockSize)
	for i := range ids {
		ids[i] = i
		for k := range frames[i] {
			frames[i][k] = float64(i*benchBlockSize + k)
		}
	}
	if err := ms.WriteBlocks(ids, frames); err != nil {
		b.Fatal(err)
	}
	// Warm the mapping so the timed region measures steady-state reads,
	// exactly as the page cache is warm for the FileStore benchmarks.
	if err := ms.ReadBlocks(ids, frames); err != nil {
		b.Fatal(err)
	}
	return ms, ids, frames
}

func reportMappedCounters(b *testing.B, ms *MappedStore, preads0, pwrites0, mapped0 int64) {
	b.Helper()
	preads, pwrites := ms.Syscalls()
	b.ReportMetric(float64(preads-preads0)/float64(b.N), "preads/op")
	b.ReportMetric(float64(pwrites-pwrites0)/float64(b.N), "pwrites/op")
	b.ReportMetric(float64(ms.MappedReads()-mapped0)/float64(b.N), "mapped_reads/op")
}

func BenchmarkMappedStoreRead(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		ms, ids, frames := benchMappedStore(b)
		preads0, pwrites0 := ms.Syscalls()
		mapped0 := ms.MappedReads()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ms.ReadBlocks(ids, frames); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportMappedCounters(b, ms, preads0, pwrites0, mapped0)
	})
	b.Run("looped", func(b *testing.B) {
		ms, ids, frames := benchMappedStore(b)
		preads0, pwrites0 := ms.Syscalls()
		mapped0 := ms.MappedReads()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, id := range ids {
				if err := ms.ReadBlock(id, frames[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		reportMappedCounters(b, ms, preads0, pwrites0, mapped0)
	})
}

func BenchmarkMappedStoreWrite(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		ms, ids, frames := benchMappedStore(b)
		preads0, pwrites0 := ms.Syscalls()
		mapped0 := ms.MappedReads()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ms.WriteBlocks(ids, frames); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportMappedCounters(b, ms, preads0, pwrites0, mapped0)
	})
	b.Run("looped", func(b *testing.B) {
		ms, ids, frames := benchMappedStore(b)
		preads0, pwrites0 := ms.Syscalls()
		mapped0 := ms.MappedReads()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, id := range ids {
				if err := ms.WriteBlock(id, frames[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		reportMappedCounters(b, ms, preads0, pwrites0, mapped0)
	})
}

// BenchmarkMappedVsFileWarmRead runs the two stores' warm batch-read
// paths under one benchmark name so a single `-bench` invocation yields
// the mapped-over-file warm-read speedup ratio.
func BenchmarkMappedVsFileWarmRead(b *testing.B) {
	b.Run("file", func(b *testing.B) {
		fs, ids, frames := benchFileStore(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.ReadBlocks(ids, frames); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mapped", func(b *testing.B) {
		ms, ids, frames := benchMappedStore(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ms.ReadBlocks(ids, frames); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Checksummed over each store: the stack serving.go actually mounts.
	b.Run("checksummed-file", func(b *testing.B) {
		fs, err := NewFileStore(filepath.Join(b.TempDir(), "cf.dat"), benchBlockSize+ChecksumOverhead)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { fs.Close() })
		benchChecksummedRead(b, fs)
	})
	b.Run("checksummed-mapped", func(b *testing.B) {
		ms, err := NewMappedStore(filepath.Join(b.TempDir(), "cm.dat"), benchBlockSize+ChecksumOverhead)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ms.Close() })
		benchChecksummedRead(b, ms)
	})
}

func benchChecksummedRead(b *testing.B, inner BlockStore) {
	b.Helper()
	chk, err := NewChecksummed(inner)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, benchBlocks)
	frames := SliceFrames(make([]float64, benchBlocks*benchBlockSize), benchBlocks, benchBlockSize)
	for i := range ids {
		ids[i] = i
		for k := range frames[i] {
			frames[i][k] = float64(i*benchBlockSize + k)
		}
	}
	if err := chk.WriteBlocks(ids, frames); err != nil {
		b.Fatal(err)
	}
	if err := chk.ReadBlocks(ids, frames); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chk.ReadBlocks(ids, frames); err != nil {
			b.Fatal(err)
		}
	}
}
