package main

import (
	"math"
	"sort"
	"time"
)

// quietThird returns the indices of the ceil(n/3) passes with the smallest
// summed op spans. Interference on a shared host only ever slows a pass, so
// the fastest third is the least disturbed sample of the same fixed work.
func quietThird(passSpanSums []int64) []int {
	idx := make([]int, len(passSpanSums))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return passSpanSums[idx[a]] < passSpanSums[idx[b]] })
	return idx[:(len(idx)+2)/3]
}

// percentile is the nearest-rank p-quantile of an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// tailQuantile picks the tail percentile for n pooled samples: p99 when at
// least 100 samples lie beyond it, else p95. With fewer, p99 is set by a
// handful of ops that met a GC cycle (60 samples beyond p99 spread
// maintain's tail by 19 % between runs).
func tailQuantile(n int) float64 {
	if float64(n)*(1-0.99) >= 100 {
		return 0.99
	}
	return 0.95
}

// timing is the quiet-third summary of one workload's timed passes.
type timing struct {
	OpsPerS float64
	P50us   float64
	Tailus  float64
	TailPct float64 // which percentile Tailus is
	Samples int     // pooled spans behind the percentiles
	Quiet   []int   // pass indices pooled
}

// summarize pools the per-op spans (ns) of the quiet third of the passes.
func summarize(passSpans [][]int64) timing {
	sums := make([]int64, len(passSpans))
	for i, spans := range passSpans {
		for _, s := range spans {
			sums[i] += s
		}
	}
	quiet := quietThird(sums)
	var pooled []int64
	var total int64
	for _, i := range quiet {
		pooled = append(pooled, passSpans[i]...)
		total += sums[i]
	}
	sort.Slice(pooled, func(a, b int) bool { return pooled[a] < pooled[b] })
	t := timing{Samples: len(pooled), Quiet: quiet, TailPct: tailQuantile(len(pooled))}
	if total > 0 {
		t.OpsPerS = float64(len(pooled)) / (float64(total) / 1e9)
	}
	t.P50us = float64(percentile(pooled, 0.50)) / 1e3
	t.Tailus = float64(percentile(pooled, t.TailPct)) / 1e3
	return t
}

// quartiles returns Q1, median, Q3 by the exclusive method, the one
// Python's statistics.quantiles(values, n=4) uses, so -compare judges runs
// the way the benchmark's contract does.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}

func medianOf(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// bestOf runs fn reps times and returns the fastest run's duration, or the
// first error.
func bestOf(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		begin := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(begin); d < best {
			best = d
		}
	}
	return best, nil
}
