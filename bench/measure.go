package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named value of a result, with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many times set-up runs per workload; setup_s is the
// median, so one disturbed build does not move it.
const setupRepeats = 3

// workloadResult is one workload's share of a result file.
type workloadResult struct {
	Name       string `json:"name"`
	Correct    bool   `json:"correct"`
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	OpsPerPass int    `json:"ops_per_pass"`
	Passes     int    `json:"timed_passes"`
	OpsHash    string `json:"ops_hash"`
	// CountsIdentical reports that every exact count (cache hits, block
	// reads and writes, syncs, commits, flips, stored bytes) was the same
	// in each timed pass.
	CountsIdentical bool              `json:"counts_identical"`
	Metrics         map[string]metric `json:"metrics"`
	// What the timing metrics were computed from.
	TailPercentile float64    `json:"tail_percentile"`
	PooledSamples  int        `json:"pooled_samples"`
	QuietPasses    []int      `json:"quiet_passes"`
	PassWallS      []float64  `json:"pass_wall_s"`
	PassSpanS      []float64  `json:"pass_span_s"` // summed op spans per pass
	PassCounts     []counters `json:"pass_counts"`
	SetupS         []float64  `json:"setup_s_repeats"`
	HostRefMs      []float64  `json:"host_ref_ms"`
}

// hostRef is a fixed harness-owned kernel run between passes: a Haar-like
// butterfly over 64Ki floats and a pointer chase through a 4 MiB cycle. It
// measures the host, not the system, so a result whose host.ref_ms differs
// from the baseline's was taken on a faster, slower or busier machine.
type hostRef struct {
	vals []float64
	next []int32
	sink float64
}

func newHostRef() *hostRef {
	h := &hostRef{vals: make([]float64, 1<<16), next: make([]int32, 1<<20)}
	rng := rand.New(rand.NewSource(42))
	for i := range h.vals {
		h.vals[i] = rng.Float64()
	}
	// Sattolo's algorithm: one cycle through every slot.
	for i := range h.next {
		h.next[i] = int32(i)
	}
	for i := len(h.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		h.next[i], h.next[j] = h.next[j], h.next[i]
	}
	return h
}

func (h *hostRef) runMs() float64 {
	begin := time.Now()
	for rep := 0; rep < 2; rep++ {
		for half := len(h.vals) / 2; half >= 1; half /= 2 {
			for i := 0; i < half; i++ {
				a, b := h.vals[2*i], h.vals[2*i+1]
				h.vals[i], h.vals[half+i] = (a+b)/2, (a-b)/2+0.5
			}
		}
	}
	p := int32(0)
	for i := 0; i < len(h.next)/4; i++ {
		p = h.next[p]
	}
	h.sink += float64(p) + h.vals[0]
	return float64(time.Since(begin)) / 1e6
}

// job is one workload being measured: its kept setup, its runner and what
// the passes produced so far.
type job struct {
	sp     spec
	set    *setup
	run    *runner
	setupS []float64
	warm   passResult
	passes []passResult
	refMs  []float64
}

// measure runs the untraced benchmark for the given workloads. Set-up runs
// setupRepeats times per workload (the last build is the one measured on);
// then one untimed warm-up pass and sz.Passes timed passes of the same op
// sequence, the workloads' passes interleaved round-robin so each workload
// samples the whole run rather than one window of it.
func measure(sps []spec, sz size, seed int64, storeDir string) ([]workloadResult, error) {
	ref := newHostRef()
	jobs := make([]*job, 0, len(sps))
	defer func() {
		for _, j := range jobs {
			_ = j.set.close() // scratch stores; a failed removal must not mask the result
		}
	}()
	for _, sp := range sps {
		j := &job{sp: sp}
		for k := 0; k < setupRepeats; k++ {
			set, err := newSetup(filepath.Join(storeDir, fmt.Sprintf("%s-%d", sp.Name, k)), sp, sz, seed, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", sp.Name, err)
			}
			j.setupS = append(j.setupS, set.totalS())
			if k < setupRepeats-1 {
				if err := set.close(); err != nil {
					return nil, fmt.Errorf("%s: set-up: %w", sp.Name, err)
				}
				continue
			}
			j.set = set
			jobs = append(jobs, j)
		}
		run, err := newRunner(sp, sz, seed, j.set, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		j.run = run
	}
	for p := 0; p <= sz.Passes; p++ {
		for _, j := range jobs {
			res, err := j.run.pass(viaHandler)
			if err != nil {
				return nil, fmt.Errorf("%s: pass %d: %w", j.sp.Name, p, err)
			}
			if p == 0 {
				j.warm = res
			} else {
				j.passes = append(j.passes, res)
			}
			j.refMs = append(j.refMs, ref.runMs())
		}
	}
	out := make([]workloadResult, len(jobs))
	for i, j := range jobs {
		out[i] = j.result(sz)
	}
	return out, nil
}

// userBytes is the user data one pass's stored bytes are divided by: both
// served cubes, or everything the ingest pass appended.
func userBytes(sp spec, sz size) float64 {
	if sp.Ingest {
		return float64(ingestRows * ingestSlabs * sp.opsPerPass(sz) * 8)
	}
	return float64(2 * sz.Edge * sz.Edge * 8)
}

func (j *job) result(sz size) workloadResult {
	ops := len(j.run.ops)
	res := workloadResult{
		Name: j.sp.Name, OpsPerPass: ops, Passes: len(j.passes), OpsHash: hashOps(j.run.ops),
		Attempted: ops * (len(j.passes) + 1), Failed: j.warm.Failed,
		CountsIdentical: true, SetupS: j.setupS, HostRefMs: j.refMs,
	}
	spans := make([][]int64, len(j.passes))
	var total counters
	for i, p := range j.passes {
		spans[i] = p.Spans
		res.Failed += p.Failed
		res.PassWallS = append(res.PassWallS, p.WallS)
		res.PassSpanS = append(res.PassSpanS, float64(spanSum(p))/1e9)
		res.PassCounts = append(res.PassCounts, p.Counts)
		total = total.add(p.Counts)
		if p.Counts.exact(j.sp) != j.passes[0].Counts.exact(j.sp) || p.StoredBytes != j.passes[0].StoredBytes {
			res.CountsIdentical = false
		}
	}
	res.Correct = res.Failed == 0
	t := summarize(spans)
	res.TailPercentile, res.PooledSamples, res.QuietPasses = t.TailPct, t.Samples, t.Quiet
	sort.Ints(res.QuietPasses)
	n := float64(ops * len(j.passes))
	last := j.passes[len(j.passes)-1]
	res.Metrics = map[string]metric{
		"setup_s":                    {medianOf(j.setupS), "s"},
		"ops_per_s":                  {t.OpsPerS, "1/s"},
		"p50_us":                     {t.P50us, "us"},
		"tail_us":                    {t.Tailus, "us"},
		"blocks_touched_per_op":      {float64(total.blocksTouched()) / n, "blocks"},
		"allocs_per_op":              {float64(total.Mallocs) / n, "count"},
		"stored_bytes_per_user_byte": {float64(last.StoredBytes) / userBytes(j.sp, sz), "ratio"},
	}
	return res
}
