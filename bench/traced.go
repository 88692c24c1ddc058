package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

const (
	tracePasses = 3   // traced (and untraced reference) passes per workload
	allocProbe  = 200 // direct RangeSum calls per form behind store.rangesum_allocs
)

// measureTraced is the -trace 1 run. Per workload it builds two setups, one
// untraced and one with the timing device under both stores, and alternates
// their passes, so trace.overhead_frac compares like with like. A twin pass
// then replays the ops as direct store calls. The peel, kernel and paper
// rows are measured once and reported with every workload.
func measureTraced(sps []spec, sz size, seed int64, storeDir, traceDir string) ([]workloadResult, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	ref := newHostRef()
	var shared map[string]metric
	var out []workloadResult
	for _, sp := range sps {
		res, set, err := traceWorkload(sp, sz, seed, storeDir, traceDir, ref)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name, err)
		}
		if shared == nil {
			shared, err = sharedRows(set, filepath.Join(storeDir, "peel"), seed, sz)
		}
		if cerr := set.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		for name, m := range shared {
			res.Metrics[name] = m
		}
		out = append(out, res)
	}
	return out, nil
}

func sharedRows(set *setup, peelDir string, seed int64, sz size) (map[string]metric, error) {
	rows, err := stackPeel(peelDir, seed, sz)
	if err != nil {
		return nil, err
	}
	kernels, err := kernelRows(set.src, seed, sz)
	if err != nil {
		return nil, err
	}
	paper, err := paperRows(set, seed, sz)
	if err != nil {
		return nil, err
	}
	for _, more := range []map[string]metric{kernels, paper} {
		for name, m := range more {
			rows[name] = m
		}
	}
	return rows, nil
}

// traceWorkload returns the workload's per-layer metrics and the untraced
// setup, still open, for the rows that read off it.
func traceWorkload(sp spec, sz size, seed int64, storeDir, traceDir string, ref *hostRef) (_ workloadResult, _ *setup, err error) {
	plainSet, err := newSetup(filepath.Join(storeDir, sp.Name+"-plain"), sp, sz, seed, nil)
	if err != nil {
		return workloadResult{}, nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if err != nil {
			_ = plainSet.close() // the first error is the one to report
		}
	}()
	tr := newTracer()
	tracedSet, err := newSetup(filepath.Join(storeDir, sp.Name+"-traced"), sp, sz, seed, tr)
	if err != nil {
		return workloadResult{}, nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer func() {
		if cerr := tracedSet.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	plain, err := newRunner(sp, sz, seed, plainSet, nil)
	if err != nil {
		return workloadResult{}, nil, err
	}
	traced, err := newRunner(sp, sz, seed, tracedSet, tr)
	if err != nil {
		return workloadResult{}, nil, err
	}

	ops := len(plain.ops)
	res := workloadResult{Name: sp.Name, OpsPerPass: ops, Passes: tracePasses, OpsHash: hashOps(plain.ops), CountsIdentical: true}
	var plainRuns, tracedRuns []passResult
	var warm passResult
	for p := 0; p <= tracePasses; p++ {
		for _, r := range []*runner{plain, traced} {
			pr, err := r.pass(viaHandler)
			if err != nil {
				return workloadResult{}, nil, fmt.Errorf("pass %d: %w", p, err)
			}
			res.Attempted += ops
			res.Failed += pr.Failed
			res.HostRefMs = append(res.HostRefMs, ref.runMs())
			switch {
			case p == 0 && r == plain:
				warm = pr
			case p == 0:
			case r == plain:
				plainRuns = append(plainRuns, pr)
			default:
				tracedRuns = append(tracedRuns, pr)
			}
		}
	}
	twin, err := traced.pass(direct)
	if err != nil {
		return workloadResult{}, nil, fmt.Errorf("twin pass: %w", err)
	}
	res.Attempted += ops
	res.Failed += twin.Failed
	res.Correct = res.Failed == 0
	for _, p := range tracedRuns {
		if p.Counts.exact(sp) != tracedRuns[0].Counts.exact(sp) {
			res.CountsIdentical = false
		}
	}
	res.Metrics = layerMetrics(traced, plainSet, warm, plainRuns, tracedRuns, twin)
	res.Metrics["host.ref_ms"] = metric{medianOf(res.HostRefMs), "ms"}
	if err := tr.writeSpans(filepath.Join(traceDir, sp.Name+".spans.ndjson")); err != nil {
		return workloadResult{}, nil, err
	}
	return res, plainSet, nil
}

// spanSum adds up a pass's op spans.
func spanSum(p passResult) (total int64) {
	for _, s := range p.Spans {
		total += s
	}
	return total
}

// layerMetrics turns the passes into the per-layer metrics of one
// workload. Means are over ops of the named kind; a metric whose layer the
// workload does not exercise reads 0.
func layerMetrics(r *runner, plainSet *setup, warm passResult, plain, traced []passResult, twin passResult) map[string]metric {
	m := map[string]metric{}
	n := float64(len(r.ops) * len(traced))

	// Requests come from the traced handler passes, direct calls from the
	// twin, merges (direct in both) from all of them.
	twinOnly := []passResult{twin}
	served := func(o *op) bool { return o.Kind != opMerge }
	self := 0.0
	if req, dir := r.meanUs(traced, served), r.meanUs(twinOnly, served); req > 0 && dir > 0 {
		self = req - dir
	}
	m["server.self_us"] = metric{self, "us"}
	for f, name := range formNames {
		of := func(kind opKind) func(*op) bool {
			return func(o *op) bool { return o.Kind == kind && o.Form == f }
		}
		m["store.point_us."+name] = metric{r.meanUs(twinOnly, of(opPoint)), "us"}
		m["store.rangesum_us."+name] = metric{r.meanUs(twinOnly, of(opRange)), "us"}
		m["store.merge_us."+name] = metric{r.meanUs(append(twinOnly, traced...), of(opMerge)), "us"}
		m["store.rangesum_allocs."+name] = metric{r.rangeSumAllocs(f), "count"}
	}

	var c counters
	var dev deviceTotals
	for _, p := range traced {
		c, dev = c.add(p.Counts), dev.add(p.Device)
	}
	m["epoch.flips_per_op"] = metric{float64(c.Flips) / n, "count"}
	m["journal.commits_per_op"] = metric{float64(c.Commits) / n, "count"}
	physOverLogical := 0.0
	if !r.sp.Ingest {
		var phys, logical float64
		for _, st := range r.set.stores {
			if es, ok := st.EpochStats(); ok {
				phys += float64(es.PhysBlocks)
				logical += float64(st.NumBlocks())
			}
		}
		physOverLogical = phys / logical
	}
	m["epoch.phys_over_logical"] = metric{physOverLogical, "ratio"}
	hitRate := 0.0
	if c.Hits+c.Misses > 0 {
		hitRate = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	m["cache.hit_rate"] = metric{hitRate, "ratio"}
	m["cache.loads_per_op"] = metric{float64(c.Loads) / n, "count"}
	m["cache.evictions_per_op"] = metric{float64(c.Evictions) / n, "count"}

	m["device.read_calls_per_op"] = metric{float64(dev.ReadCalls) / n, "count"}
	m["device.read_blocks_per_op"] = metric{float64(dev.ReadBlocks) / n, "blocks"}
	m["device.read_us_per_op"] = metric{float64(dev.ReadNs) / n / 1e3, "us"}
	m["device.write_blocks_per_op"] = metric{float64(dev.WriteBlocks) / n, "blocks"}
	m["device.write_us_per_op"] = metric{float64(dev.WriteNs) / n / 1e3, "us"}
	m["device.syncs_per_op"] = metric{float64(dev.Syncs) / n, "count"}
	// User bytes the traced passes wrote: merged deltas, or ingested slabs.
	var userWritten float64
	for _, o := range r.ops {
		switch o.Kind {
		case opMerge:
			userWritten += mergeEdge * mergeEdge * 8
		case opIngest:
			userWritten += ingestSlabs * ingestRows * 8
		}
	}
	userWritten *= float64(len(traced))
	amp := 0.0
	if userWritten > 0 {
		amp = float64(dev.WriteBytes) / userWritten
	}
	m["device.bytes_written_per_user_byte"] = metric{amp, "ratio"}

	ing := map[string]float64{}
	if last := traced[len(traced)-1].Ingest; last != nil {
		if last.Groups > 0 {
			ing["slabs_per_group"] = float64(last.CommittedSlabs) / float64(last.Groups)
		}
		ing["commit_p50_us"] = r.tr.commitP50us()
		ing["expansions"] = float64(last.Expansions)
		if total := last.DeviceIO.Total(); total > 0 {
			ing["expansion_io_frac"] = float64(last.ExpansionIO.Total()) / float64(total)
		}
	}
	m["ingest.slabs_per_group"] = metric{ing["slabs_per_group"], "count"}
	m["ingest.commit_p50_us"] = metric{ing["commit_p50_us"], "us"}
	m["ingest.expansions"] = metric{ing["expansions"], "count"}
	m["ingest.expansion_io_frac"] = metric{ing["expansion_io_frac"], "ratio"}

	// Harness health. Fastest pass against fastest pass, the same
	// estimator the untraced run uses.
	fastest := func(passes []passResult) (best int64) {
		for i, p := range passes {
			if s := spanSum(p); i == 0 || s < best {
				best = s
			}
		}
		return best
	}
	slowest := int64(0)
	var cpu, wall float64
	for _, p := range plain {
		if s := spanSum(p); s > slowest {
			slowest = s
		}
	}
	for _, p := range traced {
		cpu += p.CPUS
		wall += p.WallS
	}
	m["trace.overhead_frac"] = metric{float64(fastest(traced))/float64(fastest(plain)) - 1, "ratio"}
	m["pass.spread_frac"] = metric{float64(slowest)/float64(fastest(plain)) - 1, "ratio"}
	m["pass.cpu_wall_ratio"] = metric{cpu / wall, "ratio"}
	m["warmup_pass_s"] = metric{warm.WallS, "s"}
	m["setup.build_s"] = metric{plainSet.buildS, "s"}
	m["setup.open_warm_s"] = metric{plainSet.openWarmS, "s"}
	return m
}

// meanUs is the mean span, in microseconds, of the ops pick selects, over
// the given passes; 0 when it selects none.
func (r *runner) meanUs(passes []passResult, pick func(*op) bool) float64 {
	var sum, count float64
	for _, p := range passes {
		for i, s := range p.Spans {
			if pick(&r.ops[i]) {
				sum += float64(s)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count / 1e3
}

// rangeSumAllocs is the mean allocation count of a direct RangeSum on one
// store, over the workload's first allocProbe range ops of that form.
func (r *runner) rangeSumAllocs(form int) float64 {
	var probe []*op
	for i := range r.ops {
		if o := &r.ops[i]; o.Kind == opRange && o.Form == form && len(probe) < allocProbe {
			probe = append(probe, o)
		}
	}
	if len(probe) == 0 {
		return 0
	}
	st := r.set.stores[form]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, o := range probe {
		if _, _, err := st.RangeSum(o.P[:], o.Q[:]); err != nil {
			return 0
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(len(probe))
}
