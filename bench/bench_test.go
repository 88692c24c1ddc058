package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/storage"
)

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		a := hashOps(genOps(sp, smokeSize, 1))
		if b := hashOps(genOps(sp, smokeSize, 1)); a != b {
			t.Errorf("%s: seed 1 hashed to %s, then %s", sp.Name, a, b)
		}
		if c := hashOps(genOps(sp, smokeSize, 2)); a == c {
			t.Errorf("%s: seeds 1 and 2 both hash to %s", sp.Name, a)
		}
		if n := len(genOps(sp, fullSize(9), 1)); n != sp.Ops {
			t.Errorf("%s: %d ops per pass, spec says %d", sp.Name, n, sp.Ops)
		}
	}
}

func TestQuietThirdPoolsTheFastestPasses(t *testing.T) {
	// Nine passes of four ops; pass i's ops all take base+i. The quiet
	// third is passes 0,1,2 however they are ordered.
	var spans [][]int64
	for _, i := range []int64{5, 0, 7, 2, 8, 1, 6, 3, 4} {
		v := 1000 * (10 + i)
		spans = append(spans, []int64{v, v, v, v})
	}
	got := summarize(spans)
	if got.Samples != 12 {
		t.Fatalf("pooled %d samples, want 12", got.Samples)
	}
	quiet := map[int]bool{}
	for _, i := range got.Quiet {
		quiet[i] = true
	}
	if !quiet[1] || !quiet[5] || !quiet[3] {
		t.Errorf("quiet passes %v, want the three fastest (1, 5, 3)", got.Quiet)
	}
	// 12 ops in 4*(10+11+12) us.
	if want := 12 / 132e-6; math.Abs(got.OpsPerS-want) > 1e-6*want {
		t.Errorf("ops_per_s %v, want %v", got.OpsPerS, want)
	}
	if got.P50us != 11 {
		t.Errorf("p50 %v us, want 11", got.P50us)
	}
	if n := len(quietThird(make([]int64, 6))); n != 2 {
		t.Errorf("quiet third of 6 passes has %d, want 2", n)
	}
}

func TestPercentileRule(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("p%v of 1..1000 = %d, want %d", 100*tc.p, got, tc.want)
		}
	}
	// The tail is p99 only with at least 100 samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{{36000, 0.99}, {10000, 0.99}, {9999, 0.95}, {6000, 0.95}, {768, 0.95}, {40, 0.95}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tail percentile for %d samples = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
}

func TestVerdicts(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", tight, tight, true, "agree"},
		{"slower by 20%", tight, []float64{120, 121, 119, 120, 120}, true, "regressed"},
		{"faster by 20%", tight, []float64{80, 81, 79, 80, 80}, true, "agree"},
		{"throughput down 20%", tight, []float64{80, 81, 79, 80, 80}, false, "regressed"},
		{"noisy overlap", []float64{100, 140, 80, 120, 90}, []float64{118, 150, 85, 130, 95}, true, "unresolved"},
		{"noisy but disjoint and better", []float64{100, 140, 90, 120, 95}, []float64{50, 70, 40, 60, 45}, true, "agree"},
	} {
		if got, _, _ := verdict(tc.a, tc.b, tc.lower, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestTimingDeviceForwardsEveryCapability(t *testing.T) {
	dir := t.TempDir()
	file, err := storage.NewFileStore(filepath.Join(dir, "file.dat"), 8)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := storage.NewMappedStore(filepath.Join(dir, "mapped.dat"), 8)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, dev := range []storage.BlockStore{file, mapped} {
		wrapped := wrapTimed(dev, tr) // panics on a mismatch; asserted again below
		want, got := deviceCapabilities(dev), deviceCapabilities(wrapped)
		for name, has := range want {
			if got[name] != has {
				t.Errorf("%T: %s is %v on the device, %v on its timing wrapper", dev, name, has, got[name])
			}
		}
		block := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		buf := make([]float64, 8)
		if err := wrapped.WriteBlock(3, block); err != nil {
			t.Fatal(err)
		}
		if err := storage.ReadBlocksOf(wrapped, []int{3}, [][]float64{buf}); err != nil {
			t.Fatal(err)
		}
		if buf[7] != 8 {
			t.Errorf("%T: read back %v", dev, buf)
		}
		if fv, ok := wrapped.(storage.FrameViewer); ok {
			views, err := fv.ViewFrames([]int{3})
			if err != nil {
				t.Fatal(err)
			}
			if views.Len() != 1 || len(views.Frame(0)) != 64 {
				t.Errorf("%T: frame view of block 3 has %d frames", dev, views.Len())
			}
			views.Release()
		}
		if err := wrapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.dev.WriteBlocks != 2 || tr.dev.ReadBlocks != 3 {
		t.Errorf("device totals %+v, want 2 blocks written and 3 read", tr.dev)
	}
}

// TestSmoke runs all five workloads and the traced mode at the smoke size
// and checks the run against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q (or their reasons differ)", i, w.Name, specs[i].Name)
		}
	}
	check := func(t *testing.T, results []workloadResult, defs []metricDef) {
		t.Helper()
		if len(results) != len(specs) {
			t.Fatalf("%d workloads ran, want %d", len(results), len(specs))
		}
		for _, w := range results {
			if w.Failed != 0 || !w.Correct || w.Attempted == 0 {
				t.Errorf("%s: %d of %d ops failed", w.Name, w.Failed, w.Attempted)
			}
			if !w.CountsIdentical {
				t.Errorf("%s: counts differ between passes", w.Name)
			}
			for _, d := range defs {
				m, ok := w.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s is not emitted", w.Name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, d.Name, m.Value)
				case d.Bound > 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be zero", w.Name, d.Name, m.Value)
				}
			}
			if len(w.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", w.Name, len(w.Metrics), len(defs))
			}
		}
	}
	t.Run("untraced", func(t *testing.T) {
		results, err := measure(specs, smokeSize, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		check(t, results, bf.EndToEnd)
	})
	t.Run("traced", func(t *testing.T) {
		results, err := measureTraced(specs, smokeSize, 1, t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		check(t, results, bf.PerLayer)
		for _, w := range results {
			if w.Name == "query_warm" {
				for _, name := range []string{"device.read_blocks_per_op", "device.write_blocks_per_op", "device.syncs_per_op"} {
					if v := w.Metrics[name].Value; v != 0 {
						t.Errorf("query_warm: %s = %v, the device should be idle", name, v)
					}
				}
			}
		}
	})
}

func TestCompareExitsNonZeroOnRegression(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		res := resultFile{Workloads: []workloadResult{{Name: "maintain", Metrics: map[string]metric{
			"ops_per_s": {opsPerS, "1/s"}, "blocks_touched_per_op": {15.25, "blocks"},
		}}}}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 1000), write("same.json", 990), write("slow.json", 700)
	var out bytes.Buffer
	if err := compareSets(&out, bf, base, same); err != nil {
		t.Errorf("1000 vs 990 ops/s: %v\n%s", err, out.String())
	}
	if err := compareSets(&out, bf, base, slow); !errors.Is(err, errRegressed) {
		t.Errorf("1000 vs 700 ops/s: got %v, want a regression", err)
	}
}
