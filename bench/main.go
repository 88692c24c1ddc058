// Command bench is the repository's one repeatable benchmark: five
// single-P, fixed-op-count workloads driven through the HTTP handler of
// the real serving stack, with exact block counts and, in traced mode, a
// per-layer breakdown and a stack peel. See README.md for the method.
//
//	bash bench/run.sh                        all five workloads, untraced
//	bash bench/run.sh -workload maintain     one workload
//	bash bench/run.sh -trace 1               per-layer metrics instead
//	bash bench/run.sh -compare A B           judge two sets of result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// benchmarkFile is BENCHMARK.json: the metric names, directions and
// regression bounds this harness must emit and -compare judges against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json (the tests run from bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// passesFor maps the -seconds budget to a pass count. Passes are fixed
// work, not fixed time, so the count has to follow from the flag alone:
// a pass is sized to take about 1.1 s on the reference host, and a run
// makes between 3 and 9 of them.
func passesFor(seconds int) int {
	p := seconds * 9 / 10
	if p < 3 {
		p = 3
	}
	if p > 9 {
		p = 9
	}
	return p
}

// resultFile is what -out writes and -compare reads: one run.
type resultFile struct {
	Provenance provenance       `json:"provenance"`
	Traced     bool             `json:"traced"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "comma-separated workloads to run (default: all five)")
	seed := fs.Int64("seed", 1, "the only workload input: dataset, op sequences and deltas derive from it")
	seconds := fs.Int("seconds", 10, "measurement budget per workload; fixes the number of timed passes (9 at 10 s)")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
	smoke := fs.Bool("smoke", false, "small size (128x128 stores, 2 passes) for tests")
	dir := fs.String("dir", "", "directory for the stores (default: .bench_build/stores in the checkout, or /dev/shm when only that is a tmpfs)")
	out := fs.String("out", "", "also write the full result, with provenance, to this JSON file")
	compare := fs.Bool("compare", false, "compare two sets of result files: -compare A B (files, directories or comma-separated lists)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One P: with two, GC workers and the client fight for the second vCPU
	// of a shared host and identical passes spread by 2x.
	runtime.GOMAXPROCS(1)

	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two sides, got %d", fs.NArg())
		}
		return compareSets(os.Stdout, bf, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	var sps []spec
	if *workload == "" {
		sps = specs
	} else {
		for _, name := range strings.Split(*workload, ",") {
			sp, ok := specByName(name)
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			sps = append(sps, sp)
		}
	}
	sz := fullSize(passesFor(*seconds))
	if *smoke {
		sz = smokeSize
	}
	storeDir, cleanup, err := makeStoreDir(root, *dir)
	if err != nil {
		return err
	}
	defer cleanup()

	res := resultFile{Traced: *trace != 0}
	res.Provenance = gatherProvenance(root, storeDir, *seed, sz)
	if res.Traced {
		res.Workloads, err = measureTraced(sps, sz, *seed, storeDir, filepath.Join(root, ".bench_build", "trace"))
	} else {
		res.Workloads, err = measure(sps, sz, *seed, storeDir)
	}
	if err != nil {
		return err
	}
	var refMs []float64
	for _, w := range res.Workloads {
		refMs = append(refMs, w.HostRefMs...)
	}
	res.Provenance.HostRefMedianMs = medianOf(refMs)
	printReport(os.Stdout, bf, &res)
	if *out != "" {
		raw, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printFinalLine(os.Stdout, &res)
}

// printReport prints every metric by name with its unit, one table per
// workload, in BENCHMARK.json's order.
func printReport(w *os.File, bf *benchmarkFile, res *resultFile) {
	p := res.Provenance
	fmt.Fprintf(w, "bench: seed %d, %d timed passes, GOMAXPROCS %d, %s, %s x%d\n", p.Seed, p.Passes, p.GOMAXPROCS, p.GoVersion, p.CPUModel, p.NumCPU)
	fmt.Fprintf(w, "stores under %s (tmpfs: %v), host.ref_ms %.3f, git %s\n", p.StoreDir, p.StoreDirTmpfs, p.HostRefMedianMs, p.GitSHA)
	defs := bf.EndToEnd
	if res.Traced {
		defs = bf.PerLayer
	}
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n%s: %d ops/pass, %d attempted, %d failed, counts identical across passes: %v\n", wr.Name, wr.OpsPerPass, wr.Attempted, wr.Failed, wr.CountsIdentical)
		for _, d := range defs {
			if m, ok := wr.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintln(w)
}

// printFinalLine prints the one-object summary the benchmark contract asks
// for as the last line of standard output. With several workloads in one
// invocation the metric names are prefixed with the workload's.
func printFinalLine(w *os.File, res *resultFile) error {
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, wr := range res.Workloads {
		final.Correct = final.Correct && wr.Correct
		final.Attempted += wr.Attempted
		final.Failed += wr.Failed
		for name, m := range wr.Metrics {
			if len(res.Workloads) > 1 {
				name = wr.Name + "/" + name
			}
			final.Metrics[name] = m
		}
	}
	raw, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}
