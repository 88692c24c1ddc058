package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// errRegressed makes -compare exit non-zero.
var errRegressed = errors.New("at least one metric regressed")

// loadSet reads one side of a comparison: a result file, a directory of
// them, or a comma-separated list of either.
func loadSet(arg string) ([]resultFile, error) {
	var files []string
	for _, part := range strings.Split(arg, ",") {
		fi, err := os.Stat(part)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			files = append(files, part)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(part, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", arg)
	}
	set := make([]resultFile, len(files))
	for i, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &set[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return set, nil
}

// values collects one metric of one workload over a set's runs.
func values(set []resultFile, workload, name string) []float64 {
	var out []float64
	for _, run := range set {
		for _, w := range run.Workloads {
			if m, ok := w.Metrics[name]; ok && w.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict judges side B against side A for one metric. worse is the share
// of A's median by which B's median is worse (negative: better); spread is
// the wider of the two sides' interquartile ranges over their medians.
//
//	agree       B is not worse than A by more than the bound
//	regressed   it is, and the runs resolve a change of that size
//	unresolved  the run-to-run spread exceeds the bound, so the medians
//	            cannot show it either way, unless the two sides do not
//	            overlap at all
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (v string, worse, spread float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
		spread = (q3a - q1a) / math.Abs(ma)
	}
	if mb != 0 {
		spread = math.Max(spread, (q3b-q1b)/math.Abs(mb))
	}
	if !lowerIsBetter {
		worse = -worse
	}
	if spread > bound {
		sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		allBetter, allWorse := sb[len(sb)-1] < sa[0], sb[0] > sa[len(sa)-1]
		if !lowerIsBetter {
			allBetter, allWorse = allWorse, allBetter
		}
		switch {
		case allBetter:
			return "agree", worse, spread
		case allWorse && worse > bound:
			return "regressed", worse, spread
		}
		return "unresolved", worse, spread
	}
	if worse > bound {
		return "regressed", worse, spread
	}
	return "agree", worse, spread
}

// compareSets prints, per workload and metric, each side's median and
// quartiles and a verdict against the bound BENCHMARK.json fixes. Metrics
// without a bound (the per-layer ones) are listed without a verdict.
func compareSets(w io.Writer, bf *benchmarkFile, argA, argB string) error {
	a, err := loadSet(argA)
	if err != nil {
		return err
	}
	b, err := loadSet(argB)
	if err != nil {
		return err
	}
	if a[0].Traced != b[0].Traced {
		return fmt.Errorf("cannot compare a traced set with an untraced one")
	}
	defs := bf.EndToEnd
	if a[0].Traced {
		defs = bf.PerLayer
	}
	fmt.Fprintf(w, "A: %d runs (%s, git %s, host.ref_ms %.3f)\n", len(a), argA, a[0].Provenance.GitSHA, a[0].Provenance.HostRefMedianMs)
	fmt.Fprintf(w, "B: %d runs (%s, git %s, host.ref_ms %.3f)\n", len(b), argB, b[0].Provenance.GitSHA, b[0].Provenance.HostRefMedianMs)
	regressed := 0
	for _, wl := range bf.Workloads {
		header := false
		for _, d := range defs {
			va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "\n%s\n  %-28s %14s %27s %14s %27s %9s %7s  %s\n", wl.Name, "metric", "A median", "[q1, q3]", "B median", "[q1, q3]", "B worse", "bound", "verdict")
				header = true
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			v, worse, _ := verdict(va, vb, d.Better == "lower", d.Bound)
			switch {
			case d.Bound == 0:
				v = "-"
			case v == "regressed":
				regressed++
			}
			fmt.Fprintf(w, "  %-28s %14.4f [%12.4f,%12.4f] %14.4f [%12.4f,%12.4f] %+8.2f%% %6.1f%%  %s\n",
				d.Name, ma, q1a, q3a, mb, q1b, q3b, 100*worse, 100*d.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload x metric pairs: %w", regressed, errRegressed)
	}
	return nil
}
