package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
	"github.com/shiftsplit/shiftsplit/internal/tile"
	"github.com/shiftsplit/shiftsplit/internal/wavelet"
)

func atoiCell(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("cell %q is not an integer: %v", s, err)
	}
	return v
}

func atofCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a float: %v", s, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "bee"}}
	tb.Add(1, 2.5)
	tb.Add("x", "y")
	txt := tb.String()
	if !strings.Contains(txt, "T\n") || !strings.Contains(txt, "2.500") {
		t.Errorf("text rendering wrong:\n%s", txt)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | bee |") || !strings.Contains(md, "| x | y |") {
		t.Errorf("markdown rendering wrong:\n%s", md)
	}
}

func TestTable1Shapes(t *testing.T) {
	tb, err := Table1(Table1Config{LogN: 7, Dims: 2, ChunkBits: 4, TileBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Tiles must be far fewer than coefficients for the SHIFT rows.
	for _, r := range tb.Rows {
		if r[1] != "SHIFT" {
			continue
		}
		coefs, tiles := atoiCell(t, r[2]), atoiCell(t, r[3])
		if tiles*4 > coefs {
			t.Errorf("%s SHIFT: %d tiles for %d coefficients — tiling not helping", r[0], tiles, coefs)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	tb, err := Table2(Table2Config{LogN: 6, Dims: 2, ChunkBits: 3, TileBits: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	vitter := atoiCell(t, tb.Rows[0][1])
	std := atoiCell(t, tb.Rows[1][1])
	non := atoiCell(t, tb.Rows[3][1])
	if !(non < std && std < vitter) {
		t.Errorf("coefficient I/O ordering wrong: non=%d std=%d vitter=%d", non, std, vitter)
	}
	// The write-once standard engine writes each coefficient, and each
	// block of the standard tiling, exactly once.
	numBlocks := int64(tile.NewStandard([]int{6, 6}, 2).NumBlocks())
	if coefs, blocks := atoiCell(t, tb.Rows[2][1]), atoiCell(t, tb.Rows[2][3]); coefs != 64*64 || blocks != numBlocks {
		t.Errorf("write-once standard: %d coefficients and %d blocks, want %d and %d", coefs, blocks, 64*64, numBlocks)
	}
}

// TestR1IOScalesWithMemory: on Result 1's schedule, larger chunks (more
// memory) mean fewer split I/Os.
func TestR1IOScalesWithMemory(t *testing.T) {
	src := dataset.Dense([]int{64, 64}, 6)
	tiling := tile.NewSequential([]int{64, 64}, 1) // coefficient granularity
	var prev int64 = 1 << 62
	for _, m := range []int{1, 2, 3, 4} {
		counting := storage.NewCounting(storage.NewMemStore(1))
		st, err := tile.NewStore(counting, tiling)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chunkedR1(src, m, st); err != nil {
			t.Fatal(err)
		}
		total := counting.Stats().Total()
		if total > prev {
			t.Errorf("m=%d: I/O %d increased over smaller memory %d", m, total, prev)
		}
		prev = total
	}
}

// TestR1IOTracksPaperFormula: Result 1's measured coefficient I/O stays
// within a small constant factor of N^d/M^d * (M + log(N/M))^d across a
// chunk-size sweep, and its result is the standard transform.
func TestR1IOTracksPaperFormula(t *testing.T) {
	src := dataset.Dense([]int{64, 64}, 20)
	want := wavelet.TransformStandard(src).Data()
	for _, m := range []int{1, 2, 3, 4} {
		counting := storage.NewCounting(storage.NewMemStore(1))
		st, err := tile.NewStore(counting, tile.NewSequential([]int{64, 64}, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chunkedR1(src, m, st); err != nil {
			t.Fatal(err)
		}
		measured := float64(counting.Stats().Total())
		M := float64(int(1) << uint(m))
		logNM := float64(6 - m)
		formula := (4096 / (M * M)) * (M + logNM) * (M + logNM)
		if ratio := measured / formula; ratio < 0.5 || ratio > 4 {
			t.Errorf("m=%d: measured %.0f vs formula %.0f (ratio %.2f) outside [0.5, 4]", m, measured, formula, ratio)
		}
		for i, w := range want {
			if got, err := st.Get([]int{i / 64, i % 64}); err != nil || math.Abs(got-w) > 1e-8 {
				t.Fatalf("m=%d: coefficient %d = %v (%v), want %v", m, i, got, err, w)
			}
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	tb, err := Fig11(Fig11Config{LogN: 4, Dims: 4, ChunkBits: []int{2, 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var prevStd int64 = 1 << 62
	for _, r := range tb.Rows {
		vitter := atoiCell(t, r[1])
		std := atoiCell(t, r[2])
		non := atoiCell(t, r[3])
		if std > prevStd {
			t.Errorf("standard I/O increased with memory: %d -> %d", prevStd, std)
		}
		prevStd = std
		if non > std {
			t.Errorf("non-standard %d above standard %d", non, std)
		}
		_ = vitter
	}
	// At the largest memory both shift-split engines beat Vitter.
	last := tb.Rows[len(tb.Rows)-1]
	if atoiCell(t, last[2]) >= atoiCell(t, last[1]) {
		t.Errorf("standard %s did not beat Vitter %s at max memory", last[2], last[1])
	}
}

func TestFig12Shapes(t *testing.T) {
	tb, err := Fig12(Fig12Config{LogNs: []int{5, 6}, ChunkBits: 3, TileBits: []int{2, 3}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		stdSmall, nonSmall := atoiCell(t, r[1]), atoiCell(t, r[2])
		stdBig, nonBig := atoiCell(t, r[3]), atoiCell(t, r[4])
		if nonSmall >= stdSmall || nonBig >= stdBig {
			t.Errorf("non-standard should beat standard: %v", r)
		}
		if stdBig >= stdSmall || nonBig >= nonSmall {
			t.Errorf("larger tiles should cost fewer blocks: %v", r)
		}
	}
	// Cost grows with dataset size.
	if atoiCell(t, tb.Rows[1][1]) <= atoiCell(t, tb.Rows[0][1]) {
		t.Error("standard cost did not grow with dataset size")
	}
}

// TestFig13Shapes: larger tiles cost fewer blocks, measured and modeled;
// the modeled full rewrite draws the paper's staircase — at least twice the
// month's measured cost wherever the domain doubled, equal to it elsewhere —
// while the measured in-place expansion months stay level with the routine
// ones.
func TestFig13Shapes(t *testing.T) {
	tb, err := Fig13(Fig13Config{Lat: 8, Lon: 8, DaysMonth: 32, Months: 10, TileBits: []int{1, 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	expansions := 0
	var routineMax, expandedMax [2]int64
	for _, r := range tb.Rows {
		measured := [2]int64{atoiCell(t, r[1]), atoiCell(t, r[2])}
		modeled := [2]int64{atoiCell(t, r[3]), atoiCell(t, r[4])}
		if measured[1] >= measured[0] || modeled[1] >= modeled[0] {
			t.Errorf("month %s: larger tiles (%d, model %d) should beat smaller (%d, model %d)", r[0], measured[1], modeled[1], measured[0], modeled[0])
		}
		expanded := r[5] == "true"
		for i := range measured {
			switch {
			case expanded && modeled[i] < 2*measured[i]:
				t.Errorf("month %s: the modeled rewrite %d is no jump over the measured %d", r[0], modeled[i], measured[i])
			case !expanded && modeled[i] != measured[i]:
				t.Errorf("month %s: no doubling, yet the model %d differs from the measured %d", r[0], modeled[i], measured[i])
			}
			if expanded {
				expandedMax[i] = max(expandedMax[i], measured[i])
			} else {
				routineMax[i] = max(routineMax[i], measured[i])
			}
		}
		if expanded {
			expansions++
		}
	}
	if expansions == 0 {
		t.Fatal("no expansion months recorded")
	}
	for i := range routineMax {
		if 10*expandedMax[i] > 11*routineMax[i] {
			t.Errorf("tile column %d: an expansion month costs %d, the costliest routine month %d: the jump is back", i, expandedMax[i], routineMax[i])
		}
	}
}

func TestFig14Shapes(t *testing.T) {
	tb, err := Fig14(Fig14Config{LogN: 12, K: 32, BufBits: []int{1, 3, 5}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := atofCell(t, tb.Rows[0][1])
	if base < 8 {
		t.Errorf("baseline crest cost %g too low for N=2^12", base)
	}
	prev := base
	for _, r := range tb.Rows[1:] {
		cost := atofCell(t, r[1])
		if cost >= prev {
			t.Errorf("buffered crest cost %g did not fall below %g", cost, prev)
		}
		prev = cost
	}
}

func TestStreamMemoryShapes(t *testing.T) {
	tb, err := StreamMemory(DefaultStreamMemory())
	if err != nil {
		t.Fatal(err)
	}
	std := atoiCell(t, tb.Rows[0][1])
	non := atoiCell(t, tb.Rows[1][1])
	if non*4 > std {
		t.Errorf("R5 memory %d not clearly below R4 memory %d", non, std)
	}
}

func TestR6Shapes(t *testing.T) {
	tb, err := R6(R6Config{LogN: 6, TileBits: 2, Levels: []int{1, 3, 5}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		ss := atoiCell(t, r[1])
		full := atoiCell(t, r[3])
		ssCoefs := atoiCell(t, r[4])
		pwCoefs := atoiCell(t, r[5])
		if ss > full {
			t.Errorf("region %s: shift-split blocks %d exceed full %d", r[0], ss, full)
		}
		if ssCoefs >= pwCoefs {
			t.Errorf("region %s: shift-split coefs %d not below pointwise %d", r[0], ssCoefs, pwCoefs)
		}
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Errorf("All returned %d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("table %q has no rows", tb.Title)
		}
	}
}

func TestSparseShapes(t *testing.T) {
	tb, err := SparseTransform(SparseConfig{LogN: 6, ChunkBits: 3, TileBits: 2, OccupiedFracs: []float64{1, 0.25}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	fullStd := atoiCell(t, tb.Rows[0][2])
	sparseStd := atoiCell(t, tb.Rows[1][2])
	if sparseStd*2 > fullStd {
		t.Errorf("quarter occupancy standard I/O %d not well below full %d", sparseStd, fullStd)
	}
	fullNon := atoiCell(t, tb.Rows[0][4])
	sparseNon := atoiCell(t, tb.Rows[1][4])
	if sparseNon*4 > fullNon {
		t.Errorf("quarter occupancy non-standard I/O %d not ~16x below full %d", sparseNon, fullNon)
	}
	if atoiCell(t, tb.Rows[1][3]) == 0 {
		t.Error("no skipped chunks at quarter occupancy")
	}
}

func TestQueryCostShapes(t *testing.T) {
	tb, err := QueryCost(QueryCostConfig{LogN: 6, TileBits: 2, Queries: 80, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	single := atofCell(t, tb.Rows[0][1])
	path := atofCell(t, tb.Rows[0][2])
	seq := atofCell(t, tb.Rows[0][3])
	if single != 1 {
		t.Errorf("scaling-slot point queries average %g blocks, want 1", single)
	}
	if !(path < seq) {
		t.Errorf("tiled path %g should beat sequential %g", path, seq)
	}
	tiledRange := atofCell(t, tb.Rows[1][2])
	seqRange := atofCell(t, tb.Rows[1][3])
	if !(tiledRange < seqRange) {
		t.Errorf("tiled range %g should beat sequential %g", tiledRange, seqRange)
	}
	if after := atofCell(t, tb.Rows[2][1]); after != 1 {
		t.Errorf("after maintenance, scaling-slot point queries average %g blocks, want 1", after)
	}
}

func TestExpansionTimeShapes(t *testing.T) {
	tb, err := ExpansionTime(ExpansionTimeConfig{Months: 12, TileBits: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	mergeBlocks := atoiCell(t, tb.Rows[0][2])
	expandBlocks := atoiCell(t, tb.Rows[1][2])
	rewriteBlocks := atoiCell(t, tb.Rows[2][2])
	if mergeBlocks == 0 || expandBlocks == 0 {
		t.Fatal("missing I/O counts")
	}
	// In place, every expansion together costs less than the months'
	// merges; the modeled full rewrite is the O(N^d) pass the paper argues
	// is tolerable only because it streams.
	if expandBlocks >= mergeBlocks || rewriteBlocks <= 10*expandBlocks {
		t.Errorf("expansion blocks %d (rewrite model %d) against merge blocks %d", expandBlocks, rewriteBlocks, mergeBlocks)
	}
}

func TestAllTablesWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if tb.Title == "" {
			t.Error("table with empty title")
		}
		for i, r := range tb.Rows {
			if len(r) != len(tb.Columns) {
				t.Errorf("table %q row %d has %d cells for %d columns", tb.Title, i, len(r), len(tb.Columns))
			}
		}
		if md := tb.Markdown(); len(md) == 0 {
			t.Errorf("table %q renders empty markdown", tb.Title)
		}
	}
}

// TestAppendFormsShapes: the non-standard appender's late appends do not
// grow with history, and the standard form under the paper's full rewrite
// has expansion periods that dwarf them. Measured, the standard form
// expands in place, so its costliest period is within a merge-path level
// of its costliest routine one.
func TestAppendFormsShapes(t *testing.T) {
	tb, err := AppendForms(AppendFormsConfig{Edge: 8, Periods: 12, TileBits: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var stdMax, stdRoutineMax, modelMax, nonMax, nonEarly int64
	for i, r := range tb.Rows {
		std := atoiCell(t, r[1])
		non := atoiCell(t, r[3])
		stdMax = max(stdMax, std)
		if r[2] != "true" {
			stdRoutineMax = max(stdRoutineMax, std)
		}
		modelMax = max(modelMax, atoiCell(t, r[4]))
		if i >= 6 && non > nonMax {
			nonMax = non
		}
		if i == 1 {
			nonEarly = non
		}
	}
	if nonMax > 2*nonEarly {
		t.Errorf("non-standard append cost grew: early %d, late max %d", nonEarly, nonMax)
	}
	if modelMax < 4*nonMax {
		t.Errorf("the modeled standard-form expansion max %d should dwarf non-standard %d", modelMax, nonMax)
	}
	if 2*stdMax > 3*stdRoutineMax {
		t.Errorf("measured standard form: costliest period %d against routine %d: expansion jumps are back", stdMax, stdRoutineMax)
	}
}
