// Command shiftsplit is a workbench for the SHIFT-SPLIT library: it builds
// tiled wavelet stores from synthetic datasets, queries them, extracts
// regions, and demonstrates the appending and streaming maintenance
// scenarios of the paper, printing the block I/O each operation paid.
//
// Usage:
//
//	shiftsplit transform -out cube.wav -shape 64x64 -form standard -chunk 3
//	shiftsplit query -store cube.wav -point 5,7
//	shiftsplit query -store cube.wav -start 0,0 -extent 8,8
//	shiftsplit extract -store cube.wav -start 8,8 -extent 8,8
//	shiftsplit append -months 12 -tile 2
//	shiftsplit stream -n 65536 -k 64 -buf 4
//	shiftsplit compress -store cube.wav -k 128 -out cube.syn
//	shiftsplit approx -syn cube.syn -point 5,7
//	shiftsplit serve -store cube.wav -addr :8080 -cache 256
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// Exit codes. Scripts branch on fsck/recover results, so the unhealthy
// states get distinct codes instead of a generic 1.
const (
	exitOK            = 0 // store is clean
	exitFailure       = 1 // generic error
	exitUsage         = 2 // bad invocation
	exitNeedsRecovery = 3 // a sealed journal batch awaits replay ('shiftsplit recover')
	exitCorrupt       = 4 // checksum failures or an unrecoverable journal
)

// exitError carries a specific process exit code up to main.
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

func exitf(code int, format string, args ...any) error {
	return &exitError{code: code, msg: fmt.Sprintf(format, args...)}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "transform":
		err = cmdTransform(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "extract":
		err = cmdExtract(os.Args[2:])
	case "append":
		err = cmdAppend(os.Args[2:])
	case "stream":
		err = cmdStream(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "approx":
		err = cmdApprox(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	case "recover":
		err = cmdRecover(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "shiftsplit: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shiftsplit:", err)
		code := exitFailure
		var xe *exitError
		if errors.As(err, &xe) {
			code = xe.code
		}
		os.Exit(code)
	}
}

func usage() { fmt.Fprintln(os.Stderr, usageText) }

const usageText = `usage: shiftsplit <command> [flags]

commands:
  transform   build a tiled wavelet store from a synthetic dataset
  query       point or range-sum query against a store
  extract     partial reconstruction of a region (inverse SHIFT-SPLIT)
  append      demo: monthly appends in the wavelet domain (paper §5.2)
  stream      demo: best-K stream synopsis maintenance (Result 3)
  compress    build a best-K synopsis file from a store
  approx      answer queries from a synopsis file
  serve       expose a store over the HTTP/JSON query API
  info        print a store's geometry and metadata
  fsck        verify a durable store's checksums and journal (-scrub
              quarantines corrupt blocks); exit 0 clean, 3 needs
              recovery, 4 corrupt
  recover     replay or discard an interrupted batch, then re-verify

run 'shiftsplit <command> -h' for flags`

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == 'x' })
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func parseForm(s string) (shiftsplit.Form, error) {
	switch s {
	case "standard":
		return shiftsplit.Standard, nil
	case "non-standard", "nonstandard":
		return shiftsplit.NonStandard, nil
	default:
		return 0, fmt.Errorf("unknown form %q (want standard or non-standard)", s)
	}
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ExitOnError)
	out := fs.String("out", "cube.wav", "output store path")
	shapeStr := fs.String("shape", "64x64", "dataset shape, e.g. 64x64 or 16x16x16x16")
	formStr := fs.String("form", "standard", "decomposition form: standard | non-standard")
	tile := fs.Int("tile", 2, "per-dimension tile edge exponent b (blocks hold 2^(b*d) coefficients)")
	chunk := fs.Int("chunk", 3, "chunk edge exponent m: chunks of 2^m cells per dimension, clamped to each extent; 2^m may not exceed the largest extent")
	seed := fs.Int64("seed", 1, "dataset seed")
	kind := fs.String("data", "dense", "synthetic dataset: dense | temperature (4-d) | precipitation (3-d) | sparse")
	durable := fs.Bool("durable", false, "crash-safe store: checksummed blocks + write-ahead journal")
	mapped := fs.Bool("mapped", false, "serve block reads from a shared memory mapping (zero-copy, zero read syscalls when warm)")
	versioned := fs.Bool("versioned", false, "MVCC epoch store: maintenance builds the next epoch copy-on-write while readers pin consistent snapshots")
	workers := fs.Int("workers", 0, "worker goroutines for chunk transforms (0 = one per CPU, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	shape, err := parseInts(*shapeStr)
	if err != nil {
		return err
	}
	form, err := parseForm(*formStr)
	if err != nil {
		return err
	}
	var src *shiftsplit.Array
	switch *kind {
	case "dense":
		src = dataset.Dense(shape, *seed)
	case "temperature":
		src = dataset.Temperature(shape, *seed)
	case "precipitation":
		src = dataset.Precipitation(shape, *seed)
	case "sparse":
		src = dataset.Sparse(shape, 0.1, *seed)
	default:
		return fmt.Errorf("unknown dataset %q", *kind)
	}
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: shape, Form: form, TileBits: *tile, Path: *out, Durable: *durable,
		Mapped: *mapped, Versioned: *versioned,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.TransformChunkedOpts(src, *chunk, shiftsplit.MaintainOptions{Workers: *workers}); err != nil {
		return err
	}
	stats := st.Stats()
	fmt.Printf("transformed %v cells (%s, %s form) into %s\n",
		shape, *kind, form, *out)
	if stats.MappedReads > 0 {
		fmt.Printf("blocks: %d of %d coefficients; I/O: %d reads (%d mapped), %d writes\n",
			st.NumBlocks(), st.BlockSize(), stats.Reads, stats.MappedReads, stats.Writes)
	} else {
		fmt.Printf("blocks: %d of %d coefficients; I/O: %d reads, %d writes\n",
			st.NumBlocks(), st.BlockSize(), stats.Reads, stats.Writes)
	}
	return st.Sync()
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	store := fs.String("store", "cube.wav", "store path")
	pointStr := fs.String("point", "", "point coordinates, e.g. 5,7")
	startStr := fs.String("start", "", "range start, e.g. 0,0")
	extentStr := fs.String("extent", "", "range extent, e.g. 8,8")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := shiftsplit.OpenStore(*store)
	if err != nil {
		return err
	}
	defer st.Close()
	switch {
	case *pointStr != "":
		p, err := parseInts(*pointStr)
		if err != nil {
			return err
		}
		v, io, err := st.Point(p...)
		if err != nil {
			return err
		}
		fmt.Printf("a%v = %g   (%d block reads)\n", p, v, io)
		return nil
	case *startStr != "" && *extentStr != "":
		start, err := parseInts(*startStr)
		if err != nil {
			return err
		}
		extent, err := parseInts(*extentStr)
		if err != nil {
			return err
		}
		v, io, err := st.RangeSum(start, extent)
		if err != nil {
			return err
		}
		fmt.Printf("sum[%v +%v] = %g   (%d block reads)\n", start, extent, v, io)
		return nil
	default:
		return fmt.Errorf("need -point or -start/-extent")
	}
}

func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	store := fs.String("store", "cube.wav", "store path")
	startStr := fs.String("start", "0,0", "region start")
	extentStr := fs.String("extent", "4,4", "region extent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := shiftsplit.OpenStore(*store)
	if err != nil {
		return err
	}
	defer st.Close()
	start, err := parseInts(*startStr)
	if err != nil {
		return err
	}
	extent, err := parseInts(*extentStr)
	if err != nil {
		return err
	}
	var vals *shiftsplit.Array
	var io int
	if b, berr := shiftsplit.BlockAt(start, extent); berr == nil {
		vals, io, err = st.ExtractBlock(b)
	} else {
		vals, io, err = st.ExtractBox(start, extent)
	}
	if err != nil {
		return err
	}
	fmt.Printf("extracted %v cells with %d block reads (store has %d blocks)\n",
		extent, io, st.NumBlocks())
	if vals.Size() <= 64 {
		fmt.Println(vals)
	}
	return nil
}

func cmdAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	months := fs.Int("months", 12, "months of precipitation to append")
	tileBits := fs.Int("tile", 2, "per-dimension tile edge exponent")
	seed := fs.Int64("seed", 1, "dataset seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	app, err := shiftsplit.NewAppender([]int{8, 8, 32}, *tileBits)
	if err != nil {
		return err
	}
	full := dataset.Precipitation([]int{8, 8, 32 * *months}, *seed)
	fmt.Println("month  merge I/O  expansion I/O  domain")
	for mo := 0; mo < *months; mo++ {
		slab := full.SubCopy([]int{0, 0, mo * 32}, []int{8, 8, 32})
		res, err := app.Append(2, slab)
		if err != nil {
			return err
		}
		fmt.Printf("%5d  %9d  %13d  %v\n",
			mo+1, res.MergeIO.Total(), res.ExpansionIO.Total(), app.Shape())
	}
	fmt.Printf("total I/O: %d blocks\n", app.TotalIO().Total())
	return nil
}

func cmdStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	n := fs.Int("n", 1<<16, "stream length")
	k := fs.Int("k", 64, "synopsis size")
	bufBits := fs.Int("buf", 4, "buffer exponent: B = 2^buf items")
	seed := fs.Int64("seed", 1, "stream seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	syn := shiftsplit.NewStreamSynopsis(*k, *bufBits)
	for _, v := range dataset.RandomWalk(*n, *seed) {
		syn.Add(v)
	}
	if err := syn.Finish(); err != nil {
		return err
	}
	crest, total := syn.PerItemCost()
	fmt.Printf("streamed %d items, kept %d coefficients\n", syn.Items(), len(syn.Entries()))
	fmt.Printf("per-item cost: %.4f crest updates, %.4f total ops (B=%d)\n",
		crest, total, 1<<uint(*bufBits))
	return nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	store := fs.String("store", "cube.wav", "store path")
	out := fs.String("out", "cube.syn", "synopsis output path")
	k := fs.Int("k", 128, "coefficients to retain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := shiftsplit.OpenStore(*store)
	if err != nil {
		return err
	}
	defer st.Close()
	hat, err := st.ReadTransform()
	if err != nil {
		return err
	}
	c := shiftsplit.Compress(hat, st.Form(), *k)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := c.WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Printf("kept %d of %d coefficients (%d bytes); guaranteed SSE %.6g\n",
		c.K(), hat.Size(), n, c.DroppedEnergy())
	return nil
}

func cmdApprox(args []string) error {
	fs := flag.NewFlagSet("approx", flag.ExitOnError)
	syn := fs.String("syn", "cube.syn", "synopsis path")
	pointStr := fs.String("point", "", "point coordinates")
	startStr := fs.String("start", "", "range start")
	extentStr := fs.String("extent", "", "range extent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*syn)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := shiftsplit.ReadCompressedTransform(f)
	if err != nil {
		return err
	}
	switch {
	case *pointStr != "":
		p, err := parseInts(*pointStr)
		if err != nil {
			return err
		}
		fmt.Printf("a%v ~= %g   (from %d coefficients)\n", p, c.PointValue(p), c.K())
		return nil
	case *startStr != "" && *extentStr != "":
		start, err := parseInts(*startStr)
		if err != nil {
			return err
		}
		extent, err := parseInts(*extentStr)
		if err != nil {
			return err
		}
		fmt.Printf("sum[%v +%v] ~= %g   (from %d coefficients)\n",
			start, extent, c.RangeSum(start, extent), c.K())
		return nil
	default:
		return fmt.Errorf("need -point or -start/-extent")
	}
}

func printFsckReport(rep *shiftsplit.FsckReport) {
	fmt.Printf("store:    %s\n", rep.Path)
	fmt.Printf("blocks:   %d frames on disk, block size %d\n", rep.Blocks, rep.BlockSize)
	fmt.Printf("frames:   %d written (v2 %d, v1 %d)\n", rep.Written, rep.Written-rep.WrittenV1, rep.WrittenV1)
	fmt.Printf("epoch:    %d\n", rep.MaxEpoch)
	switch {
	case !rep.JournalPresent:
		fmt.Println("journal:  missing (clean shutdown)")
	case rep.JournalErr != "":
		fmt.Printf("journal:  UNRECOVERABLE: %s\n", rep.JournalErr)
	case rep.JournalCommitted:
		fmt.Printf("journal:  sealed batch of %d blocks (epoch %d) awaits replay — run 'shiftsplit recover'\n",
			rep.JournalEntries, rep.JournalEpoch)
	case rep.JournalEntries > 0:
		fmt.Printf("journal:  unsealed batch of %d blocks (will be discarded on open)\n", rep.JournalEntries)
	default:
		fmt.Println("journal:  empty")
	}
	if v := rep.Versioned; v != nil {
		for i, sl := range v.Slots {
			switch {
			case sl.State != storage.SlotValid:
				fmt.Printf("slot %d:   %s\n", i, sl.State)
			case i == v.Current:
				fmt.Printf("slot %d:   epoch %d, verifies (current)\n", i, sl.Epoch)
			default:
				fmt.Printf("slot %d:   epoch %d, verifies\n", i, sl.Epoch)
			}
		}
	}
	switch {
	case rep.VersionedErr != "":
		fmt.Printf("mvcc:     UNREADABLE: %s\n", rep.VersionedErr)
	case rep.Versioned != nil:
		fmt.Printf("mvcc:     epoch %d (format %d), %d of %d logical blocks mapped over %d table pages (data from block %d)\n",
			rep.Versioned.Epoch, rep.Versioned.Format, rep.Versioned.Mapped, rep.Versioned.Logical,
			rep.Versioned.TablePages, rep.Versioned.DataBase)
	}
	if len(rep.Unreachable) > 0 {
		fmt.Printf("free:     %d torn frames in blocks no epoch references (ignored): %v\n", len(rep.Unreachable), rep.Unreachable)
	}
	if len(rep.Corrupt) > 0 {
		fmt.Printf("CORRUPT:  %d blocks failed checksum verification: %v\n", len(rep.Corrupt), rep.Corrupt)
	}
	if rep.Clean() {
		fmt.Println("status:   clean")
	} else {
		fmt.Println("status:   NOT CLEAN")
	}
}

func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	store := fs.String("store", "cube.wav", "store path")
	scrub := fs.Bool("scrub", false, "additionally run an online scrub pass: quarantine corrupt blocks in the metadata sidecar and print the registry")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := shiftsplit.Fsck(*store)
	if err != nil {
		return err
	}
	printFsckReport(rep)
	if *scrub {
		if err := fsckScrub(*store); err != nil {
			return err
		}
	}
	// Distinct exit codes so scripts can branch: corruption dominates a
	// pending journal batch (replaying onto rotten frames helps nobody).
	switch {
	case len(rep.Corrupt) > 0 || rep.JournalErr != "" || rep.VersionedErr != "":
		return exitf(exitCorrupt, "%s is corrupt", *store)
	case rep.JournalCommitted:
		return exitf(exitNeedsRecovery, "%s has a sealed batch awaiting replay", *store)
	case !rep.Clean():
		return exitf(exitFailure, "%s is not clean", *store)
	}
	return nil
}

// fsckScrub opens the store and runs one scrubber pass, persisting the
// quarantine registry to the metadata sidecar so a later serving process
// starts degraded instead of trusting rotten frames.
func fsckScrub(path string) error {
	st, err := shiftsplit.OpenStore(path)
	if err != nil {
		return err
	}
	defer st.Close()
	n, err := st.ScrubOnce(context.Background())
	if err != nil {
		return err
	}
	stats, _ := st.ScrubStats()
	fmt.Printf("scrub:    %d blocks scanned, %d quarantined\n", stats.Scanned, n)
	for _, rec := range st.Quarantined() {
		fmt.Printf("          block %d: %s\n", rec.Block, rec.Reason)
	}
	return st.Sync()
}

func cmdRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	store := fs.String("store", "cube.wav", "store path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := shiftsplit.OpenStore(*store)
	if err != nil {
		return err
	}
	if n, ok := st.Recovered(); ok {
		fmt.Printf("rolled forward an interrupted batch of %d blocks\n", n)
	} else {
		fmt.Println("no interrupted batch found")
	}
	if err := st.Close(); err != nil {
		return err
	}
	rep, err := shiftsplit.Fsck(*store)
	if err != nil {
		return err
	}
	printFsckReport(rep)
	if len(rep.Corrupt) > 0 || rep.JournalErr != "" || rep.VersionedErr != "" {
		return exitf(exitCorrupt, "%s is corrupt after recovery", *store)
	}
	if !rep.Clean() {
		return exitf(exitFailure, "%s is not clean after recovery", *store)
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	store := fs.String("store", "cube.wav", "store path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := shiftsplit.OpenStore(*store)
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("store:      %s\n", *store)
	fmt.Printf("form:       %s\n", st.Form())
	fmt.Printf("shape:      %v\n", st.Shape())
	fmt.Printf("blocks:     %d of %d coefficients (%d bytes each)\n",
		st.NumBlocks(), st.BlockSize(), 8*st.BlockSize())
	fmt.Printf("durable:    %v\n", st.Durable())
	fmt.Printf("mapped:     %v\n", st.Mapped())
	fmt.Printf("versioned:  %v\n", st.Versioned())
	if es, ok := st.EpochStats(); ok {
		fmt.Printf("epoch:      %d (oldest pinned %d, %d snapshot(s) held)\n",
			es.Epoch, es.OldestPinned, es.Pinned)
		fmt.Printf("physical:   %d blocks allocated, %d free, %d reclaimable when pins release\n",
			es.PhysBlocks, es.FreeBlocks, es.Reclaimable)
	}
	return nil
}
