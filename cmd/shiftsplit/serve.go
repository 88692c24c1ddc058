package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/server"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// cmdServe exposes a materialized store over the HTTP/JSON query API and
// runs until SIGINT/SIGTERM, then drains in-flight queries.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	store := fs.String("store", "cube.wav", "store path")
	addr := fs.String("addr", ":8080", "listen address")
	cacheBlocks := fs.Int("cache", 256, "serve cache capacity in blocks (0 disables)")
	cacheShards := fs.Int("shards", 0, "cache shard count (0 picks a default)")
	maxConc := fs.Int("max-concurrent", 64, "queries executing at once before shedding 429s")
	timeout := fs.Duration("timeout", 10*time.Second, "deadline of a progressive or ingest request")
	drain := fs.Duration("drain", 15*time.Second, "shutdown drain deadline")
	scrubEvery := fs.Duration("scrub-interval", 0, "background scrub: one full verification pass per interval (0 disables)")
	scrubRate := fs.Int("scrub-rate", 0, "scrub I/O ceiling in blocks/sec (0 = unlimited)")
	breaker := fs.Bool("breaker", false, "trip to cache-only serving when the backend fails repeatedly")
	ingestOn := fs.Bool("ingest", false, "mount the write path (POST /v1/ingest) over a fresh appender")
	ingestShape := fs.String("ingest-shape", "8x8", "initial ingest domain extents (powers of two)")
	ingestDim := fs.Int("ingest-dim", 1, "dimension ingest slabs append along")
	ingestTile := fs.Int("ingest-tile", 2, "ingest tile edge exponent")
	ingestDir := fs.String("ingest-dir", "", "directory for the durable ingest store, one data file and its journal (empty = in-memory)")
	ingestFlush := fs.Duration("ingest-flush", 2*time.Millisecond, "upper bound on holding an ingest group open for requests already on their way (never a delay for a lone client)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sopts := shiftsplit.ServeOptions{CacheBlocks: *cacheBlocks, CacheShards: *cacheShards}
	if *breaker {
		sopts.Breaker = &storage.BreakerOptions{}
	}
	st, err := shiftsplit.OpenServingOpts(*store, sopts)
	if err != nil {
		return err
	}
	defer st.Close()
	// The signal context is the process lifetime: the server drains on it,
	// and the background scrubber nests inside it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *scrubEvery > 0 {
		if err := st.StartScrub(ctx, *scrubEvery, *scrubRate); err != nil {
			return err
		}
	}
	// The write path rides beside the read store: a fresh appender whose
	// admission gate defers to the serving store's health, so ingest sheds
	// 503s while blocks are quarantined or the breaker is not closed.
	var in *ingest.Ingester
	if *ingestOn {
		shape, err := parseInts(*ingestShape)
		if err != nil {
			return fmt.Errorf("-ingest-shape: %w", err)
		}
		var backing appender.Backing
		if dir := *ingestDir; dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			backing = func(_, bs int) (storage.BlockStore, error) {
				return storage.CreateDurable(filepath.Join(dir, "ingest.wav"), bs, nil)
			}
		}
		app, err := appender.NewWithBacking(shape, *ingestTile, backing)
		if err != nil {
			return err
		}
		in, err = ingest.New(app, ingest.Config{
			Dim:           *ingestDim,
			FlushInterval: *ingestFlush,
			Gate: func() error {
				if h := st.Health(); h.Status != "ok" {
					return fmt.Errorf("%w: serving store is %s", storage.ErrUnavailable, h.Status)
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = in.Close() }() // drains staged slabs; the process is exiting
	}
	srv := server.New(st, server.Config{
		Addr:          *addr,
		MaxConcurrent: *maxConc,
		QueryTimeout:  *timeout,
		DrainTimeout:  *drain,
		Ingest:        in,
		Log:           log.New(os.Stderr, "serve: ", log.LstdFlags),
	})
	return srv.ListenAndServe(ctx)
}

// benchPhase fires mixed point/range queries from clients goroutines for
// dur and returns the per-request latencies plus total/failed counts.
func benchPhase(base string, shape []int, clients int, dur time.Duration, rangeFrac, phaseSeed int) (lats []time.Duration, total, failed int64) {
	var totalN, failedN atomic.Int64
	latCh := make([]([]time.Duration), clients)
	stopAt := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(idx, seed int) {
			defer wg.Done()
			client := &http.Client{}
			mine := make([]time.Duration, 0, 4096)
			rng := uint64(seed)*2654435761 + 12345
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			for time.Now().Before(stopAt) {
				var url string
				var body []byte
				if next(100) < rangeFrac {
					start := make([]int, len(shape))
					extent := make([]int, len(shape))
					for i, n := range shape {
						start[i] = next(n / 2)
						extent[i] = 1 + next(n/2)
					}
					url = base + "/v1/rangesum"
					body, _ = json.Marshal(map[string]any{"start": start, "extent": extent})
				} else {
					p := make([]int, len(shape))
					for i, n := range shape {
						p[i] = next(n)
					}
					url = base + "/v1/point"
					body, _ = json.Marshal(map[string]any{"point": p})
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					failedN.Add(1)
					continue
				}
				resp.Body.Close()
				mine = append(mine, time.Since(t0))
				if resp.StatusCode != http.StatusOK {
					failedN.Add(1)
				}
				totalN.Add(1)
			}
			latCh[idx] = mine
		}(c, phaseSeed*1000+c+1)
	}
	wg.Wait()
	for _, l := range latCh {
		lats = append(lats, l...)
	}
	return lats, totalN.Load(), failedN.Load()
}

// percentile returns the p-quantile (0..1) of lats; 0 when empty.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// cmdBenchServe is the load generator: it spins up an in-process server on a
// loopback port, fires mixed queries from many goroutines for a fixed
// duration, and reports throughput plus the cache hit rate. With -maintain
// it runs the maintain-under-load scenario instead: three equal phases
// (idle, maintenance flipping epochs at full speed, after), reporting query
// p50/p99 for each — the MVCC acceptance number is the maintain/idle p99
// ratio.
func cmdBenchServe(args []string) error {
	fs := flag.NewFlagSet("bench-serve", flag.ExitOnError)
	store := fs.String("store", "", "store path (empty builds a temporary 64x64 store)")
	cacheBlocks := fs.Int("cache", 256, "serve cache capacity in blocks (0 disables)")
	cacheShards := fs.Int("shards", 0, "cache shard count (0 picks a default)")
	clients := fs.Int("clients", 8, "concurrent client goroutines")
	dur := fs.Duration("duration", 3*time.Second, "measurement duration (per phase with -maintain)")
	rangeFrac := fs.Int("range-pct", 30, "percent of queries that are range sums (rest are points)")
	maintain := fs.Bool("maintain", false, "maintain-under-load: run SHIFT-SPLIT merge batches (epoch flips) at full speed during the middle phase; needs a versioned store")
	maxRatio := fs.Float64("max-p99-ratio", 0, "with -maintain: fail when the maintain-phase p99 exceeds this multiple of the idle p99 (0 disables; the bench-smoke guardrail)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *store
	if path == "" {
		tmp, err := buildBenchStore(*maintain)
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		path = tmp + "/bench.wav"
	}
	st, err := shiftsplit.OpenServing(path, *cacheBlocks, *cacheShards)
	if err != nil {
		return err
	}
	defer st.Close()
	if *maintain && !st.Versioned() {
		return fmt.Errorf("bench-serve -maintain needs a versioned store (transform -versioned); %s is not", path)
	}
	shape := st.Shape()
	srv := server.New(st, server.Config{MaxConcurrent: *clients * 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()
	base := "http://" + ln.Addr().String()

	if !*maintain {
		lats, total, failed := benchPhase(base, shape, *clients, *dur, *rangeFrac, 1)
		fmt.Printf("bench-serve: %d queries in %s from %d clients\n", total, *dur, *clients)
		fmt.Printf("throughput:  %.0f queries/sec (%d failed)\n",
			float64(total)/dur.Seconds(), failed)
		fmt.Printf("latency:     p50 %s, p99 %s\n", percentile(lats, 0.50), percentile(lats, 0.99))
		io := st.Stats()
		fmt.Printf("device I/O:  %d block reads\n", io.Reads)
		if cs, ok := st.CacheStats(); ok {
			fmt.Printf("cache:       %.1f%% hit rate (%d hits, %d misses, %d loads, %d evictions)\n",
				100*cs.HitRate, cs.Hits, cs.Misses, cs.Loads, cs.Evictions)
		} else {
			fmt.Println("cache:       disabled")
		}
		return nil
	}

	// Maintain-under-load. Warm the cache first so phase 1 measures the
	// steady serving state, not cold misses.
	if _, err := st.ReadTransform(); err != nil {
		return err
	}
	startEpoch := st.CurrentEpoch()

	idleLats, idleN, idleFailed := benchPhase(base, shape, *clients, *dur, *rangeFrac, 1)

	// Middle phase: one maintenance goroutine merges a delta in and back out
	// as fast as the journal lets it — every iteration is a full epoch flip
	// racing the query load.
	blkEdge := 3 // 8^d-cell dyadic block
	deltaShape := make([]int, len(shape))
	pos := make([]int, len(shape))
	for i := range deltaShape {
		deltaShape[i] = 1 << blkEdge
		pos[i] = 1
	}
	delta := dataset.Dense(deltaShape, 99)
	dh := shiftsplit.Transform(delta, st.Form())
	neg := shiftsplit.Transform(delta, st.Form())
	for i := range neg.Data() {
		neg.Data()[i] = -neg.Data()[i]
	}
	blk := shiftsplit.CubeBlock(blkEdge, pos...)
	stopMaint := make(chan struct{})
	maintDone := make(chan error, 1)
	go func() {
		cur := dh
		for {
			select {
			case <-stopMaint:
				maintDone <- nil
				return
			default:
			}
			if err := st.MergeBlock(blk, cur); err != nil {
				maintDone <- err
				return
			}
			if cur == dh {
				cur = neg
			} else {
				cur = dh
			}
		}
	}()
	maintLats, maintN, maintFailed := benchPhase(base, shape, *clients, *dur, *rangeFrac, 2)
	close(stopMaint)
	if err := <-maintDone; err != nil {
		return fmt.Errorf("maintenance during load: %w", err)
	}
	flips := st.CurrentEpoch() - startEpoch

	afterLats, afterN, afterFailed := benchPhase(base, shape, *clients, *dur, *rangeFrac, 3)

	idleP50, idleP99 := percentile(idleLats, 0.50), percentile(idleLats, 0.99)
	maintP50, maintP99 := percentile(maintLats, 0.50), percentile(maintLats, 0.99)
	afterP50, afterP99 := percentile(afterLats, 0.50), percentile(afterLats, 0.99)
	ratio := 0.0
	if idleP99 > 0 {
		ratio = float64(maintP99) / float64(idleP99)
	}
	fmt.Printf("bench-serve -maintain: %d clients, %s per phase, %d epoch flips during load\n",
		*clients, *dur, flips)
	fmt.Printf("phase    queries  failed  p50        p99\n")
	fmt.Printf("idle     %7d  %6d  %-9s  %s\n", idleN, idleFailed, idleP50, idleP99)
	fmt.Printf("maintain %7d  %6d  %-9s  %s\n", maintN, maintFailed, maintP50, maintP99)
	fmt.Printf("after    %7d  %6d  %-9s  %s\n", afterN, afterFailed, afterP50, afterP99)
	fmt.Printf("p99 maintain/idle: %.2fx\n", ratio)
	if cs, ok := st.CacheStats(); ok {
		fmt.Printf("cache:   %.1f%% hit rate (%d hits, %d loads, %d evictions)\n",
			100*cs.HitRate, cs.Hits, cs.Loads, cs.Evictions)
	}
	if es, ok := st.EpochStats(); ok {
		fmt.Printf("epochs:  at %d, %d phys blocks, %d free, %d pinned snapshots\n",
			es.Epoch, es.PhysBlocks, es.FreeBlocks, es.Pinned)
	}
	if failed := idleFailed + maintFailed + afterFailed; failed > 0 {
		return fmt.Errorf("bench-serve -maintain: %d failed queries", failed)
	}
	if flips == 0 {
		return fmt.Errorf("bench-serve -maintain: maintenance never flipped an epoch")
	}
	if *maxRatio > 0 && ratio > *maxRatio {
		return fmt.Errorf("maintain-phase p99 %.2fx idle exceeds the -max-p99-ratio %.2fx guardrail", ratio, *maxRatio)
	}
	return nil
}

// buildBenchStore materializes a throwaway 64x64 store for the load
// generator. With versioned set it is durable with the MVCC epoch layer —
// the configuration the maintain-under-load scenario measures.
func buildBenchStore(versioned bool) (dir string, err error) {
	dir, err = os.MkdirTemp("", "shiftsplit-bench")
	if err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: []int{64, 64}, Form: shiftsplit.Standard, TileBits: 2, Path: dir + "/bench.wav",
		Durable: versioned, Versioned: versioned,
	})
	if err != nil {
		return "", err
	}
	if err := st.TransformChunked(dataset.Dense([]int{64, 64}, 7), 3); err != nil {
		_ = st.Close() // best-effort cleanup; the transform error is the one to report
		return "", err
	}
	if err := st.Sync(); err != nil {
		_ = st.Close() // best-effort cleanup; the sync error is the one to report
		return "", err
	}
	return dir, st.Close()
}
