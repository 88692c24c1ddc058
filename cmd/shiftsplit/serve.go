package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/server"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// cmdServe exposes a store over the HTTP/JSON query API and
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
