package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/server"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// benchIngestBaseline is the JSON record bench-ingest writes: the
// fsync-amortization evidence (appends per journal group), throughput,
// and the commit latency distribution, plus enough configuration to
// rerun the measurement.
type benchIngestBaseline struct {
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"duration_sec"`
	Cross       int     `json:"cross"`
	TileBits    int     `json:"tile_bits"`
	Durable     bool    `json:"durable"`
	FlushMillis float64 `json:"flush_ms"`
	MaxBatch    int     `json:"max_batch_slabs"`

	CommittedSlabs         int64   `json:"committed_slabs"`
	CommittedCells         int64   `json:"committed_cells"`
	Groups                 int64   `json:"groups"`
	JournalGroups          int64   `json:"journal_groups"`
	AppendsPerJournalGroup float64 `json:"appends_per_journal_group"`
	Expansions             int64   `json:"expansions"`

	SlabsPerSec float64 `json:"slabs_per_sec"`
	ItemsPerSec float64 `json:"items_per_sec"`

	CommitP50Millis float64 `json:"commit_p50_ms"`
	CommitP99Millis float64 `json:"commit_p99_ms"`

	HTTPOK           int64 `json:"http_ok"`
	HTTPBackpressure int64 `json:"http_backpressure"`
	HTTPFailed       int64 `json:"http_failed"`

	MergeIO     storage.Stats `json:"merge_io"`
	ExpansionIO storage.Stats `json:"expansion_io"`
}

// cmdBenchIngest load-tests the write path: it mounts an ingester over a
// fresh appender (durable file backing by default, so journal groups pay
// real fsyncs), spins the HTTP server on a loopback port, and fires
// single-slab appends from many client goroutines. The figure of merit
// is appends-per-journal-group: how many client append calls one fsync
// pair absorbed.
func cmdBenchIngest(args []string) error {
	fs := flag.NewFlagSet("bench-ingest", flag.ExitOnError)
	clients := fs.Int("clients", 16, "concurrent client goroutines")
	dur := fs.Duration("duration", 3*time.Second, "measurement duration")
	cross := fs.Int("cross", 8, "slab cross-section extent (power of two)")
	tile := fs.Int("tile", 2, "per-dimension tile edge exponent")
	flush := fs.Duration("flush", 2*time.Millisecond, "upper bound on holding a group open for requests already on their way")
	batch := fs.Int("batch", 64, "max slabs per group commit")
	mem := fs.Bool("mem", false, "in-memory backing instead of a durable temp store")
	out := fs.String("out", "", "write a JSON baseline to this path")
	minAmort := fs.Float64("min-amortization", 0, "fail unless appends-per-journal-group reaches this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The appender under test: a [cross, cross] domain growing along dim 1,
	// one slab = one [cross, 1] column.
	var backing appender.Backing
	if !*mem {
		dir, err := os.MkdirTemp("", "shiftsplit-bench-ingest")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		backing = func(_, bs int) (storage.BlockStore, error) {
			return storage.CreateDurable(filepath.Join(dir, "ingest.wav"), bs, nil)
		}
	}
	app, err := appender.NewWithBacking([]int{*cross, *cross}, *tile, backing)
	if err != nil {
		return err
	}
	in, err := ingest.New(app, ingest.Config{
		Dim:           1,
		FlushInterval: *flush,
		MaxBatchSlabs: *batch,
	})
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }() // drained before stats below; idempotent

	// The read store beside it only exists so the server has something to
	// serve; the benchmark never queries it.
	tmp, err := buildBenchStore(false)
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	st, err := shiftsplit.OpenServing(tmp+"/bench.wav", 64, 0)
	if err != nil {
		return err
	}
	defer st.Close()

	srv := server.New(st, server.Config{MaxConcurrent: *clients * 2, Ingest: in})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String() + "/v1/ingest"

	var ok, backpressure, failed atomic.Int64
	begin := time.Now()
	stopAt := begin.Add(*dur)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			client := &http.Client{}
			rng := uint64(seed)*2654435761 + 12345
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			vals := make([]float64, *cross)
			for time.Now().Before(stopAt) {
				for i := range vals {
					vals[i] = float64(next(1000)) / 10
				}
				body, _ := json.Marshal(map[string]any{
					"shape":  []int{*cross, 1},
					"values": vals,
				})
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					backpressure.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(c + 1)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	cancel()
	if err := <-done; err != nil {
		return err
	}
	if err := in.Close(); err != nil { // drain stragglers before the snapshot
		return err
	}

	ist := in.Stats()
	base := benchIngestBaseline{
		Clients:                *clients,
		DurationSec:            elapsed.Seconds(),
		Cross:                  *cross,
		TileBits:               *tile,
		Durable:                !*mem,
		FlushMillis:            flush.Seconds() * 1e3,
		MaxBatch:               *batch,
		CommittedSlabs:         ist.CommittedSlabs,
		CommittedCells:         ist.CommittedCells,
		Groups:                 ist.Groups,
		JournalGroups:          ist.DeviceIO.Commits,
		AppendsPerJournalGroup: ist.AppendsPerJournalGroup,
		Expansions:             ist.Expansions,
		SlabsPerSec:            float64(ist.CommittedSlabs) / elapsed.Seconds(),
		ItemsPerSec:            float64(ist.CommittedCells) / elapsed.Seconds(),
		CommitP50Millis:        ist.CommitP50Millis,
		CommitP99Millis:        ist.CommitP99Millis,
		HTTPOK:                 ok.Load(),
		HTTPBackpressure:       backpressure.Load(),
		HTTPFailed:             failed.Load(),
		MergeIO:                ist.MergeIO,
		ExpansionIO:            ist.ExpansionIO,
	}

	fmt.Printf("bench-ingest: %d slabs (%d cells) committed in %.2fs from %d clients\n",
		base.CommittedSlabs, base.CommittedCells, base.DurationSec, base.Clients)
	fmt.Printf("throughput:   %.0f slabs/sec, %.0f items/sec (%d ok, %d shed, %d failed)\n",
		base.SlabsPerSec, base.ItemsPerSec, base.HTTPOK, base.HTTPBackpressure, base.HTTPFailed)
	fmt.Printf("group commit: %d groups, %d journal groups, %.1f appends per journal group\n",
		base.Groups, base.JournalGroups, base.AppendsPerJournalGroup)
	fmt.Printf("latency:      commit p50 %.2fms, p99 %.2fms\n",
		base.CommitP50Millis, base.CommitP99Millis)
	fmt.Printf("gather:       %d groups closed idle, %d full, %d by the window; p50 %.2fms, p99 %.2fms\n",
		ist.ClosedIdle, ist.ClosedFull, ist.ClosedByWindow, ist.GatherP50Millis, ist.GatherP99Millis)
	fmt.Printf("domain:       %v used of %v after %d expansions\n",
		ist.Used, ist.Shape, base.Expansions)
	fmt.Printf("I/O:          merge %d reads %d writes; expansion %d reads %d writes\n",
		base.MergeIO.Reads, base.MergeIO.Writes, base.ExpansionIO.Reads, base.ExpansionIO.Writes)

	if *out != "" {
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("baseline:     %s\n", *out)
	}
	if *minAmort > 0 && base.AppendsPerJournalGroup < *minAmort {
		return fmt.Errorf("appends per journal group %.2f below the required %.2f — group commit is not amortizing",
			base.AppendsPerJournalGroup, *minAmort)
	}
	return nil
}
