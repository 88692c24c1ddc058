package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
)

// fuzzIngestHandler builds one shared ingest-mounted server for the fuzz
// run. Valid inputs mutate the ingested domain — that is the point: the
// invariants below must hold on a store that grows mid-run.
var fuzzIngestHandler = sync.OnceValue(func() http.Handler {
	app, err := appender.New([]int{4, 4}, 1)
	if err != nil {
		panic(err)
	}
	in, err := ingest.New(app, ingest.Config{Dim: 1, FlushInterval: time.Millisecond})
	if err != nil {
		panic(err)
	}
	st, err := fuzzServingStore()
	if err != nil {
		panic(err)
	}
	return New(st, Config{Ingest: in}).Handler()
})

// ingestSeeds is FuzzIngestDecoding's corpus; the fast decoders'
// differential test replays it too.
var ingestSeeds = []string{
	`{"shape":[4,1],"values":[1,2,3,4]}`,
	`{"shape":[4,2],"values":[1,2,3,4,5,6,7,8]}`,
	`{"shape":[4,1],"values":[1,2,3]}`,
	`{"shape":[],"values":[]}`,
	`{"shape":[0],"values":[]}`,
	`{"shape":[-4,1],"values":[1]}`,
	`{"shape":[4,1],"values":[null,2,3,4]}`,
	`{"shape":[1,1],"values":[1e999]}`,
	`{"shape":[1073741824,1073741824],"values":[]}`,
	`{"shape":[3,1],"values":[1,2,3]}`,
	`{"shape":[8,1],"values":[1,2,3,4,5,6,7,8]}`,
	`{"shape":[4,1],"values":[1,2,3,4],"extra":true}`,
	`{"values":[1,2,3,4]}`,
	`{"shape":[4,1]}`,
	`{"shape":"x","values":"y"}`,
	`{`,
	``,
	`null`,
	`[]`,
	`42`,
	`{"shape":[4,1],"values":[1,2,3,4]}` + "\n" + `{"shape":[4,1],"values":[5,6,7,8]}`,
	`{"shape":[4,1],"values":[1,2,3,4]}{"shape":`,
	`{"values":[1,2,3]}`,
	`{"point":[0,0]}`,
	strings.Repeat(`{"shape":[`, 500),
	// The float fast path's edges: 15 significant digits and 22 fraction
	// digits take it, one more of either goes to strconv.
	`{"shape":[4,1],"values":[123456789012345,1234567890123456,0.0000000000000000000001,0.00000000000000000000001]}`,
	`{"shape":[4,1],"values":[-0,-0.0,9007199254740993,4.9e-324]}`,
}

// FuzzIngestDecoding throws arbitrary bodies at the write path, as JSON
// and as NDJSON: malformed requests (bad JSON, wrong-shape slabs,
// NaN/Inf cells) must come back 400 via query.ErrInvalid — never a panic
// (recoverJSON would turn one into a 500, which fails the fuzz) — and
// every non-2xx answer must be a well-formed JSON error object. Wherever the
// fast slab decoder accepts a body, strict encoding/json must accept it
// with equal values (checkDecoders).
func FuzzIngestDecoding(f *testing.F) {
	for _, s := range ingestSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkDecoders(t, []byte(body))
		h := fuzzIngestHandler()
		for _, ct := range []string{"application/json", "application/x-ndjson"} {
			for _, p := range []string{"/v1/ingest", "/v1/ingest/stream", "/v1/ingest/point"} {
				req := httptest.NewRequest("POST", p, strings.NewReader(body))
				req.Header.Set("Content-Type", ct)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				resp := rec.Result()
				if resp.StatusCode == http.StatusInternalServerError {
					t.Fatalf("%s (%s): input %q produced 500: %s", p, ct, body, rec.Body.String())
				}
				if resp.StatusCode >= 300 {
					var er errorResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
						t.Fatalf("%s (%s): input %q: status %d with malformed error body %q",
							p, ct, body, resp.StatusCode, rec.Body.String())
					}
					continue
				}
				if p == "/v1/ingest" && ct == "application/x-ndjson" {
					// Streamed success: every line must be valid JSON.
					for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
						var res ingestResult
						if err := json.Unmarshal([]byte(line), &res); err != nil {
							t.Fatalf("ingest NDJSON line %q not JSON: %v", line, err)
						}
					}
				}
			}
		}
	})
}
