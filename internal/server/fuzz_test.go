package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
)

// fuzzServingStore materializes a 16x16 serving store in a temp directory
// that leaks for the process lifetime, which is fine for a test binary.
func fuzzServingStore() (*shiftsplit.Store, error) {
	dir, err := os.MkdirTemp("", "shiftsplit-fuzz")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "fuzz.wav")
	shape := []int{16, 16}
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: shape, Form: shiftsplit.Standard, TileBits: 2, Path: path,
	})
	if err != nil {
		return nil, err
	}
	if err := st.Materialize(dataset.Dense(shape, 7)); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return shiftsplit.OpenServing(path, 32, 4)
}

// fuzzHandler builds one shared 16x16 server for the whole fuzz run; the
// store is immutable, so reuse across inputs is safe and keeps iterations
// fast. Its MaxResultCells of 128 lets a dice of the 16x16 store run into
// the 413 path.
var fuzzHandler = sync.OnceValue(func() http.Handler {
	serving, err := fuzzServingStore()
	if err != nil {
		panic(err)
	}
	return New(serving, Config{MaxResultCells: 128}).Handler()
})

// requestSeeds is FuzzRequestDecoding's corpus; the fast decoders'
// differential test replays it too.
var requestSeeds = []string{
	`{"point":[5,7]}`,
	`{"point":[]}`,
	`{"point":[-1,-1]}`,
	`{"point":[99999999999,0]}`,
	`{"point":[9223372036854775807,9223372036854775807]}`,
	`{"start":[0,0],"extent":[8,8]}`,
	`{"start":[0,0],"extent":[-8,8]}`,
	`{"start":[-4,-4],"extent":[4,4]}`,
	`{"start":[9223372036854775800,0],"extent":[100,4]}`,
	`{"start":[0],"extent":[4]}`,
	`{"dim":0,"index":3}`,
	`{"dim":-1}`,
	`{"dim":100000,"start":-5,"length":0}`,
	`{"dim":1,"start":0,"length":16}`, // a dice past fuzzHandler's MaxResultCells: 413
	`{"dim":0,"start":4,"length":3}`,  // a non-dyadic run
	`{"dim":1,"index":-3,"start":-8}`, // a negative index and start
	`{"dim":2,"index":1,"length":4}`,  // a dimension out of range
	`{"dim":0,"start":8,"length":9223372036854775807}`,
	`{`,
	``,
	`null`,
	`[]`,
	`42`,
	`"point"`,
	`{"point":[5,7]}{"point":[5,7]}`,
	`{"point":[5,7],"extra":"field"}`,
	`{"point":"not-an-array"}`,
	`{"point":[1.5,2.5]}`,
	`{"start":[0,0],"extent":[8,8],"every":-3}`,
	strings.Repeat(`{"point":[`, 1000),
}

// FuzzRequestDecoding throws arbitrary bodies at every query endpoint and
// asserts the serving invariants: no input may panic (recoverJSON would
// surface a panic as a 500, which the fuzz treats as a failure), every
// non-2xx answer is a well-formed JSON error object, and wherever a fast
// decoder accepts the body, strict encoding/json accepts it with equal
// values (checkDecoders).
func FuzzRequestDecoding(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add(s)
	}
	paths := []string{
		"/v1/point", "/v1/rangesum", "/v1/progressive",
		"/v1/olap/rollup", "/v1/olap/slice", "/v1/olap/dice",
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkDecoders(t, []byte(body))
		h := fuzzHandler()
		for _, p := range paths {
			req := httptest.NewRequest("POST", p, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			resp := rec.Result()
			if resp.StatusCode == http.StatusInternalServerError {
				t.Fatalf("%s: input %q produced 500: %s", p, body, rec.Body.String())
			}
			if resp.StatusCode >= 300 {
				var er errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
					t.Fatalf("%s: input %q: status %d with malformed error body %q",
						p, body, resp.StatusCode, rec.Body.String())
				}
			}
			if p == "/v1/progressive" && resp.StatusCode == http.StatusOK {
				// Streamed success: every line must be valid JSON.
				for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
					var step progressiveStep
					if err := json.Unmarshal([]byte(line), &step); err != nil {
						t.Fatalf("progressive stream line %q not JSON: %v", line, err)
					}
				}
			}
		}
	})
}

// FuzzStructuredRange drives the range endpoints with structured (but
// unconstrained) integers so the fuzzer explores the validation lattice
// rather than JSON syntax: in-bounds boxes must succeed, everything else
// must be a clean 400.
func FuzzStructuredRange(f *testing.F) {
	f.Add(0, 0, 8, 8)
	f.Add(-1, 0, 4, 4)
	f.Add(0, 0, 0, 0)
	f.Add(15, 15, 1, 1)
	f.Add(1<<62, 1, 1<<62, 1)
	f.Add(8, 8, -8, -8)
	f.Fuzz(func(t *testing.T, s0, s1, e0, e1 int) {
		h := fuzzHandler()
		body, _ := json.Marshal(rangeRequest{Start: []int{s0, s1}, Extent: []int{e0, e1}})
		for _, p := range []string{"/v1/rangesum", "/v1/progressive"} {
			req := httptest.NewRequest("POST", p, strings.NewReader(string(body)))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("%s: start=[%d,%d] extent=[%d,%d] produced 500: %s",
					p, s0, s1, e0, e1, rec.Body.String())
			}
			inBounds := s0 >= 0 && s1 >= 0 && e0 > 0 && e1 > 0 &&
				s0 <= 16-e0 && s1 <= 16-e1
			if inBounds && rec.Code != http.StatusOK {
				t.Fatalf("%s: valid box start=[%d,%d] extent=[%d,%d] rejected: %d %s",
					p, s0, s1, e0, e1, rec.Code, rec.Body.String())
			}
			if !inBounds && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: invalid box start=[%d,%d] extent=[%d,%d] got %d, want 400",
					p, s0, s1, e0, e1, rec.Code)
			}
		}
	})
}
