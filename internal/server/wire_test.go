package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// strictDecode is what the server does with a body the fast path declines:
// decode, reading the body through a request.
func strictDecode(body []byte, dst any) error {
	return decode(httptest.NewRequest("POST", "/", bytes.NewReader(body)), dst)
}

// fastSlabs runs the fast ingest decoder over a body the way readSlabs
// does, without building slabs.
func fastSlabs(body []byte, ndjson bool) ([]ingestSlabRequest, bool) {
	sc := &scratch{body: body}
	p := wireScanner{b: body}
	var lines []ingestSlabRequest
	for !p.done() {
		values, ok := sc.slabLine(&p)
		if !ok || (!ndjson && !p.done()) {
			return nil, false
		}
		lines = append(lines, ingestSlabRequest{Shape: slices.Clone(sc.shape), Values: values})
	}
	return lines, ndjson || len(lines) == 1
}

// strictSlabs is the fallback's NDJSON loop (or, for a JSON body, decode).
func strictSlabs(body []byte, ndjson bool) ([]ingestSlabRequest, error) {
	if !ndjson {
		var line ingestSlabRequest
		err := strictDecode(body, &line)
		return []ingestSlabRequest{line}, err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var lines []ingestSlabRequest
	for {
		var line ingestSlabRequest
		if err := dec.Decode(&line); err == io.EOF {
			return lines, nil
		} else if err != nil {
			return nil, err
		}
		lines = append(lines, line)
	}
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkDecoders is the differential property of the fast decoders: wherever
// one accepts a body, strict encoding/json accepts it too and decodes equal
// values (an empty array may come back nil from one and empty from the
// other; the handlers treat both alike).
func checkDecoders(t *testing.T, body []byte) {
	t.Helper()
	sc := &scratch{body: body}
	if sc.decodePoint() {
		var req pointRequest
		if err := strictDecode(body, &req); err != nil || !slices.Equal(req.Point, sc.start) {
			t.Fatalf("point %q: fast %v, strict %v (%v)", body, sc.start, req.Point, err)
		}
	}
	sc = &scratch{body: body}
	if sc.decodeRange() {
		var req rangeRequest
		if err := strictDecode(body, &req); err != nil || !slices.Equal(req.Start, sc.start) || !slices.Equal(req.Extent, sc.extent) {
			t.Fatalf("range %q: fast %v %v, strict %v %v (%v)", body, sc.start, sc.extent, req.Start, req.Extent, err)
		}
	}
	for _, ndjson := range []bool{false, true} {
		fast, ok := fastSlabs(body, ndjson)
		if !ok {
			continue
		}
		strict, err := strictSlabs(body, ndjson)
		if err != nil || len(strict) != len(fast) {
			t.Fatalf("slabs %q (ndjson %v): fast accepts %d lines, strict %d (%v)", body, ndjson, len(fast), len(strict), err)
		}
		for i := range fast {
			if !slices.Equal(fast[i].Shape, strict[i].Shape) || !sameFloats(fast[i].Values, strict[i].Values) {
				t.Fatalf("slabs %q line %d: fast %v, strict %v", body, i, fast[i], strict[i])
			}
		}
	}
}

// decoderSeeds are the fuzz corpora's seeds plus the edges of the fast
// grammar: number forms JSON allows or forbids, int64 overflow, keys
// repeated or case-folded, a byte-order mark, and whitespace everywhere.
func decoderSeeds() []string {
	seeds := append(append([]string(nil), requestSeeds...), ingestSeeds...)
	return append(seeds,
		`{"point":[-0,0]}`, `{"point":[01,2]}`, `{"point":[1e2,2]}`, `{"point":[1.5,2]}`,
		`{"point":[9223372036854775807,-9223372036854775808]}`,
		`{"point":[9223372036854775808,0]}`, `{"point":[-9223372036854775809,0]}`,
		`{"point":[1,2],"point":[3,4]}`, `{"Point":[1,2]}`, `{"p\u006fint":[1,2]}`,
		"\ufeff{\"point\":[1,2]}",
		" \t\r\n{ \t\r\n\"point\" \t\r\n: \t\r\n[ \t\r\n1 \t\r\n, \t\r\n2 \t\r\n] \t\r\n} \t\r\n",
		` { "extent" : [ 3 , 4 ] , "start" : [ 1 , 2 ] } `,
		`{"start":[1,2],"extent":[3,4],"start":[0,0]}`,
		`{"shape":[2,1],"values":[1e400,0]}`, `{"shape":[2,1],"values":[1e-400,-0]}`,
		`{"shape":[2,1],"values":[-0.0e+0,4.9e-324]}`, `{"shape":[2,1],"values":[1.5,-2.25E-3]}`,
		`{"shape":[2,1],"values":[1.,2]}`, `{"shape":[2,1],"values":[.5,2]}`, `{"shape":[2,1],"values":[+1,2]}`,
		`{"shape":[2,1],"values":[0x10,2]}`, `{"shape":[2,1],"values":[1,2],"values":[3,4]}`,
		"{\"shape\":[2,1],\"values\":[1,2]}\n\n{\"values\":[3,4],\"shape\":[2,1]}\n",
		"{\"shape\":[2,1],\"values\":[1,2]} {\"shape\":[2,1],\"values\":[3,4]}",
		`{"shape":[],"values":[]}`, ``, "\n",
	)
}

func TestFastDecodersAgreeWithEncodingJSON(t *testing.T) {
	for _, s := range decoderSeeds() {
		checkDecoders(t, []byte(s))
	}
	// And that the fast path takes the canonical bodies at all.
	for body, decoder := range map[string]func(*scratch) bool{
		` {"point":[-0,15]} `:                             (*scratch).decodePoint,
		`{"extent":[1,2],"start":[3,4]}`:                  (*scratch).decodeRange,
		"{\"point\" :\n[ 9223372036854775807 , -1 ]}\r\n": (*scratch).decodePoint,
	} {
		if !decoder(&scratch{body: []byte(body)}) {
			t.Errorf("fast path declined %q", body)
		}
	}
	for body, ndjson := range map[string]bool{
		`{"shape":[2,1],"values":[-0.0e+0,4.9e-324]}`:                          false,
		"{\"values\":[3,4],\"shape\":[2,1]}{\"shape\":[1,1],\"values\":[1E9]}": true,
		"\n \n": true,
	} {
		if _, ok := fastSlabs([]byte(body), ndjson); !ok {
			t.Errorf("fast path declined %q (ndjson %v)", body, ndjson)
		}
	}
}

// TestAppendedResponsesMatchEncodingJSON holds the appenders to what
// json.Encoder.Encode writes, on random responses and on the floats where
// encoding/json switches notation or rounds.
func TestAppendedResponsesMatchEncodingJSON(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 2.225073858507201e-308, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e-7, 1.5e-9, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.2345e22, math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.1, 1.0 / 3, 123456789.125, 5e-324, 1e-10, 9.999999999999999e20}
	rng := rand.New(rand.NewSource(30))
	randFloat := func() float64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	randInts := func() []int {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		v := make([]int, 1+rng.Intn(4))
		for i := range v {
			v[i] = int(rng.Int63()) - int(rng.Int63())
		}
		return v
	}
	check := func(what string, v any, got []byte) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s %+v:\n got %s\nwant %s", what, v, got, want)
		}
	}
	for _, f := range edges {
		check("edge", pointResponse{Point: []int{1}, Value: f}, (&pointResponse{Point: []int{1}, Value: f}).appendJSON(nil))
	}
	for i := 0; i < 20000; i++ {
		f := randFloat()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		epoch := uint64(0)
		if rng.Intn(2) == 0 {
			epoch = rng.Uint64()
		}
		p := pointResponse{Point: randInts(), Value: f, BlocksRead: rng.Intn(100), Degraded: rng.Intn(2) == 0, Epoch: epoch}
		check("point", p, p.appendJSON(nil))
		r := rangeResponse{Start: randInts(), Extent: randInts(), Sum: f, BlocksRead: rng.Intn(100), Degraded: rng.Intn(2) == 0, Epoch: epoch}
		check("range", r, r.appendJSON([]byte{}))
	}
	msgs := []string{"", "ingest: backlog", `<tag> & "quoted" \ back`, "tab\tnew\nline\x01", "é ✓ \u2028 \u2029", "bad \xff utf-8"}
	for i := 0; i < 2000; i++ {
		res := ingestResult{Error: msgs[rng.Intn(len(msgs))]}
		if rng.Intn(2) == 0 {
			res.Offset, res.Cells, res.Group, res.Slabs = randInts(), rng.Intn(3)*rng.Int(), int64(rng.Intn(3))*rng.Int63(), rng.Intn(3)
		}
		check("ingest", res, res.appendJSON(nil))
	}
}

// nonFiniteStore holds one +Inf cell among zeros, so its transform carries
// infinities and NaNs and the queries over that cell are not finite.
func nonFiniteStore(t *testing.T, form shiftsplit.Form) *shiftsplit.Store {
	t.Helper()
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{Shape: []int{8, 8}, Form: form})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	src := ndarray.New(8, 8)
	src.Set(math.Inf(1), 2, 3)
	if form == shiftsplit.Standard {
		err = st.Materialize(src)
	} else {
		err = st.TransformChunked(src, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestNonFiniteAnswerIs500 is the regression test for answers JSON cannot
// carry: they used to go out as 200 with an empty body (the encoder's error
// was dropped). They are the store's fault, so 500 with a JSON error,
// counted as failed.
func TestNonFiniteAnswerIs500(t *testing.T) {
	for _, form := range []shiftsplit.Form{shiftsplit.Standard, shiftsplit.NonStandard} {
		st := nonFiniteStore(t, form)
		srv := New(st, Config{})
		for _, c := range []struct {
			path, body string
			answer     func() (float64, int, error)
		}{
			{"/v1/point", `{"point":[2,3]}`, func() (float64, int, error) { return st.Point(2, 3) }},
			{"/v1/rangesum", `{"start":[0,0],"extent":[8,8]}`, func() (float64, int, error) {
				return st.RangeSum([]int{0, 0}, []int{8, 8})
			}},
		} {
			if v, _, err := c.answer(); err != nil || !(math.IsInf(v, 0) || math.IsNaN(v)) {
				t.Fatalf("%v %s: library answers %v, %v; the case needs a non-finite answer", form, c.path, v, err)
			}
			failed := srv.failed.Load()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
			var er errorResponse
			if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
				t.Errorf("%v %s: %d %q, want 500 with a JSON error", form, c.path, rec.Code, rec.Body.String())
			}
			if srv.failed.Load() != failed+1 {
				t.Errorf("%v %s: failed count %d, want %d", form, c.path, srv.failed.Load(), failed+1)
			}
		}
		if form != shiftsplit.Standard {
			continue // the OLAP operators need a standard-form store
		}
		// A rollup through the +Inf row carries it into the result cube.
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/olap/rollup", strings.NewReader(`{"dim":1}`)))
		var er errorResponse
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &er) != nil || er.Error == "" {
			t.Errorf("rollup: %d %q, want 500 with a JSON error", rec.Code, rec.Body.String())
		}
	}
}

// allocRecorder is a reusable ResponseWriter that keeps the last body.
type allocRecorder struct {
	hdr    http.Header
	status int
	body   []byte
}

func (r *allocRecorder) Header() http.Header { return r.hdr }

func (r *allocRecorder) WriteHeader(code int) { r.status = code }

func (r *allocRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.body = append(r.body[:0], p...)
	return len(p), nil
}

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct {
	*bytes.Reader
}

func (rewindBody) Close() error { return nil }

// handlerOps returns, per form and route, one reusable request on a warm
// durable versioned serving store, as the benchmark drives them.
func handlerOps(t testing.TB) map[string]func() int {
	ops := make(map[string]func() int)
	for _, form := range []shiftsplit.Form{shiftsplit.Standard, shiftsplit.NonStandard} {
		h := New(wireStore(t, form, false, false), Config{}).Handler()
		for route, body := range map[string]string{
			"/v1/point":    `{"point":[5,11]}`,
			"/v1/rangesum": `{"start":[1,2],"extent":[13,9]}`,
		} {
			req := httptest.NewRequest("POST", route, nil)
			req.Header.Set("Content-Type", "application/json")
			rd := rewindBody{bytes.NewReader([]byte(body))}
			rec := &allocRecorder{hdr: make(http.Header)}
			op := func() int {
				rd.Seek(0, io.SeekStart)
				req.Body, rec.status = rd, 0
				h.ServeHTTP(rec, req)
				return rec.status
			}
			if status := op(); status != http.StatusOK { // warms the cache and the pools
				t.Fatalf("%v %s: status %d: %s", form, route, status, rec.body)
			}
			ops[form.String()+route] = op
		}
	}
	return ops
}

// TestHandlerAllocBudget gates the request path: a warm point or range-sum
// request allocates its snapshot and nothing else. Two is the budget.
func TestHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for name, op := range handlerOps(t) {
		if got := testing.AllocsPerRun(500, func() { op() }); got > 2 {
			t.Errorf("%s: %.2f allocations per request, budget 2", name, got)
		}
	}
}

func benchmarkHandler(b *testing.B, route string) {
	ops := handlerOps(b)
	for _, form := range []shiftsplit.Form{shiftsplit.Standard, shiftsplit.NonStandard} {
		op := ops[form.String()+route]
		b.Run(form.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if op() != http.StatusOK {
					b.Fatal("request failed")
				}
			}
		})
	}
}

func BenchmarkHandlerPoint(b *testing.B) { benchmarkHandler(b, "/v1/point") }

func BenchmarkHandlerRangeSum(b *testing.B) { benchmarkHandler(b, "/v1/rangesum") }

// benchmarkOLAP drives one OLAP route through the handler on the 1024²
// band store (cache off) and reports the device blocks read per request.
// "steady" serves one epoch; "flip" merges a 2×2 delta before every request
// (outside the timer), so each request runs on a newly flipped epoch.
func benchmarkOLAP(b *testing.B, route, body string) {
	st := bandStore(b, false)
	h := New(st, Config{}).Handler()
	delta := shiftsplit.Transform(shiftsplit.FromSlice([]float64{1, 2, 3, 4}, 2, 2), shiftsplit.Standard)
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", route, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d: %s", route, body, rec.Code, rec.Body)
		}
	}
	for _, regime := range []string{"steady", "flip"} {
		b.Run(regime, func(b *testing.B) {
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			var reads int64
			for i := 0; i < b.N; i++ {
				if regime == "flip" {
					b.StopTimer()
					if err := st.MergeBlock(shiftsplit.CubeBlock(1, i%512, 0), delta); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				before := st.Stats().Reads
				serve()
				reads += st.Stats().Reads - before
			}
			b.ReportMetric(float64(reads)/float64(b.N), "blocks/op")
		})
	}
}

func BenchmarkHandlerOLAPRollup(b *testing.B) { benchmarkOLAP(b, "/v1/olap/rollup", `{"dim":0}`) }

func BenchmarkHandlerOLAPSlice(b *testing.B) {
	benchmarkOLAP(b, "/v1/olap/slice", `{"dim":0,"index":513}`)
}

func BenchmarkHandlerOLAPDice(b *testing.B) {
	benchmarkOLAP(b, "/v1/olap/dice", `{"dim":0,"start":128,"length":64}`)
}
