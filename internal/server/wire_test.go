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
	"strconv"
	"strings"
	"testing"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
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
		// The one-pass scanner's edges: 15 significant digits and 22
		// fraction digits are the float fast path's last, one more of
		// either goes to strconv; 19 digits is the most an int can have.
		`{"shape":[4,1],"values":[999999999999999,9999999999999999,0.000000000000001,0.0000000000000001]}`,
		`{"shape":[4,1],"values":[9007199254740993,-1.000000000000000,0.0000000000000000000001,0.00000000000000000000001]}`,
		`{"shape":[4,1],"values":[1234567.891234567,0.1234567890123456789012,-0,-0.0]}`,
		`{"point":[-9223372036854775807,1000000000000000000]}`, `{"point":[10000000000000000000,0]}`,
		`{"point":[-18446744073709551616,0]}`, `{"point":[0000,0]}`, `{"point":[-,0]}`, `{"point":[1.0,0]}`,
	)
}

// numberCases returns n seeded JSON numbers around the scanner's edges:
// shortest 'f', 'e' and 'g' forms of random float64 bit patterns; 15-, 16-
// and 17-digit mantissas; 22 and 23 fraction digits, some of them leading
// zeros; 19- to 25-digit integers and the int64 edges; and the values
// where a float64 runs out.
func numberCases(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	digits := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		b[0] = byte('1' + rng.Intn(9))
		return string(b)
	}
	sign := func(s string) string {
		if rng.Intn(2) == 0 {
			return "-" + s
		}
		return s
	}
	cases := []string{"0", "-0", "0.0", "-0.0", "4.9e-324", "-4.9e-324", "1e-400", "1e400", "-1e400",
		"9223372036854775807", "-9223372036854775808", "9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "9999999999999999999", "99999999999999999999",
		"1797693134862315708145274237317043567981e269", "2.2250738585072011e-308", "9007199254740993"}
	for len(cases) < n {
		var c string
		switch rng.Intn(6) {
		case 0: // a random float64, shortest form
			f := math.Float64frombits(rng.Uint64())
			if math.IsInf(f, 0) || math.IsNaN(f) {
				continue
			}
			c = strconv.FormatFloat(f, "feg"[rng.Intn(3)], -1, 64)
			if rng.Intn(4) == 0 {
				c = strings.Replace(c, "e", "E", 1)
			}
		case 1: // 15 to 17 significant digits, the point anywhere
			m := digits(15 + rng.Intn(3))
			k := rng.Intn(len(m) + 1)
			switch {
			case k == len(m):
				c = m
			case k == 0:
				c = "0." + m
			default:
				c = m[:k] + "." + m[k:]
			}
			c = sign(c)
		case 2: // 22 or 23 fraction digits, leading zeros included
			frac := 22 + rng.Intn(2)
			zeros := rng.Intn(frac)
			c = sign(strconv.Itoa(rng.Intn(3)) + "." + strings.Repeat("0", zeros) + digits(frac-zeros))
		case 3: // 19 to 25 digits, integers
			c = sign(digits(19 + rng.Intn(7)))
		case 4: // within a few of an int64 edge
			v := math.MaxInt64 - rng.Int63n(4)
			if rng.Intn(2) == 0 {
				c = strconv.FormatInt(-v-rng.Int63n(2), 10)
			} else {
				c = strconv.FormatUint(uint64(v)+uint64(rng.Intn(4)), 10)
			}
		default: // few digits, the shape the benchmark sends
			c = strconv.FormatFloat(float64(rng.Intn(2000001)-1000000)/math.Pow10(rng.Intn(8)), 'f', -1, 64)
		}
		cases = append(cases, c)
	}
	return cases
}

// TestNumberScannerAgreesWithStrconv is the one-pass scanner's property
// test: each of 100 000 seeded numbers, as an ingest value and as point and
// box coordinates, decodes through the fast path exactly as encoding/json
// decodes it, and the fast path takes every number that json decodes at
// all.
func TestNumberScannerAgreesWithStrconv(t *testing.T) {
	for _, c := range numberCases(61, 100_000) {
		line := []byte(`{"shape":[1,1],"values":[` + c + `]}`)
		checkDecoders(t, line)
		if _, err := strconv.ParseFloat(c, 64); err == nil {
			if _, ok := fastSlabs(line, false); !ok {
				t.Fatalf("fast path declined the value %s", c)
			}
		}
		point := []byte(`{"point":[` + c + `,1]}`)
		box := []byte(`{"start":[1,` + c + `],"extent":[` + c + `]}`)
		checkDecoders(t, point)
		checkDecoders(t, box)
		if _, err := strconv.ParseInt(c, 10, strconv.IntSize); err == nil {
			if !(&scratch{body: point}).decodePoint() || !(&scratch{body: box}).decodeRange() {
				t.Fatalf("fast path declined the coordinate %s", c)
			}
		}
	}
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

// ingestBody is the benchmark harness's ingest request: 16 NDJSON lines,
// each a [64,1] slab of cells in [-100, 100] with two decimals.
func ingestBody(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b []byte
	for s := 0; s < 16; s++ {
		b = append(b, `{"shape":[64,1],"values":[`...)
		for c := 0; c < 64; c++ {
			if c > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(rng.Intn(20001)-10000)/100, 'f', -1, 64)
		}
		b = append(b, "]}\n"...)
	}
	return b
}

// ingestRequest returns a reusable NDJSON ingest request of body and a
// function that rewinds it for the next round.
func ingestRequest(body []byte) (*http.Request, func()) {
	req := httptest.NewRequest("POST", "/v1/ingest", nil)
	req.Header.Set("Content-Type", "application/x-ndjson")
	rd := rewindBody{bytes.NewReader(body)}
	return req, func() {
		rd.Seek(0, io.SeekStart)
		req.Body = rd
	}
}

// TestIngestDecodeAllocBudget gates the ingest route's decoding: the fast
// path turns the benchmark's 16-line body into 16 slabs with 64
// allocations, per line the values slice the slab adopts and the slab's
// array, shape and strides. The numbers are scanned through scratch.
func TestIngestDecodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	s := New(nil, Config{})
	req, rewind := ingestRequest(ingestBody(1))
	rec := &allocRecorder{hdr: make(http.Header)}
	sc := new(scratch)
	got := testing.AllocsPerRun(200, func() {
		rewind()
		if !s.readSlabs(rec, req, sc, true) || len(sc.slabs) != 16 {
			t.Fatalf("decode failed: %d slabs, status %d: %s", len(sc.slabs), rec.status, rec.body)
		}
		clear(sc.slabs)
		sc.slabs = sc.slabs[:0]
	})
	if got > 64 {
		t.Errorf("%.2f allocations per decode, budget 64", got)
	}
}

// BenchmarkHandlerIngest drives the benchmark harness's ingest request
// through Handler().ServeHTTP: decode, one group commit of its 16 slabs on
// an in-memory appender, and the NDJSON response. Every 256 requests it
// starts a fresh [64,64] domain outside the timer, as the harness does
// per pass.
func BenchmarkHandlerIngest(b *testing.B) {
	req, rewind := ingestRequest(ingestBody(1))
	rec := &allocRecorder{hdr: make(http.Header)}
	var h http.Handler
	var in *ingest.Ingester
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			b.StopTimer()
			if in != nil {
				_ = in.Close() // Close only drains and always returns nil
			}
			app, err := appender.New([]int{64, 64}, 3)
			if err != nil {
				b.Fatal(err)
			}
			if in, err = ingest.New(app, ingest.Config{Dim: 1}); err != nil {
				b.Fatal(err)
			}
			h = New(nil, Config{Ingest: in}).Handler()
			b.StartTimer()
		}
		rewind()
		rec.status = 0
		h.ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			b.Fatalf("status %d: %s", rec.status, rec.body)
		}
	}
	b.StopTimer()
	_ = in.Close()
}
