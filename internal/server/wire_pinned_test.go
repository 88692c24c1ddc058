package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// The wire pins hold the hot routes to the exact bytes a fixed script of
// good and bad requests drew from the server before their request path was
// rewritten: status, the headers a client can act on (Content-Type,
// Retry-After, Connection), and the body, byte for byte. Each request
// travels on its own connection to a real net/http server, so a body over
// the cap shows its connection close.

// wireBodyCap is the MaxBodyBytes of the pinned servers: small, so an
// oversized body is a short literal.
const wireBodyCap = 96

// wireStore builds a 16x16 durable versioned serving store of small
// integers, whose transforms and sums are exact in float64 under any
// summation order: materialized whole or chunk by chunk, and with stale
// marked as a store whose scaling slots are stale.
func wireStore(t testing.TB, form shiftsplit.Form, materialize, stale bool) *shiftsplit.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cube.wav")
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{
		Shape: []int{16, 16}, Form: form, TileBits: 2, Path: path, Durable: true, Versioned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := ndarray.New(16, 16)
	src.Each(func(c []int, _ float64) { src.Set(float64((c[0]*16+c[1])%13-6), c...) })
	if materialize {
		err = st.Materialize(src)
	} else {
		err = st.TransformChunked(src, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if stale {
		staleSidecar(t, path)
	}
	serving, err := shiftsplit.OpenServing(path, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serving.Close() })
	return serving
}

// staleSidecar marks a closed store's scaling slots stale in its sidecar,
// as a store last maintained by a binary that did not keep them says, so
// its points take the root path.
func staleSidecar(t testing.TB, path string) {
	t.Helper()
	data, err := os.ReadFile(path + ".meta.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	meta["materialized"] = false
	if data, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".meta.json", data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wireRequest is one scripted request: a body sent with a Content-Length,
// or chunked when chunked is set.
type wireRequest struct {
	path, contentType, body string
	chunked                 bool
}

// roundTrip sends one request on a fresh connection and renders the reply.
func roundTrip(t *testing.T, addr string, rq wireRequest) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ct := rq.contentType
	if ct == "" {
		ct = "application/json"
	}
	var msg strings.Builder
	fmt.Fprintf(&msg, "POST %s HTTP/1.1\r\nHost: wire\r\nContent-Type: %s\r\n", rq.path, ct)
	if rq.chunked {
		fmt.Fprintf(&msg, "Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(rq.body), rq.body)
	} else {
		fmt.Fprintf(&msg, "Content-Length: %d\r\n\r\n%s", len(rq.body), rq.body)
	}
	if _, err := io.WriteString(conn, msg.String()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d ct=%q retry=%q close=%v %q", resp.StatusCode,
		resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), resp.Close, body)
}

// runWireScript plays a script against one server and returns the
// transcript, one line per request.
func runWireScript(t *testing.T, h http.Handler, script []wireRequest) string {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	var out strings.Builder
	for _, rq := range script {
		fmt.Fprintf(&out, "%s %q -> %s\n", rq.path, rq.body, roundTrip(t, addr, rq))
	}
	return out.String()
}

// pointScript and rangeScript exercise both decoders' edges: what strict
// encoding/json accepts beyond the canonical shape (case-folded and
// repeated keys, -0), what it rejects, and bodies at and over the cap.
var pointScript = []wireRequest{
	{path: "/v1/point", body: `{"point":[5,7]}`},
	{path: "/v1/point", body: " \t{ \"point\" :\r\n[ 0 , 15 ] }\n"},
	{path: "/v1/point", body: `{"point":[-0,3]}`},
	{path: "/v1/point", body: `{"POINT":[2,9]}`},
	{path: "/v1/point", body: `{"point":[1,1],"point":[4,4]}`},
	{path: "/v1/point", body: `{"point":[1.0,2]}`},
	{path: "/v1/point", body: `{"point":[1e1,2]}`},
	{path: "/v1/point", body: `{"point":[01,2]}`},
	{path: "/v1/point", body: `{"point":[9223372036854775808,0]}`},
	{path: "/v1/point", body: `{"point":null}`},
	{path: "/v1/point", body: `{"point":[]}`},
	{path: "/v1/point", body: `{"point":[1]}`},
	{path: "/v1/point", body: `{"point":[16,0]}`},
	{path: "/v1/point", body: `{"point":[-1,0]}`},
	{path: "/v1/point", body: `{"point":[1,2],"bogus":true}`},
	{path: "/v1/point", body: `{"point":[1,2]} x`},
	{path: "/v1/point", body: `{"point":[1,2]}{"point":[1,2]}`},
	{path: "/v1/point", body: "\ufeff{\"point\":[1,2]}"},
	{path: "/v1/point", body: `{"point":"1,2"}`},
	{path: "/v1/point", body: `{"point":[1,2]`},
	{path: "/v1/point", body: ``},
	{path: "/v1/point", body: `null`},
	{path: "/v1/point", body: `{"point":[3,4]}`, chunked: true},
	{path: "/v1/point", body: `{"point":[3,4]}` + strings.Repeat(" ", wireBodyCap-15)},
	{path: "/v1/point", body: `{"point":[3,4]}` + strings.Repeat(" ", wireBodyCap)},
	{path: "/v1/point", body: `x` + strings.Repeat(" ", wireBodyCap)},
}

var rangeScript = []wireRequest{
	{path: "/v1/rangesum", body: `{"start":[0,0],"extent":[8,8]}`},
	{path: "/v1/rangesum", body: `{"extent":[3,5],"start":[2,7]}`},
	{path: "/v1/rangesum", body: ` { "start" : [ 1 , 1 ] , "extent" : [ 15 , 15 ] } `},
	{path: "/v1/rangesum", body: `{"Start":[0,0],"Extent":[16,16]}`},
	{path: "/v1/rangesum", body: `{"start":[0,0],"extent":[1,1],"start":[5,5]}`},
	{path: "/v1/rangesum", body: `{"start":[0,0]}`},
	{path: "/v1/rangesum", body: `{"start":[0,0],"extent":[0,4]}`},
	{path: "/v1/rangesum", body: `{"start":[-4,0],"extent":[4,4]}`},
	{path: "/v1/rangesum", body: `{"start":[9223372036854775800,0],"extent":[9,4]}`},
	{path: "/v1/rangesum", body: `{"start":[0],"extent":[4]}`},
	{path: "/v1/rangesum", body: `{"start":[0,0],"extent":[2.5,4]}`},
	{path: "/v1/rangesum", body: `{"start":[0,0],"extent":[4,4],"every":2}`},
	{path: "/v1/rangesum", body: `{"start":[0,0],"extent":[4,4]},`},
	{path: "/v1/rangesum", body: `[0,0]`},
}

// progressiveScript and olapScript hold the routes that plan a standard
// box per dimension: the step order and coefficient counts of a stream,
// each cube's cells, and every line's blocks_read.
var progressiveScript = []wireRequest{
	{path: "/v1/progressive", body: `{"start":[0,0],"extent":[8,8]}`},
	{path: "/v1/progressive", body: `{"start":[2,3],"extent":[5,9],"every":4}`},
	{path: "/v1/progressive", body: `{"start":[15,0],"extent":[1,16],"every":3}`},
	{path: "/v1/progressive", body: `{"start":[0,0],"extent":[17,1]}`},
	{path: "/v1/progressive", body: `{"start":[4,4],"extent":[0,2]}`},
	{path: "/v1/progressive", body: `{"start":[4,4]}`},
}

var olapScript = []wireRequest{
	{path: "/v1/olap/rollup", body: `{"dim":1}`},
	{path: "/v1/olap/rollup", body: `{"dim":0}`},
	{path: "/v1/olap/rollup", body: `{"dim":2}`},
	{path: "/v1/olap/slice", body: `{"dim":1,"index":3}`},
	{path: "/v1/olap/slice", body: `{"dim":0,"index":15}`},
	{path: "/v1/olap/slice", body: `{"dim":0,"index":16}`},
	{path: "/v1/olap/dice", body: `{"dim":1,"start":4,"length":4}`},
	{path: "/v1/olap/dice", body: `{"dim":0,"start":8,"length":2}`},
	{path: "/v1/olap/dice", body: `{"dim":0,"start":3,"length":5}`},
	{path: "/v1/olap/dice", body: `{"dim":0,"start":12,"length":8}`},
	{path: "/v1/olap/dice", body: `{"dim":1,"start":2,"length":0}`},
}

var ingestScript = []wireRequest{
	{path: "/v1/ingest", body: `{"shape":[4,1],"values":[1,2,3,4]}`},
	{path: "/v1/ingest", body: ` {"values":[0.5,-0,1e-7,2E+3],"shape":[4,1]} `},
	{path: "/v1/ingest", body: `{"shape":[4,1],"values":[1,2,3]}`},
	{path: "/v1/ingest", body: `{"shape":[4,1],"values":[1,2,3,1e400]}`},
	{path: "/v1/ingest", body: `{"shape":[4,1],"values":[1,2,null,4]}`},
	{path: "/v1/ingest", body: `{"shape":[4,1],"values":[1,2,3,.5]}`},
	{path: "/v1/ingest", body: `{"shape":[4,1],"values":[1,2,3,4],"extra":1}`},
	{path: "/v1/ingest", body: `{"shape":[4,1],"values":[1,2,3,4]}{}`},
	{path: "/v1/ingest", body: `{"Shape":[4,1],"values":[5,6,7,8]}`},
	{path: "/v1/ingest", contentType: "application/x-ndjson",
		body: "{\"shape\":[4,1],\"values\":[1,2,3,4]}\n{\"shape\":[4,1],\"values\":[5.25,6,7,8]}\n"},
	{path: "/v1/ingest", contentType: "application/x-ndjson",
		body: "{\"shape\":[4,1],\"values\":[1,2,3,4]}{\"shape\":[4,1],\"values\":[4,3,2,1]}"},
	{path: "/v1/ingest", contentType: "application/x-ndjson",
		body: "\n\n{\"shape\":[4,2],\"values\":[1,2,3,4,5,6,7,8]}\n\n"},
	{path: "/v1/ingest", contentType: "application/x-ndjson",
		body: "{\"shape\":[4,1],\"values\":[1,2,3,4]}\n{\"shape\":[4,1],\"values\":[1,2]}\n"},
	{path: "/v1/ingest", contentType: "application/x-ndjson",
		body: "{\"shape\":[4,1],\"values\":[1,2,3,4]}\n{\"shape\":[4,1],\"values\":[1,2,3,4],\"x\":0}\n"},
	{path: "/v1/ingest", contentType: "application/x-ndjson",
		body: "{\"shape\":[4,1],\"values\":[1,2,3,4]}\n{\"shape\":"},
	{path: "/v1/ingest", contentType: "application/x-ndjson", body: "\n \n"},
	{path: "/v1/ingest", contentType: "application/ndjson; charset=utf-8",
		body: "{\"shape\":[4,1],\"values\":[9,9,9,9]}"},
	{path: "/v1/ingest", contentType: "application/x-ndjson",
		body: "{\"shape\":[4,1],\"values\":[1,2,3,4]}\n" + strings.Repeat(" ", wireBodyCap)},
}

// wireCase is one pinned transcript: a script played against one server.
type wireCase struct {
	name   string
	h      http.Handler
	script []wireRequest
}

// wireCases builds the pinned servers — standard materialized, standard on
// the root path (its scaling slots marked stale), non-standard maintained
// by the chunked transform, and one mounting an ingester — and pairs each
// with its scripts.
func wireCases(t *testing.T) []wireCase {
	t.Helper()
	cfg := Config{MaxBodyBytes: wireBodyCap}
	std := New(wireStore(t, shiftsplit.Standard, true, false), cfg).Handler()
	stdRoot := New(wireStore(t, shiftsplit.Standard, false, true), cfg).Handler()
	nonStd := New(wireStore(t, shiftsplit.NonStandard, false, false), cfg).Handler()
	app, err := appender.New([]int{4, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.New(app, ingest.Config{Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { in.Close() })
	cfg.Ingest = in
	withIngest := New(wireStore(t, shiftsplit.Standard, true, false), cfg).Handler()
	return []wireCase{
		{"standard/point", std, pointScript},
		{"standard/rangesum", std, rangeScript},
		{"standard-rootpath/point", stdRoot, pointScript},
		{"nonstandard/point", nonStd, pointScript},
		{"nonstandard/rangesum", nonStd, rangeScript},
		{"standard/progressive", std, progressiveScript},
		{"nonstandard/progressive", nonStd, progressiveScript},
		{"standard/olap", std, olapScript},
		{"nonstandard/olap", nonStd, olapScript},
		{"ingest", withIngest, ingestScript},
	}
}

func TestWirePinned(t *testing.T) {
	for _, c := range wireCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got := runWireScript(t, c.h, c.script)
			if want := wirePinned[c.name]; got != want {
				t.Errorf("wire bytes moved\n got: %q\nwant: %q", got, want)
			}
		})
	}
}
