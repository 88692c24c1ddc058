package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit"
	"github.com/shiftsplit/shiftsplit/internal/dataset"
)

// buildStore materializes a standard-form store on disk and reopens it for
// serving with the given cache size (0 disables the cache).
func buildStore(t testing.TB, shape []int, cacheBlocks int) *shiftsplit.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cube.wav")
	st, err := shiftsplit.CreateStore(shiftsplit.StoreOptions{Shape: shape, Form: shiftsplit.Standard, TileBits: 2, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Materialize(dataset.Dense(shape, 7)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	serving, err := shiftsplit.OpenServing(path, cacheBlocks, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serving.Close() })
	return serving
}

func newTestServer(t testing.TB, st *shiftsplit.Store, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(st, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestPointAndRangeSumEndpoints(t *testing.T) {
	shape := []int{32, 32}
	st := buildStore(t, shape, 64)
	ts := newTestServer(t, st, Config{})

	wantV, _, err := st.Point(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/point", `{"point":[5,7]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("point status %d: %s", resp.StatusCode, body)
	}
	var pr pointResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("point response %q: %v", body, err)
	}
	if math.Abs(pr.Value-wantV) > 1e-9 {
		t.Errorf("point value %v, want %v", pr.Value, wantV)
	}
	if pr.BlocksRead != 1 {
		t.Errorf("materialized point read %d blocks, want 1", pr.BlocksRead)
	}

	wantSum, _, err := st.RangeSum([]int{4, 4}, []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/rangesum", `{"start":[4,4],"extent":[8,16]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rangesum status %d: %s", resp.StatusCode, body)
	}
	var rr rangeResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if math.Abs(rr.Sum-wantSum) > 1e-9 {
		t.Errorf("range sum %v, want %v", rr.Sum, wantSum)
	}
}

func TestBadRequestsGet400NotPanic(t *testing.T) {
	st := buildStore(t, []int{16, 16}, 0)
	ts := newTestServer(t, st, Config{})
	cases := []struct{ path, body string }{
		{"/v1/point", `{`},
		{"/v1/point", `{"point":[1]}`},
		{"/v1/point", `{"point":[-1,3]}`},
		{"/v1/point", `{"point":[1,99]}`},
		{"/v1/point", `{"point":[1,2],"bogus":true}`},
		{"/v1/rangesum", `{"start":[0,0],"extent":[0,4]}`},
		{"/v1/rangesum", `{"start":[-4,0],"extent":[4,4]}`},
		{"/v1/rangesum", `{"start":[9223372036854775800,0],"extent":[9,4]}`},
		{"/v1/progressive", `{"start":[0,0],"extent":[99,4]}`},
		{"/v1/olap/rollup", `{"dim":7}`},
		{"/v1/olap/slice", `{"dim":0,"index":-2}`},
		{"/v1/olap/dice", `{"dim":1,"start":3,"length":3}`},
		{"/v1/olap/dice", `{"dim":1,"start":8,"length":9223372036854775807}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", c.path, c.body, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s %s: malformed error body %q", c.path, c.body, body)
		}
	}
}

func TestProgressiveStreamsAndConverges(t *testing.T) {
	shape := []int{32, 32}
	st := buildStore(t, shape, 64)
	ts := newTestServer(t, st, Config{})
	exact, _, err := st.RangeSum([]int{3, 5}, []int{9, 13})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/progressive", "application/json",
		strings.NewReader(`{"start":[3,5],"extent":[9,13],"every":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var steps []progressiveStep
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var st progressiveStep
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		steps = append(steps, st)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(steps) < 2 {
		t.Fatalf("got %d stream lines, want several", len(steps))
	}
	final := steps[len(steps)-1]
	if !final.Final {
		t.Error("last line not marked final")
	}
	if math.Abs(final.Estimate-exact) > 1e-9 {
		t.Errorf("final estimate %v, exact %v", final.Estimate, exact)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Coefficients < steps[i-1].Coefficients {
			t.Errorf("steps not monotone at %d", i)
		}
	}
}

// TestOLAPEndpointsMatchDirectOperators holds every route, along every
// dimension of a 2-d and a 3-d store, to the dense operator applied to the
// whole transform and inverted: max|Δ| ≤ 1e-12 · max|expected|.
func TestOLAPEndpointsMatchDirectOperators(t *testing.T) {
	for _, shape := range [][]int{{16, 8}, {8, 4, 16}} {
		st := buildStore(t, shape, 64)
		ts := newTestServer(t, st, Config{})
		hat, err := st.ReadTransform()
		if err != nil {
			t.Fatal(err)
		}
		check := func(route, body string, want *shiftsplit.Array, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			resp, b := postJSON(t, ts.URL+"/v1/olap/"+route, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v %s %s: status %d: %s", shape, route, body, resp.StatusCode, b)
			}
			var or olapResponse
			if err := json.Unmarshal(b, &or); err != nil {
				t.Fatal(err)
			}
			wantData := shiftsplit.Inverse(want, shiftsplit.Standard)
			if fmt.Sprint(or.Shape) != fmt.Sprint(wantData.Shape()) {
				t.Fatalf("%v %s %s: shape %v, want %v", shape, route, body, or.Shape, wantData.Shape())
			}
			scale, diff := 0.0, 0.0
			for i, v := range wantData.Data() {
				scale, diff = math.Max(scale, math.Abs(v)), math.Max(diff, math.Abs(or.Values[i]-v))
			}
			if diff > 1e-12*scale {
				t.Errorf("%v %s %s: max|Δ| %g, max|expected| %g", shape, route, body, diff, scale)
			}
		}
		for dim, n := range shape {
			rolled, err := shiftsplit.Rollup(hat, dim)
			check("rollup", fmt.Sprintf(`{"dim":%d}`, dim), rolled, err)
			for _, x := range []int{0, n/2 + 1, n - 1} {
				sliced, err := shiftsplit.SliceAt(hat, dim, x)
				check("slice", fmt.Sprintf(`{"dim":%d,"index":%d}`, dim, x), sliced, err)
			}
			for _, run := range [][2]int{{0, n}, {n / 2, n / 4}, {n - 1, 1}} {
				diced, err := shiftsplit.DiceDyadic(hat, dim, run[0], run[1])
				check("dice", fmt.Sprintf(`{"dim":%d,"start":%d,"length":%d}`, dim, run[0], run[1]), diced, err)
			}
		}
	}
}

func TestHealthzAndStats(t *testing.T) {
	st := buildStore(t, []int{16, 16}, 32)
	ts := newTestServer(t, st, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	// Warm the cache with repeated queries, then check observability.
	for i := 0; i < 10; i++ {
		postJSON(t, ts.URL+"/v1/point", `{"point":[3,3]}`)
	}
	resp2, body := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp2.StatusCode)
	}
	var sr statsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("stats body %q: %v", body, err)
	}
	if sr.Queries.Served < 10 {
		t.Errorf("served = %d, want >= 10", sr.Queries.Served)
	}
	if sr.Cache == nil {
		t.Fatal("stats missing cache section on a cached store")
	}
	if sr.Cache.Hits == 0 {
		t.Error("cache hits = 0 after repeated identical queries")
	}
	if sr.Store.Blocks == 0 || sr.Store.BlockSize == 0 {
		t.Errorf("store stats incomplete: %+v", sr.Store)
	}
}

func TestOverCapacityGets429(t *testing.T) {
	st := buildStore(t, []int{16, 16}, 0)
	srv := New(st, Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Occupy the only slot directly, then observe load shedding.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	resp, body := postJSON(t, ts.URL+"/v1/point", `{"point":[1,1]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if srv.rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", srv.rejected.Load())
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	st := buildStore(t, []int{16, 16}, 0)
	srv := New(st, Config{DrainTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()
	// The server answers while up...
	resp, body := postJSON(t, url+"/v1/point", `{"point":[2,2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// ...then drains cleanly on cancellation (the SIGTERM path).
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	if _, err := http.Get(url + "/v1/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	st := buildStore(t, []int{16, 16}, 0)
	ts := newTestServer(t, st, Config{})
	resp, err := http.Get(ts.URL + "/v1/point")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/point status %d, want 405", resp.StatusCode)
	}
}

// TestDrainOutlivesCanceledContext is the regression test for the drain
// context fix: the drain deadline used to be minted from a detached
// context (and a careless "fix" would derive it from ctx directly, which
// is already canceled when the drain starts — Shutdown would then abandon
// in-flight requests immediately). The drain must keep serving an
// in-flight request after ctx is canceled and still finish cleanly.
func TestDrainOutlivesCanceledContext(t *testing.T) {
	st := buildStore(t, []int{16, 16}, 0)
	srv := New(st, Config{DrainTimeout: 10 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	url := "http://" + ln.Addr().String()
	if resp, body := postJSON(t, url+"/v1/point", `{"point":[2,2]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// Put a request in flight by sending only its headers: the connection
	// is active, so a graceful drain must wait for it.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reqBody := `{"point":[1,1]}`
	fmt.Fprintf(conn, "POST /v1/point HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(reqBody))
	time.Sleep(50 * time.Millisecond) // let the server start reading the request

	cancel()
	time.Sleep(100 * time.Millisecond) // the drain is now racing our laggard

	// Finish the request: it must still be answered, mid-drain.
	if _, err := fmt.Fprint(conn, reqBody); err != nil {
		t.Fatalf("request connection was dropped during drain: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain", resp.StatusCode)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}
