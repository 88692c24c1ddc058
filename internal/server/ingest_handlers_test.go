package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/shiftsplit/shiftsplit/internal/appender"
	"github.com/shiftsplit/shiftsplit/internal/ingest"
	"github.com/shiftsplit/shiftsplit/internal/ingest/ingesttest"
	"github.com/shiftsplit/shiftsplit/internal/ndarray"
	"github.com/shiftsplit/shiftsplit/internal/storage"
)

// newIngestServer mounts an ingester (4x4 domain growing along dim 1)
// beside a small read store.
func newIngestServer(t testing.TB, icfg ingest.Config) (*httptest.Server, *ingest.Ingester) {
	t.Helper()
	return newIngestServerOn(t, nil, icfg)
}

// newIngestServerOn is newIngestServer with the appender's backing chosen
// by the test (nil: in-memory).
func newIngestServerOn(t testing.TB, backing appender.Backing, icfg ingest.Config) (*httptest.Server, *ingest.Ingester) {
	t.Helper()
	app, err := appender.NewWithBacking([]int{4, 4}, 1, backing)
	if err != nil {
		t.Fatal(err)
	}
	icfg.Dim = 1
	in, err := ingest.New(app, icfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close() }) // idempotent; tests may close early
	st := buildStore(t, []int{16, 16}, 0)
	ts := newTestServer(t, st, Config{Ingest: in})
	return ts, in
}

func TestIngestSingleSlab(t *testing.T) {
	ts, _ := newIngestServer(t, ingest.Config{FlushInterval: time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/v1/ingest", `{"shape":[4,1],"values":[1,2,3,4]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res ingestResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("response %q: %v", body, err)
	}
	if res.Offset[1] != 0 || res.Cells != 4 || res.Group != 1 {
		t.Fatalf("result %+v", res)
	}
	// Committed ⇒ queryable through the ingest point endpoint.
	resp, body = postJSON(t, ts.URL+"/v1/ingest/point", `{"point":[2,0]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("point status %d: %s", resp.StatusCode, body)
	}
	var pr ingestPointResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if math.Abs(pr.Value-3) > 1e-9 {
		t.Fatalf("point value %v, want 3", pr.Value)
	}
}

func TestIngestNDJSON(t *testing.T) {
	ts, in := newIngestServer(t, ingest.Config{FlushInterval: time.Hour})
	lines := `{"shape":[4,1],"values":[1,1,1,1]}
{"shape":[4,1],"values":[2,2,2,2]}
{"shape":[4,1],"values":[3,3,3,3]}`
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// One result line per slab line, in request order; the lines were staged
	// together, so one group sealed all three.
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	want := `{"offset":[0,0],"cells":4,"group":1,"slabs":3}
{"offset":[0,1],"cells":4,"group":1,"slabs":3}
{"offset":[0,2],"cells":4,"group":1,"slabs":3}
`
	if body.String() != want {
		t.Fatalf("response:\n%swant:\n%s", body.String(), want)
	}
	st := in.Stats()
	if st.CommittedSlabs != 3 || st.Groups != 1 {
		t.Fatalf("committed %d slabs in %d groups, want 3 in 1", st.CommittedSlabs, st.Groups)
	}
}

// TestIngestNDJSONLineError: a line the ingester rejects is reported in its
// own result line; the request is still a 200 and the other lines commit.
func TestIngestNDJSONLineError(t *testing.T) {
	ts, in := newIngestServer(t, ingest.Config{})
	lines := `{"shape":[4,1],"values":[1,1,1,1]}
{"shape":[2,1],"values":[2,2]}
{"shape":[4,1],"values":[3,3,3,3]}`
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got []ingestResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res ingestResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, res)
	}
	if len(got) != 3 || got[0].Error != "" || got[1].Error == "" || got[2].Error != "" {
		t.Fatalf("results %+v, want only the middle line to fail", got)
	}
	if got[0].Offset[1] != 0 || got[2].Offset[1] != 1 || got[2].Slabs != 2 {
		t.Fatalf("results %+v", got)
	}
	if st := in.Stats(); st.CommittedSlabs != 2 {
		t.Fatalf("committed %d, want 2", st.CommittedSlabs)
	}
}

func TestIngestBadRequests(t *testing.T) {
	ts, _ := newIngestServer(t, ingest.Config{FlushInterval: time.Millisecond})
	cases := []struct{ name, ct, body string }{
		{"malformed json", "application/json", `{"shape":[4,1]`},
		{"shape values mismatch", "application/json", `{"shape":[4,1],"values":[1]}`},
		{"inf cell", "application/json", `{"shape":[1,1],"values":[1e999]}`},
		{"unknown field", "application/json", `{"shape":[4,1],"values":[1,2,3,4],"x":1}`},
		{"wrong dims", "application/json", `{"shape":[4],"values":[1,2,3,4]}`},
		{"negative extent", "application/json", `{"shape":[-4,1],"values":[]}`},
		{"empty ndjson", "application/x-ndjson", ``},
		{"bad ndjson line", "application/x-ndjson", `{"shape":[4,1],"values":[1,2,3,4]}` + "\n" + `{"shape":`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/ingest", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, buf.String())
		}
	}
	// Nothing above may have committed — a bad NDJSON line fails the whole
	// request before any enqueue.
	stats := getStats(t, ts.URL)
	if stats.Ingest == nil || stats.Ingest.CommittedSlabs != 0 {
		t.Fatalf("ingest stats after bad requests: %+v", stats.Ingest)
	}
}

func getStats(t testing.TB, base string) statsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestIngestBackpressure429(t *testing.T) {
	wedge := ingesttest.NewWedge()
	t.Cleanup(wedge.Release)
	ts, in := newIngestServerOn(t, wedge.Backing, ingest.Config{MaxQueueSlabs: 1})
	// Wedge one slab in its commit, occupy the queue behind it directly,
	// then hit the HTTP endpoint.
	done := make(chan error, 2)
	enqueue := func() {
		_, err := in.Enqueue(context.Background(), ndarray.FromSlice([]float64{1, 2, 3, 4}, 4, 1))
		done <- err
	}
	go enqueue()
	select {
	case <-wedge.Entered():
	case <-time.After(5 * time.Second):
		t.Fatal("the first commit never reached the store")
	}
	go enqueue()
	deadline := time.Now().Add(5 * time.Second)
	for in.Stats().QueueSlabs != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/v1/ingest", `{"shape":[4,1],"values":[5,6,7,8]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	wedge.Release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("staged append failed: %v", err)
		}
	}
}

// TestIngestHTTPAmortization is group commit seen through the HTTP write
// path: one request wedges the first commit, 16 more stage behind it, and
// on release they all share the second group — one device commit for 16
// requests, counted exactly, with no timer in the measurement.
func TestIngestHTTPAmortization(t *testing.T) {
	wedge := ingesttest.NewWedge()
	ts, in := newIngestServerOn(t, wedge.Backing, ingest.Config{})
	t.Cleanup(wedge.Release) // before the server's cleanups: a failed run leaves requests wedged
	const followers = 16
	statuses := make(chan int, followers+1)
	post := func(c int) {
		body := fmt.Sprintf(`{"shape":[4,1],"values":[%d,%d,%d,%d]}`, c, c, c, c)
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			statuses <- 0
			return
		}
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go post(0)
	select {
	case <-wedge.Entered():
	case <-time.After(5 * time.Second):
		t.Fatal("the holder's commit never reached the store")
	}
	for c := 1; c <= followers; c++ {
		go post(c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for in.Stats().QueueSlabs != followers {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests staged behind the wedge", in.Stats().QueueSlabs, followers)
		}
		time.Sleep(time.Millisecond)
	}
	wedge.Release()
	for i := 0; i <= followers; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Errorf("request status %d, want 200", code)
		}
	}
	st := in.Stats()
	if st.CommittedSlabs != followers+1 || st.Groups != 2 {
		t.Fatalf("committed %d slabs in %d groups, want %d in 2", st.CommittedSlabs, st.Groups, followers+1)
	}
	if st.DeviceIO.Commits != st.Groups {
		t.Errorf("device commits %d, groups %d", st.DeviceIO.Commits, st.Groups)
	}
	if st.AppendsPerJournalGroup < 8 {
		t.Errorf("%.2f appends per journal group, want >= 8", st.AppendsPerJournalGroup)
	}
}

func TestIngestGate503(t *testing.T) {
	gateErr := storage.ErrUnavailable
	ts, _ := newIngestServer(t, ingest.Config{
		FlushInterval: time.Millisecond,
		Gate:          func() error { return gateErr },
	})
	resp, body := postJSON(t, ts.URL+"/v1/ingest", `{"shape":[4,1],"values":[1,2,3,4]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
}

func TestIngestStreamEndpoint(t *testing.T) {
	ts, _ := newIngestServer(t, ingest.Config{FlushInterval: time.Millisecond})
	resp, body := postJSON(t, ts.URL+"/v1/ingest/stream", `{"values":[1,2,3,4,5,6,7,8]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ingestStreamResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Items != 8 {
		t.Fatalf("items %d, want 8", sr.Items)
	}
	resp, body = postJSON(t, ts.URL+"/v1/ingest/stream", `{"values":[1,"x"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad stream status %d: %s", resp.StatusCode, body)
	}
	// Stats surface the ingest section with stream accounting.
	stats := getStats(t, ts.URL)
	if stats.Ingest == nil || stats.Ingest.StreamItems != 8 {
		t.Fatalf("stats ingest section: %+v", stats.Ingest)
	}
}

// TestIngestRouteAbsentWithoutIngester: a server without an ingester must
// 404 the write path, not panic on a nil ingester.
func TestIngestRouteAbsentWithoutIngester(t *testing.T) {
	st := buildStore(t, []int{16, 16}, 0)
	ts := newTestServer(t, st, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/ingest", `{"shape":[4,1],"values":[1,2,3,4]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
