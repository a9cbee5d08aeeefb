package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	repro "repro"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(quietServer(2, 8).routes())
	t.Cleanup(ts.Close)
	return ts
}

// quietServer is newServer with request logging discarded, so test
// output stays readable.
func quietServer(workers, cacheEntries int) *server {
	s := newServer(workers, cacheEntries)
	s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	return s
}

const tinySpec = `{"topology":"line:n=4","workload":{"kind":"fb","coflows":3,"seed":7},"scheduler":"sincronia-greedy","validate":true}`

// TestRunEndpointMatchesLibrary: POST /v1/run returns byte-for-byte
// the JSON a local repro.Run produces for the same document — the
// service and the library/CLI front doors cannot drift.
func TestRunEndpointMatchesLibrary(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got repro.RunReport
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	s, _, err := repro.ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repro.Run(context.Background(), *s)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(rep)
	gotJSON, _ := json.Marshal(&got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("service report differs from library report:\nlib: %s\nsvc: %s", wantJSON, gotJSON)
	}
	if !got.Validated || got.Kind != "offline" || got.Scheduler != "sincronia-greedy" {
		t.Fatalf("unexpected report: %+v", got)
	}
}

// TestRunEndpointCaches: the second identical request is a cache hit
// with an identical body.
func TestRunEndpointCaches(t *testing.T) {
	ts := testServer(t)
	var bodies []string
	var states []string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinySpec))
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			buf.WriteString(sc.Text())
		}
		resp.Body.Close()
		bodies = append(bodies, buf.String())
		states = append(states, resp.Header.Get("X-Coflowd-Cache"))
	}
	if states[0] != "miss" || states[1] != "hit" {
		t.Fatalf("cache states = %v", states)
	}
	if bodies[0] != bodies[1] {
		t.Fatal("cache hit body differs from the computed one")
	}
}

// TestSweepEndpointStreamsNDJSON: every cell arrives as one JSON line
// and matches a local run of the same sweep.
func TestSweepEndpointStreamsNDJSON(t *testing.T) {
	ts := testServer(t)
	sweep := `{"base":{"topology":"line:n=4","workload":{"coflows":2}},"policies":["fifo","las"],"seeds":[1,2]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if n := resp.Header.Get("X-Coflowd-Cells"); n != "4" {
		t.Fatalf("cell count header %q", n)
	}
	got := map[int]*repro.SweepCell{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var cell repro.SweepCell
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if cell.Error != "" {
			t.Fatalf("cell %d failed: %s", cell.Index, cell.Error)
		}
		got[cell.Index] = &cell
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("streamed %d cells, want 4", len(got))
	}
	// Spot-check one cell against a local run of its echoed spec.
	solo, err := repro.Run(context.Background(), got[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(solo)
	gotJSON, _ := json.Marshal(got[0].Report)
	if !reflect.DeepEqual(wantJSON, gotJSON) {
		t.Fatalf("streamed cell differs from local run:\nlocal: %s\nsvc:   %s", wantJSON, gotJSON)
	}
}

// TestBadSpecsAre400: validation problems are the client's fault and
// carry the registry listing; execution never starts.
func TestBadSpecsAre400(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, path, body, wantSub string
	}{
		{"unknown scheduler", "/v1/run", `{"scheduler":"nope"}`, "sincronia-greedy"},
		{"conflicting run", "/v1/run", `{"scheduler":"stretch","policy":"fifo"}`, "mutually exclusive"},
		{"typo field", "/v1/run", `{"sheduler":"stretch"}`, "unknown field"},
		{"not json", "/v1/run", `hello`, "decoding"},
		{"file workload", "/v1/run", `{"scheduler":"stretch","workload":{"file":"/etc/passwd"}}`, "not served"},
		{"sweep unknown policy", "/v1/sweep", `{"policies":["nope"]}`, "unknown policy"},
		{"sweep file workload", "/v1/sweep", `{"base":{"workload":{"file":"x.json"}},"schedulers":["stretch"]}`, "not served"},
		{"negative max_slots", "/v1/run", `{"scheduler":"heuristic","options":{"max_slots":-1}}`, "max_slots"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var buf strings.Builder
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				buf.WriteString(sc.Text())
			}
			if !strings.Contains(buf.String(), tc.wantSub) {
				t.Fatalf("body %q missing %q", buf.String(), tc.wantSub)
			}
		})
	}
}

// TestRegistryEndpoint: the catalog names everything a Spec can use.
func TestRegistryEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg repro.Registry
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	want := repro.Registries()
	if !reflect.DeepEqual(reg, want) {
		t.Fatalf("registry drifted:\nsvc: %+v\nlib: %+v", reg, want)
	}
	if len(reg.Schedulers) == 0 || len(reg.Policies) == 0 || len(reg.Presets) == 0 {
		t.Fatalf("empty registry sections: %+v", reg)
	}
}

// TestMethodNotAllowed: the v1 routes are POST-only.
func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status %d, want 405", resp.StatusCode)
	}
}

// TestReportCacheEviction: the FIFO cache stays bounded and evicts
// oldest-first.
func TestReportCacheEviction(t *testing.T) {
	c := newReportCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	c.put("c", []byte("C"))
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %s evicted early", k)
		}
	}
	disabled := newReportCache(0)
	disabled.put("x", []byte("X"))
	if _, ok := disabled.get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestSweepSharesServerPool: with a single-slot server, a sweep and a
// run issued together both complete — every cell queues on the shared
// semaphore instead of multiplying it, and the gating cannot
// deadlock.
func TestSweepSharesServerPool(t *testing.T) {
	ts := httptest.NewServer(quietServer(1, 0).routes())
	defer ts.Close()
	done := make(chan error, 2)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"base":{"topology":"line:n=4","workload":{"coflows":2}},"policies":["fifo","las"],"seeds":[1,2],"workers":4}`))
		if err == nil {
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			lines := 0
			for sc.Scan() {
				lines++
			}
			if lines != 4 {
				err = fmt.Errorf("sweep streamed %d cells, want 4", lines)
			}
		}
		done <- err
	}()
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinySpec))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("run status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestReportCacheByteBound: the cache evicts on total bytes, not just
// entry count, and refuses single bodies that would dominate it.
func TestReportCacheByteBound(t *testing.T) {
	c := newReportCache(100)
	c.maxBytes = 160 // each 36-byte entry is under the maxBytes/4 admission cap
	for _, k := range []string{"a", "b", "c", "d"} {
		c.put(k, make([]byte, 35))
	}
	c.put("e", make([]byte, 35)) // pushes past 160 bytes → evicts "a"
	if _, ok := c.get("a"); ok {
		t.Fatal("byte bound did not evict the oldest entry")
	}
	for _, k := range []string{"b", "c", "d", "e"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %s missing", k)
		}
	}
	c.put("huge", make([]byte, 100)) // > maxBytes/4 → not cached
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized body was cached")
	}
}
