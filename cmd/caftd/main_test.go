package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"caft/internal/service"
)

// -update regenerates the golden files from the current engine (the
// one shared golden-file convention; see EXPERIMENTS.md):
//
//	go test ./cmd/caftd -run 'Golden|OnlineMode' -update
var update = flag.Bool("update", false, "rewrite the golden files from current output")

func startServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return srv
}

func quickstartSpec(t *testing.T) []byte {
	t.Helper()
	spec, err := os.ReadFile(filepath.Join("testdata", "quickstart.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestGoldenQuickstartResponse pins the exact bytes served for the
// quickstart spec — the same end-to-end determinism guarantee the
// caftsim goldens pin for the figures. Responses for a fixed seed must
// be byte-identical across runs and across -workers values, so the run
// is repeated at two pool configurations and diffed before comparing
// against the golden file.
func TestGoldenQuickstartResponse(t *testing.T) {
	spec := quickstartSpec(t)
	var first []byte
	for _, cfg := range []service.Config{
		{Workers: 1, MCWorkers: 1},
		{Workers: 8, MCWorkers: 4},
	} {
		srv := startServer(t, cfg)
		status, body := post(t, srv.URL, spec)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		// The cached second serve must also be byte-identical.
		if _, again := post(t, srv.URL, spec); !bytes.Equal(body, again) {
			t.Fatal("cache hit served different bytes than the compute")
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("response differs between worker configs")
		}
	}
	checkGolden(t, "quickstart_response.json", first)
}

// checkGolden compares a served response with testdata/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response drifted from %s;\nif intentional, regenerate with: go test ./cmd/caftd -run 'Golden|OnlineMode' -update\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestConcurrentIdenticalRequestsCollapse is the end-to-end acceptance
// test of the serving layer: N identical concurrent HTTP requests are
// answered by exactly one scheduling run — observable via /statsz — and
// all N responses are byte-identical.
func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	srv := startServer(t, service.Config{Workers: 4})
	spec := quickstartSpec(t)
	const n = 24
	responses := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/schedule", "application/json", bytes.NewReader(spec))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			statuses[i], responses[i] = resp.StatusCode, buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(responses[0], responses[i]) {
			t.Fatal("responses differ across concurrent identical requests")
		}
	}
	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 {
		t.Errorf("%d scheduling runs for %d identical requests, want 1", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Errorf("%d cache hits, want %d", st.Hits, n-1)
	}
}

// The quickstart response must carry the documented schema fields (the
// CI smoke job greps for a subset of these).
func TestQuickstartResponseSchema(t *testing.T) {
	srv := startServer(t, service.Config{Workers: 2})
	status, body := post(t, srv.URL, quickstartSpec(t))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key == "" || resp.Alg != "caft" || resp.Latency <= 0 {
		t.Errorf("schema fields wrong: key=%q alg=%q latency=%v", resp.Key, resp.Alg, resp.Latency)
	}
	if len(resp.Schedule.Replicas) == 0 || resp.Reliability == nil {
		t.Error("schedule or reliability section missing")
	}
}

// TestOnlineModeEndToEnd covers the "mode":"online" request through
// the HTTP surface, with the reactive re-mapper armed (online.json) and
// with replication alone (online_static.json, "static": true): each
// response is deterministic, served identically from compute and cache
// across worker configurations and pinned to its golden file, with the
// singleflight accounting observable via /statsz, and the documented
// distribution schema present.
func TestOnlineModeEndToEnd(t *testing.T) {
	for _, c := range []struct {
		spec, golden string
		static       bool
	}{
		{"online.json", "online_response.json", false},
		{"online_static.json", "online_static_response.json", true},
	} {
		spec, err := os.ReadFile(filepath.Join("testdata", c.spec))
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		for _, cfg := range []service.Config{
			{Workers: 1, MCWorkers: 1},
			{Workers: 8, MCWorkers: 4},
		} {
			srv := startServer(t, cfg)
			status, body := post(t, srv.URL, spec)
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", c.spec, status, body)
			}
			if _, again := post(t, srv.URL, spec); !bytes.Equal(body, again) {
				t.Fatalf("%s: cached online response differs from the computed one", c.spec)
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(first, body) {
				t.Fatalf("%s: online response differs between worker configs", c.spec)
			}
			// One compute, one hit — the online mode rides the same
			// content-addressed singleflight cache.
			resp, err := http.Get(srv.URL + "/statsz")
			if err != nil {
				t.Fatal(err)
			}
			var st service.StatsSnapshot
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Misses != 1 || st.Hits != 1 {
				t.Fatalf("%s: statsz misses=%d hits=%d, want 1/1", c.spec, st.Misses, st.Hits)
			}
		}
		checkGolden(t, c.golden, first)
		var resp service.Response
		if err := json.Unmarshal(first, &resp); err != nil {
			t.Fatal(err)
		}
		o := resp.Online
		if o == nil {
			t.Fatalf("%s: online section missing", c.spec)
		}
		if o.Samples+o.ReplayErrors != 96 || o.MeanMakespan == nil || o.P90Makespan == nil {
			t.Fatalf("%s: online distribution incomplete: %+v", c.spec, o)
		}
		if c.static && o.MeanRescheduled != 0 {
			t.Fatalf("%s: static replay re-placed work: %+v", c.spec, o)
		}
		if !c.static && o.MeanRescheduled <= 0 {
			t.Fatalf("%s: reactive re-mapper never fired: %+v", c.spec, o)
		}
	}
}

// TestHOFTServable drives the registry's newest scheduler through the
// HTTP surface: the quickstart spec re-pointed at hoft (a fault-free
// reference, so eps drops to 0) must serve a valid schedule, and a
// non-zero eps must be a 400, not a schedule.
func TestHOFTServable(t *testing.T) {
	srv := startServer(t, service.Config{Workers: 2})
	var req map[string]any
	if err := json.Unmarshal(quickstartSpec(t), &req); err != nil {
		t.Fatal(err)
	}
	req["alg"], req["eps"] = "hoft", 0
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, srv.URL, spec)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Alg != "hoft" || len(resp.Schedule.Replicas) == 0 {
		t.Fatalf("hoft response malformed: alg=%q replicas=%d", resp.Alg, len(resp.Schedule.Replicas))
	}

	req["eps"] = 1
	spec, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := post(t, srv.URL, spec); status != http.StatusBadRequest {
		t.Fatalf("hoft with eps=1 got status %d: %s", status, body)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(":0", service.Config{Workers: -1}, defaultTimeouts); err == nil {
		t.Error("negative -workers accepted")
	}
	if err := run(":0", service.Config{MCWorkers: -2}, defaultTimeouts); err == nil {
		t.Error("negative -mc-workers accepted")
	}
	if err := run(":0", service.Config{CacheMax: -1}, defaultTimeouts); err == nil {
		t.Error("negative -cache-max accepted")
	}
	if err := run(":0", service.Config{AdmitMax: -1}, defaultTimeouts); err == nil {
		t.Error("negative -admit-max accepted")
	}
	if err := run(":0", service.Config{Peers: []string{"a:1"}}, defaultTimeouts); err == nil {
		t.Error("-peers without -self accepted")
	}
	if err := run(":0", service.Config{Self: "a:1"}, defaultTimeouts); err == nil {
		t.Error("-self without -peers accepted")
	}
	if err := run(":0", service.Config{Self: "c:3", Peers: []string{"a:1", "b:2"}}, defaultTimeouts); err == nil {
		t.Error("-self outside -peers accepted")
	}
	if err := run(":0", service.Config{}, timeouts{}); err == nil {
		t.Error("zero server timeouts accepted")
	}
}

func TestSplitPeers(t *testing.T) {
	if got := splitPeers(""); got != nil {
		t.Errorf("splitPeers(\"\") = %v, want nil", got)
	}
	got := splitPeers(" a:1, b:2 ,,c:3 ")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("splitPeers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitPeers = %v, want %v", got, want)
		}
	}
}

// TestSlowHeaderClientDisconnected is the slowloris e2e test: a client
// that dials, sends a partial request header and then stalls must be
// disconnected once ReadHeaderTimeout elapses, instead of pinning the
// connection forever. It drives the daemon's own server construction
// (newServer), not a bare httptest handler, so the configured deadlines
// are what is under test.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := newServer("127.0.0.1:0", svc, timeouts{
		readHeader: 150 * time.Millisecond,
		read:       time.Second,
		idle:       time.Second,
	})
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A syntactically valid request line, then silence: the header is
	// never completed.
	if _, err := conn.Write([]byte("POST /schedule HTTP/1.1\r\nHost: caftd\r\n")); err != nil {
		t.Fatal(err)
	}
	// Well past readHeader but far below the test deadline: the read
	// must return EOF/reset because the server dropped us, not block.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	if err == nil || n > 0 {
		t.Fatalf("slow-header connection still alive after ReadHeaderTimeout (read %d bytes, err %v)", n, err)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept the slow-header connection open past ReadHeaderTimeout")
	}

	// The server must still answer well-formed requests afterwards.
	status, _ := post(t, "http://"+ln.Addr().String(), quickstartSpec(t))
	if status != http.StatusOK {
		t.Fatalf("healthy request after slowloris got status %d", status)
	}
}
