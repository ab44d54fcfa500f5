package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"
)

// clusterNode is one in-process caftd: a Service plus an http.Server on
// a real TCP listener, so peer forwarding exercises the same network
// path production uses.
type clusterNode struct {
	addr string
	svc  *Service
}

// startCluster boots n nodes that all know the full member list.
// tweak, when non-nil, edits each node's config before construction.
func startCluster(t *testing.T, n int, tweak func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cfg := Config{Workers: 2, Self: addrs[i], Peers: addrs}
		if tweak != nil {
			tweak(i, &cfg)
		}
		svc := mustNew(t, cfg)
		srv := &http.Server{Handler: NewHandler(svc)}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Close(); svc.Close() })
		nodes[i] = &clusterNode{addr: addrs[i], svc: svc}
	}
	return nodes
}

func postJSON(t *testing.T, addr string, body []byte, header map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/schedule", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header { //caft:unordered-ok test-only header copying
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

func marshalReq(t *testing.T, r *Request) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The tentpole acceptance at test scale: three nodes share one
// effective cache. Every request enters through node 0; non-owned keys
// take one forwarding hop; each problem is computed exactly once
// cluster-wide; and the bytes match a standalone single-node service —
// the straight byte diff determinism buys us.
func TestClusterSharesOneCache(t *testing.T) {
	nodes := startCluster(t, 3, nil)
	reqs := distinctReqs(12)

	// Single-node golden.
	solo := mustNew(t, Config{Workers: 2})
	defer solo.Close()

	for round := 0; round < 2; round++ {
		for i, r := range reqs {
			status, body := postJSON(t, nodes[0].addr, marshalReq(t, r), nil)
			if status != http.StatusOK {
				t.Fatalf("round %d req %d: status %d: %s", round, i, status, body)
			}
			want, err := solo.Do(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("round %d req %d: cluster bytes differ from single-node golden", round, i)
			}
		}
	}

	var misses, owned int64
	for _, n := range nodes {
		st := n.svc.Stats()
		misses += st.Misses
		if st.Misses > 0 {
			owned++
		}
	}
	if misses != int64(len(reqs)) {
		t.Errorf("%d computes cluster-wide for %d distinct problems — coalescing across nodes broken", misses, len(reqs))
	}
	if owned < 2 {
		t.Errorf("only %d nodes computed anything — hash routing did not spread the keyspace", owned)
	}
	st0 := nodes[0].svc.Stats()
	if st0.Forwards == 0 {
		t.Error("node 0 never forwarded — every key cannot be self-owned")
	}
	if st0.ForwardErrors != 0 {
		t.Errorf("%d forward errors in a healthy cluster", st0.ForwardErrors)
	}
}

// The loop guard: a request already marked forwarded is served locally
// even by a non-owner, so a ring disagreement can cost an extra compute
// but never a forwarding cycle.
func TestClusterForwardLoopGuard(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	// Find a request owned by node 1.
	var req *Request
	for _, r := range distinctReqs(32) {
		if nodes[0].svc.ring.owner(r.hash()) == nodes[1].addr {
			req = r
			break
		}
	}
	if req == nil {
		t.Fatal("no key owned by node 1 in 32 tries — ring broken")
	}
	status, _ := postJSON(t, nodes[0].addr, marshalReq(t, req), map[string]string{forwardedHeader: "1"})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	st0, st1 := nodes[0].svc.Stats(), nodes[1].svc.Stats()
	if st0.Forwards != 0 || st0.Misses != 1 {
		t.Errorf("guarded request left node 0: forwards=%d misses=%d", st0.Forwards, st0.Misses)
	}
	if st1.Misses != 0 {
		t.Errorf("guarded request reached node 1: misses=%d", st1.Misses)
	}
}

// Fallback: when the owning peer is down, the receiving node serves the
// request locally — the deterministic bytes are identical, availability
// survives, and the failure is visible in forwardErrors.
func TestClusterForwardFallbackWhenPeerDown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nobody home
	checkLocalFallback(t, deadAddr)
}

// A peer that answers but fails — a 5xx, or a connection that closes
// before the promised body is complete — counts as unreachable: the
// client gets the golden bytes served locally, never a relayed error
// or a truncated 200.
func TestClusterForwardFallbackWhenPeerFails(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve http.HandlerFunc
	}{
		{"status 500", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "owner failed", http.StatusInternalServerError)
		}},
		{"truncated body", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				return
			}
			conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"latency\":"))
			conn.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := &http.Server{Handler: tc.serve}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			checkLocalFallback(t, ln.Addr().String())
		})
	}
}

// checkLocalFallback boots one node whose only other member is
// peerAddr, sends it a request peerAddr owns, and requires the
// single-node golden bytes served locally after one failed forward.
func checkLocalFallback(t *testing.T, peerAddr string) {
	t.Helper()
	liveLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	liveAddr := liveLn.Addr().String()
	svc := mustNew(t, Config{Workers: 2, Self: liveAddr, Peers: []string{liveAddr, peerAddr}, PeerTimeout: 2 * time.Second})
	srv := &http.Server{Handler: NewHandler(svc)}
	go srv.Serve(liveLn)
	t.Cleanup(func() { srv.Close(); svc.Close() })

	// Find a request owned by the peer.
	var req *Request
	for _, r := range distinctReqs(32) {
		if svc.ring.owner(r.hash()) == peerAddr {
			req = r
			break
		}
	}
	if req == nil {
		t.Fatal("no key owned by the peer in 32 tries")
	}
	status, body := postJSON(t, liveAddr, marshalReq(t, req), nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	solo := mustNew(t, Config{Workers: 1})
	defer solo.Close()
	want, err := solo.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("fallback response differs from the golden bytes")
	}
	st := svc.Stats()
	if st.Forwards != 1 || st.ForwardErrors != 1 || st.Misses != 1 {
		t.Errorf("fallback stats %+v: want 1 forward, 1 forwardError, 1 local miss", st)
	}
}

// Bad requests are rejected by the receiving node without spending a
// hop, with the same wrapped message Do produces.
func TestClusterRejectsLocally(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	bad := quickReq()
	bad.Alg = "nosuch"
	status, body := postJSON(t, nodes[0].addr, marshalReq(t, bad), nil)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d", status)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("error body missing: %s", body)
	}
	st := nodes[0].svc.Stats()
	if st.Forwards != 0 {
		t.Error("invalid request was forwarded")
	}
	if st.BadRequests != 1 {
		t.Errorf("badRequests %d, want 1", st.BadRequests)
	}
}

// Admission control sheds at the service layer with ErrOverloaded...
func TestAdmissionShedsOverload(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, MCWorkers: 1, AdmitMax: 1})
	defer svc.Close()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Do(context.Background(), slowReq())
		done <- err
	}()
	waitBusy(t, svc, 1)
	time.Sleep(5 * time.Millisecond) // let the slow job reach the worker

	req := quickReq()
	req.Reliability = nil
	req.Seed = 77
	if _, err := svc.Do(context.Background(), req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded Do returned %v, want ErrOverloaded", err)
	}
	st := svc.Stats()
	if st.Shed != 1 {
		t.Errorf("shed counter %d, want 1", st.Shed)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted slow request failed: %v", err)
	}
	// The slot freed: the shed key retries successfully.
	if _, err := svc.Do(context.Background(), req); err != nil {
		t.Fatalf("retry after shed failed: %v", err)
	}
	if st := svc.Stats().CacheEntries; st == 0 {
		t.Error("retried compute not cached")
	}
}

// Every ErrOverloaded return counts in Shed, also for requests that
// collapse onto an entry the gate then sheds: they are neither hits nor
// failures. The test fills the gate and creates the entry itself, so
// the concurrent identical requests find it in flight; then it runs the
// creator's fill, which sheds the entry and fails its waiters. A request
// that arrives after the shed creates its own entry and is shed the same
// way, so the counts must agree whatever the interleaving.
func TestShedCountsCollapsedRequests(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, MCWorkers: 1, AdmitMax: 1})
	defer svc.Close()
	if !svc.admit.acquire() {
		t.Fatal("fresh admission gate is full")
	}
	defer svc.admit.release()
	req := quickReq()
	if err := req.validate(); err != nil {
		t.Fatal(err)
	}
	key := req.hash()
	e, created := svc.cache.lookup(key)
	if !created {
		t.Fatal("fresh cache already holds the key")
	}
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := svc.Do(context.Background(), quickReq())
			errs <- err
		}()
	}
	waitBusy(t, svc, n)
	time.Sleep(20 * time.Millisecond) // let the requests reach the entry
	overloaded := 0
	if err := svc.fill(context.Background(), key, e, req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fill against a full gate returned %v, want ErrOverloaded", err)
	}
	overloaded++
	for i := 0; i < n; i++ {
		if err := <-errs; errors.Is(err, ErrOverloaded) {
			overloaded++
		} else {
			t.Errorf("request returned %v, want ErrOverloaded", err)
		}
	}
	st := svc.Stats()
	if st.Shed != int64(overloaded) || st.Hits != 0 || st.Failures != 0 {
		t.Errorf("%d ErrOverloaded returns, stats shed %d hits %d failures %d; want shed %d, no hits, no failures",
			overloaded, st.Shed, st.Hits, st.Failures, overloaded)
	}
}

// ...and at the HTTP layer as 429 with Retry-After. Hits are never
// shed: the overloaded node still answers cached keys.
func TestAdmissionHTTP429(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, MCWorkers: 1, AdmitMax: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandler(svc)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); svc.Close() })
	addr := ln.Addr().String()

	// Warm one key while the pool is idle.
	warm := quickReq()
	warm.Reliability = nil
	warmBody := marshalReq(t, warm)
	if status, _ := postJSON(t, addr, warmBody, nil); status != http.StatusOK {
		t.Fatal("warmup failed")
	}

	slowDone := make(chan error, 1)
	go func() {
		_, err := svc.Do(context.Background(), slowReq())
		slowDone <- err
	}()
	waitBusy(t, svc, 1)
	time.Sleep(5 * time.Millisecond)

	cold := quickReq()
	cold.Reliability = nil
	cold.Seed = 78
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/schedule", bytes.NewReader(marshalReq(t, cold)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The cached key still serves while overloaded.
	if status, _ := postJSON(t, addr, warmBody, nil); status != http.StatusOK {
		t.Error("cache hit was shed")
	}
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}
