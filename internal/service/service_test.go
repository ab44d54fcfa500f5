package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/sched"
)

// testDAG is a placeholder inline graph for validation tests.
var testDAG = *dag.New(3)

// mustNew builds a Service whose construction must succeed — every
// test config without a broken disk dir or cluster spec.
func mustNew(tb testing.TB, cfg Config) *Service {
	tb.Helper()
	svc, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return svc
}

// quickReq is the canonical small test request: a montage workflow on
// four processors, scheduled by CAFT at eps = 1 with a reliability
// estimate. Mirrors cmd/caftd/testdata/quickstart.json.
func quickReq() *Request {
	return &Request{
		Alg:       "caft",
		Eps:       1,
		Seed:      1,
		Generator: &gen.Spec{Kind: "montage", N: 4, Volume: 100},
		Platform:  PlatformSpec{M: 4, Delay: 0.75},
		Reliability: &ReliabilitySpec{
			Samples: 128,
			MTBF:    5000,
			Seed:    3,
		},
	}
}

func decodeResponse(t *testing.T, raw []byte) Response {
	t.Helper()
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("undecodable response: %v\n%s", err, raw)
	}
	return resp
}

func TestServeBasics(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	defer svc.Close()
	raw, err := svc.Do(context.Background(), quickReq())
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeResponse(t, raw)
	if resp.Alg != "caft" || resp.Eps != 1 || resp.Policy != "append" || resp.Model != "one-port" {
		t.Errorf("header fields wrong: %+v", resp)
	}
	if resp.Latency <= 0 || resp.Makespan < resp.Latency {
		t.Errorf("latency %v / makespan %v implausible", resp.Latency, resp.Makespan)
	}
	if resp.Tasks == 0 || resp.Replicas < 2*resp.Tasks {
		t.Errorf("eps=1 schedule must hold >= 2 replicas per task: tasks=%d replicas=%d", resp.Tasks, resp.Replicas)
	}
	if len(resp.Schedule.Replicas) != resp.Replicas {
		t.Errorf("schedule section lists %d replicas, header says %d", len(resp.Schedule.Replicas), resp.Replicas)
	}
	if resp.Reliability == nil || resp.Reliability.Samples != 128 {
		t.Fatalf("reliability section missing or short: %+v", resp.Reliability)
	}
	if u := resp.Reliability.Unreliability; u < 0 || u > 1 {
		t.Errorf("unreliability %v outside [0,1]", u)
	}
}

// Every supported scheduler must serve under both policies and both
// communication models.
func TestServeEveryAlgPolicyModel(t *testing.T) {
	svc := mustNew(t, Config{Workers: 4})
	defer svc.Close()
	for _, d := range sched.Registered() {
		for _, policy := range []string{"append", "insertion"} {
			for _, model := range []string{"one-port", "macro-dataflow"} {
				req := quickReq()
				req.Alg = d.Name
				req.Policy = policy
				req.Model = model
				req.Reliability = nil
				if !d.Caps.AcceptsEps {
					req.Eps = 0
				}
				if _, err := svc.Do(context.Background(), req); err != nil {
					t.Errorf("%s/%s/%s: %v", d.Name, policy, model, err)
				}
			}
		}
	}
}

func TestServeSparseTopology(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	defer svc.Close()
	for _, topo := range []TopologySpec{
		{Shape: "ring"},
		{Shape: "star", Delay: 0.5},
		{Shape: "mesh", Rows: 2, Cols: 2},
		{Shape: "torus", Rows: 2, Cols: 2},
		{Shape: "random", Extra: 2, DelayLo: 0.5, DelayHi: 1.0, Seed: 4},
	} {
		req := quickReq()
		req.Reliability = nil
		req.Topology = &topo
		raw, err := svc.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", topo.Shape, err)
		}
		if resp := decodeResponse(t, raw); resp.Latency <= 0 {
			t.Errorf("%s: latency %v", topo.Shape, resp.Latency)
		}
	}
}

func TestValidationRejects(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1})
	defer svc.Close()
	mutations := map[string]func(*Request){
		"unknown alg":          func(r *Request) { r.Alg = "lpt" },
		"negative eps":         func(r *Request) { r.Eps = -1 },
		"heft with eps":        func(r *Request) { r.Alg = "heft"; r.Eps = 2 },
		"unknown policy":       func(r *Request) { r.Policy = "fifo" },
		"unknown model":        func(r *Request) { r.Model = "wormhole" },
		"no graph":             func(r *Request) { r.Generator = nil },
		"both graphs":          func(r *Request) { r.DAG = &testDAG },
		"bad generator":        func(r *Request) { r.Generator.Kind = "nosuch" },
		"no processors":        func(r *Request) { r.Platform.M = 0 },
		"bad delay range":      func(r *Request) { r.Platform = PlatformSpec{M: 4, DelayLo: 1, DelayHi: 0.5} },
		"delay conflict":       func(r *Request) { r.Platform = PlatformSpec{M: 4, Delay: 1, DelayLo: 0.5, DelayHi: 1} },
		"bad topology shape":   func(r *Request) { r.Topology = &TopologySpec{Shape: "clique"} },
		"topology size":        func(r *Request) { r.Topology = &TopologySpec{Shape: "mesh", Rows: 3, Cols: 3} },
		"hypercube size":       func(r *Request) { r.Topology = &TopologySpec{Shape: "hypercube", K: 3} },
		"negative granularity": func(r *Request) { r.Granularity = -1 },
		"huge graph":           func(r *Request) { r.Generator = &gen.Spec{Kind: "chain", N: 2_000_000_000} },
		"huge fft":             func(r *Request) { r.Generator = &gen.Spec{Kind: "fft", N: 62} },
		"huge platform":        func(r *Request) { r.Platform = PlatformSpec{M: 1 << 20, Delay: 1} },
		"matrix cells": func(r *Request) {
			r.Generator = &gen.Spec{Kind: "chain", N: 100_000}
			r.Platform = PlatformSpec{M: 1 << 10, Delay: 1}
		},
		"zero samples":          func(r *Request) { r.Reliability.Samples = 0 },
		"no mtbf":               func(r *Request) { r.Reliability.MTBF = 0 },
		"bad failure kind":      func(r *Request) { r.Reliability.Kind = "lognormal" },
		"weibull without shape": func(r *Request) { r.Reliability.Kind = "weibull" },
		"shape on exponential":  func(r *Request) { r.Reliability.Shape = 2 },
		// (2^62+1) x 4 wraps to the platform's 4 processors in int
		// arithmetic; accepted, it would build a 2^62-row grid.
		"mesh size overflow":  func(r *Request) { r.Topology = &TopologySpec{Shape: "mesh", Rows: 1<<62 + 1, Cols: 4} },
		"torus size overflow": func(r *Request) { r.Topology = &TopologySpec{Shape: "torus", Rows: 4, Cols: 1<<62 + 1} },
	}
	for name, mutate := range mutations {
		req := quickReq()
		mutate(req)
		_, err := svc.Do(context.Background(), req)
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: got %v, want ErrBadRequest", name, err)
		}
	}
	if got := svc.Stats().BadRequests; got != int64(len(mutations)) {
		t.Errorf("badRequests counter %d, want %d", got, len(mutations))
	}
}

// Execution times that overflow float64 are the client's error, not
// the server's: JSON cannot carry the infinite times a 2-chain of
// 1e308-long tasks reaches, nor the mean latency that overflows over
// the Monte-Carlo samples of 6e307-long ones.
func TestNonFiniteTimesRejected(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1})
	defer svc.Close()
	for name, req := range map[string]*Request{
		"schedule": {
			Alg:       "heft",
			Generator: &gen.Spec{Kind: "chain", N: 2},
			Platform:  PlatformSpec{M: 2, Delay: 1},
			Exec:      [][]float64{{1e308, 1e308}, {1e308, 1e308}},
		},
		"mean latency": {
			Alg:         "caft",
			Eps:         1,
			Generator:   &gen.Spec{Kind: "chain", N: 2},
			Platform:    PlatformSpec{M: 2, Delay: 1},
			Exec:        [][]float64{{6e307, 6e307}, {6e307, 6e307}},
			Reliability: &ReliabilitySpec{Samples: 64, MTBF: 1e308},
		},
	} {
		if _, err := svc.Do(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: got %v, want ErrBadRequest", name, err)
		}
	}
}

// Canonicalization: omitted defaults and explicit defaults must share a
// cache key; any semantic change must not.
func TestHashCanonicalization(t *testing.T) {
	base := quickReq().hash()
	explicit := quickReq()
	explicit.Policy = "append"
	explicit.Model = "one-port"
	explicit.Granularity = 1.0
	explicit.Reliability.Kind = "exponential"
	// Fields the montage generator does not consume are canonicalized
	// away (gen.Spec.Canonical), so junk in them cannot split the cache.
	explicit.Generator.Depth = 9
	explicit.Generator.Seed = 42
	explicit.Generator.Roots = 5
	if explicit.hash() != base {
		t.Error("explicit defaults hash differently from omitted defaults")
	}
	// Topology fields the shape does not consume are canonicalized away
	// too, and the fixed-shape delay default (1) is resolved.
	ringReq := quickReq()
	ringReq.Topology = &TopologySpec{Shape: "ring"}
	ringJunk := quickReq()
	ringJunk.Topology = &TopologySpec{Shape: "ring", Delay: 1, Rows: 3, Cols: 9, K: 2, Extra: 7, Seed: 5}
	if ringReq.hash() != ringJunk.hash() {
		t.Error("junk in unused topology fields split the cache key")
	}
	changes := map[string]func(*Request){
		"alg":         func(r *Request) { r.Alg = "ftsa" },
		"eps":         func(r *Request) { r.Eps = 2 },
		"policy":      func(r *Request) { r.Policy = "insertion" },
		"model":       func(r *Request) { r.Model = "macro-dataflow" },
		"seed":        func(r *Request) { r.Seed = 2 },
		"gen kind":    func(r *Request) { r.Generator.Kind = "fft" },
		"gen n":       func(r *Request) { r.Generator.N = 5 },
		"gen volume":  func(r *Request) { r.Generator.Volume = 50 },
		"rel kind":    func(r *Request) { r.Reliability.Kind = "weibull"; r.Reliability.Shape = 2 },
		"m":           func(r *Request) { r.Platform.M = 5 },
		"delay":       func(r *Request) { r.Platform.Delay = 1 },
		"granularity": func(r *Request) { r.Granularity = 2 },
		"topology":    func(r *Request) { r.Topology = &TopologySpec{Shape: "ring"} },
		"samples":     func(r *Request) { r.Reliability.Samples = 64 },
		"mtbf":        func(r *Request) { r.Reliability.MTBF = 100 },
		"rel seed":    func(r *Request) { r.Reliability.Seed = 9 },
		"no rel":      func(r *Request) { r.Reliability = nil },
	}
	for name, mutate := range changes {
		req := quickReq()
		mutate(req)
		if req.hash() == base {
			t.Errorf("changing %s kept the cache key", name)
		}
	}
}

// An inline DAG and a generator spec are distinct key spaces even when
// they denote the same graph; both must serve.
func TestServeInlineDAG(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1})
	defer svc.Close()
	g, err := gen.Spec{Kind: "montage", N: 4, Volume: 100}.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := quickReq()
	req.Generator = nil
	req.DAG = g
	raw, err := svc.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	inline := decodeResponse(t, raw)
	raw2, err := svc.Do(context.Background(), quickReq())
	if err != nil {
		t.Fatal(err)
	}
	generated := decodeResponse(t, raw2)
	if inline.Latency != generated.Latency || inline.Replicas != generated.Replicas {
		t.Errorf("inline DAG scheduled differently from its generator spec: %+v vs %+v", inline, generated)
	}
}

// Responses must be byte-identical across service instances and worker
// counts — the serving analogue of the experiment engine's determinism
// guarantee.
func TestResponsesDeterministicAcrossWorkers(t *testing.T) {
	var first []byte
	for _, cfg := range []Config{
		{Workers: 1, MCWorkers: 1},
		{Workers: 8, MCWorkers: 4},
	} {
		svc := mustNew(t, cfg)
		raw, err := svc.Do(context.Background(), quickReq())
		if err != nil {
			svc.Close()
			t.Fatal(err)
		}
		// A hit must return the same bytes as the original compute.
		again, err := svc.Do(context.Background(), quickReq())
		if err != nil {
			svc.Close()
			t.Fatal(err)
		}
		svc.Close()
		if !bytes.Equal(raw, again) {
			t.Fatal("cache hit returned different bytes than the compute")
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			t.Fatalf("response differs across worker configs:\n%s\nvs\n%s", first, raw)
		}
	}
}

// Concurrent identical requests must collapse onto one compute: the
// cache entry is created once, everyone else waits on it, and /statsz
// observes exactly one miss.
func TestSingleflightCollapse(t *testing.T) {
	svc := mustNew(t, Config{Workers: 4})
	defer svc.Close()
	const n = 32
	var wg sync.WaitGroup
	responses := make([][]byte, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = svc.Do(context.Background(), quickReq())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(responses[0], responses[i]) {
			t.Fatal("collapsed requests returned different bytes")
		}
	}
	st := svc.Stats()
	if st.Misses != 1 {
		t.Errorf("%d computes for %d identical concurrent requests, want 1", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Errorf("%d hits, want %d", st.Hits, n-1)
	}
	if st.HitRate <= 0 || st.CacheEntries != 1 {
		t.Errorf("snapshot implausible: %+v", st)
	}
}

// A bounded cache evicts completed entries instead of growing without
// limit, and never evicts in-flight ones (waiters must resolve).
func TestCacheEviction(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, CacheMax: 2})
	defer svc.Close()
	for seed := int64(1); seed <= 5; seed++ {
		req := quickReq()
		req.Reliability = nil
		req.Seed = seed
		if _, err := svc.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.Stats().CacheEntries; n > 2 {
		t.Errorf("cache holds %d entries, max 2", n)
	}
}

// waitBusy blocks until the service reports n in-flight requests.
func waitBusy(t *testing.T, svc *Service, n int64) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if svc.Stats().InFlight >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("service never became busy")
}

// slowReq returns a request whose Monte-Carlo stage keeps the single
// worker busy long enough to observe queueing behavior.
func slowReq() *Request {
	req := quickReq()
	req.Reliability.Samples = 1 << 18
	return req
}

// A canceled caller abandons the wait, not the cache: cancellation
// before the pool handoff removes the entry so the next identical
// request retries and succeeds.
func TestDoCancellation(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, MCWorkers: 1})
	defer svc.Close()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Do(context.Background(), slowReq())
		done <- err
	}()
	waitBusy(t, svc, 1)
	time.Sleep(5 * time.Millisecond) // let the slow job reach the worker

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Do(ctx, quickReq()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Do returned %v, want context.Canceled", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slow request failed: %v", err)
	}
	// The abandoned key must not be poisoned.
	if _, err := svc.Do(context.Background(), quickReq()); err != nil {
		t.Fatalf("request after abandoned identical request failed: %v", err)
	}
}

// Close racing a blocked pool handoff must not panic (the jobs channel
// is never closed) and must fail the blocked request with ErrClosed.
func TestCloseUnblocksPendingHandoff(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, MCWorkers: 1})
	slow := make(chan error, 1)
	go func() {
		_, err := svc.Do(context.Background(), slowReq())
		slow <- err
	}()
	waitBusy(t, svc, 1)
	time.Sleep(5 * time.Millisecond)

	blocked := make(chan error, 1)
	go func() {
		_, err := svc.Do(context.Background(), quickReq())
		blocked <- err
	}()
	waitBusy(t, svc, 2)
	svc.Close()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked request returned %v, want ErrClosed", err)
	}
	// The in-flight compute was allowed to finish.
	if err := <-slow; err != nil {
		t.Fatalf("in-flight request failed across Close: %v", err)
	}
}

// failingReq is a valid spec whose build fails in the worker: an
// explicit exec matrix of the wrong shape (structural validation cannot
// see the generated task count).
func failingReq() *Request {
	req := quickReq()
	req.Reliability = nil
	req.Exec = [][]float64{{1, 1, 1, 1}}
	return req
}

// Regression test for the error-pinning bug: a compute that errored
// used to stay in the cache forever, so every future identical request
// was counted a "hit" and re-served the stale error. Error entries are
// now evicted when the compute completes — the next identical request
// must recompute (a fresh miss, not a hit), and the cache must hold no
// entry for the failed key.
func TestErrorsNotCached(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1})
	defer svc.Close()
	req := failingReq()
	if _, err := svc.Do(context.Background(), req); err == nil {
		t.Fatal("mis-shaped exec matrix accepted")
	}
	if n := svc.Stats().CacheEntries; n != 0 {
		t.Fatalf("failed compute left %d cache entries, want 0", n)
	}
	if _, err := svc.Do(context.Background(), req); err == nil {
		t.Fatal("second request accepted")
	}
	st := svc.Stats()
	if st.Misses != 2 || st.Hits != 0 || st.Failures != 2 {
		t.Errorf("stats %+v: want 2 misses, 0 hits, 2 failures — errors must recompute, not pin", st)
	}
	// A success under the same service must stay cached as before.
	ok := quickReq()
	ok.Reliability = nil
	if _, err := svc.Do(context.Background(), ok); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Do(context.Background(), ok); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Hits != 1 {
		t.Errorf("successful response not cached after error eviction: %+v", st)
	}
}

// Error eviction under concurrent collapsed waiters: every waiter that
// collapsed onto the failing in-flight entry must still observe the
// error (no hang, no nil response), and once all resolve the key must
// be free so the next request recomputes. Runs under -race in CI.
func TestErrorEvictionConcurrentWaiters(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	defer svc.Close()
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([][]byte, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = svc.Do(context.Background(), failingReq())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] == nil || resps[i] != nil {
			t.Fatalf("waiter %d: err=%v resp=%v, want collapsed error", i, errs[i], resps[i])
		}
	}
	st := svc.Stats()
	if st.Failures != n {
		t.Errorf("%d failures recorded for %d waiters", st.Failures, n)
	}
	if st.CacheEntries != 0 {
		t.Errorf("failed key still resident: %d entries", st.CacheEntries)
	}
	// The key is free: the next identical request is a fresh compute.
	before := st.Misses
	if _, err := svc.Do(context.Background(), failingReq()); err == nil {
		t.Fatal("recompute accepted a bad exec matrix")
	}
	if after := svc.Stats().Misses; after != before+1 {
		t.Errorf("misses %d -> %d: request after collapsed failure did not recompute", before, after)
	}
}

// The Do/Close shutdown race, end to end: callers blocked on the pool
// handoff resolve with ErrClosed, nothing panics, and no abandoned
// entry survives in the cache. Runs under -race in CI.
func TestDoCloseRaceNoLeakedEntry(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, MCWorkers: 1})
	slow := make(chan error, 1)
	go func() {
		_, err := svc.Do(context.Background(), slowReq())
		slow <- err
	}()
	waitBusy(t, svc, 1)
	time.Sleep(5 * time.Millisecond) // let the slow job reach the worker

	const blocked = 8
	errs := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		go func(i int) {
			req := quickReq()
			req.Reliability = nil
			req.Seed = int64(100 + i) // distinct keys: all block on the handoff
			_, err := svc.Do(context.Background(), req)
			errs <- err
		}(i)
	}
	waitBusy(t, svc, blocked+1)
	svc.Close()
	for i := 0; i < blocked; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked caller got %v, want ErrClosed", err)
		}
	}
	if err := <-slow; err != nil {
		t.Fatalf("in-flight compute failed across Close: %v", err)
	}
	// Abandoned handoffs must remove their entries; only the completed
	// slow compute may stay resident.
	if n := svc.Stats().CacheEntries; n != 1 {
		t.Errorf("%d cache entries after shutdown, want 1 (the completed compute)", n)
	}
}
