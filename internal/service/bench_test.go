package service

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkServeCached measures the cache-hit path: canonical hash,
// lookup, stats. No scheduling work runs and the service layer
// allocates nothing per request — TestServeCachedAllocFree pins the
// zero, this benchmark reports it (run with -benchmem).
func BenchmarkServeCached(b *testing.B) {
	svc := mustNew(b, Config{Workers: 2})
	defer svc.Close()
	req := quickReq()
	if _, err := svc.Do(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Do(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// The acceptance pin behind BenchmarkServeCached: a cache hit must not
// allocate in the service layer.
func TestServeCachedAllocFree(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2})
	defer svc.Close()
	req := quickReq()
	if _, err := svc.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		_, err = svc.Do(context.Background(), req)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("cache-hit path allocates %.1f per request, want 0", allocs)
	}
}

// BenchmarkCacheEvictMiss measures the miss path of a full bounded
// cache — each lookup of a fresh key must evict a completed entry
// first. Eviction pops the completed-key queue, which complete fills as
// each entry finishes, and never scans the map, so per-miss cost must
// stay flat as the cache grows; a map scan made it O(cache size) per
// miss.
func BenchmarkCacheEvictMiss(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			c := newCache(size)
			complete := func(key hashKey) {
				e, created := c.lookup(key)
				if created {
					c.complete(key, e)
				}
			}
			for i := 0; i < size; i++ {
				complete(hashKey{a: uint64(i + 1), b: uint64(i) << 7})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				complete(hashKey{a: uint64(size + i + 1), b: uint64(size+i) << 7})
			}
		})
	}
}

// serveMissAllocs bounds one cache miss through Service.Do over the
// seeds TestServeMissAllocPin sends: the maximum of repeated runs when
// the pin was set (the count varies by one from run to run).
const serveMissAllocs = 1358

// raceEnabled is set by race_test.go in race-instrumented builds.
var raceEnabled bool

// TestServeMissAllocPin pins the miss path's allocation count: each
// call builds quickReq without reliability under a fresh seed, so every
// request is a full compute (schedule + encode).
func TestServeMissAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the standard library's pooled buffers reallocate")
	}
	svc := mustNew(t, Config{Workers: 2})
	defer svc.Close()
	seed := int64(0)
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		req := quickReq()
		req.Reliability = nil
		req.Seed = seed
		_, err = svc.Do(context.Background(), req)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > serveMissAllocs {
		t.Errorf("cache miss allocates %.0f per request, want <= %d", allocs, serveMissAllocs)
	}
}
