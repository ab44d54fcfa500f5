package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latWindow is the number of recent request latencies kept for the
// quantile estimates — a fixed ring so recording stays allocation-free.
const latWindow = 1024

// stats holds the serving counters. Counter updates and latency
// recording are allocation-free; snapshot (the /statsz path) copies and
// sorts the latency window.
type stats struct {
	hits          atomic.Int64
	misses        atomic.Int64
	diskHits      atomic.Int64
	shed          atomic.Int64
	forwards      atomic.Int64
	forwardErrors atomic.Int64
	failures      atomic.Int64
	badRequests   atomic.Int64
	inflight      atomic.Int64

	mu  sync.Mutex
	lat [latWindow]float64 // seconds, ring buffer
	n   int                // total recorded
}

//caft:zeroalloc
func (st *stats) record(d time.Duration) {
	sec := d.Seconds()
	st.mu.Lock()
	st.lat[st.n%latWindow] = sec
	st.n++
	st.mu.Unlock()
}

// StatsSnapshot is the /statsz wire format.
type StatsSnapshot struct {
	// Hits counts requests answered from the cache, including those
	// collapsed onto an in-flight identical request that succeeded;
	// Misses counts the requests that triggered a compute. Misses is
	// therefore the number of scheduling runs performed.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// HitRate is Hits over Hits+Misses (0 before any request).
	HitRate float64 `json:"hitRate"`
	// DiskHits counts the subset of Hits answered by the persistent
	// disk tier — keys absent from memory (restart, eviction) whose
	// bytes were read back instead of recomputed.
	DiskHits int64 `json:"diskHits"`
	// Shed counts the requests answered with ErrOverloaded / HTTP 429:
	// those whose compute the admission gate (AdmitMax) rejected, and
	// those collapsed onto such a request. It equals the number of
	// ErrOverloaded returns.
	Shed int64 `json:"shed"`
	// Forwards counts /schedule requests this node routed to their
	// owning peer; ForwardErrors the subset served locally instead,
	// because the peer was unreachable, failed before its whole body
	// arrived, or answered with a 5xx status.
	Forwards      int64 `json:"forwards"`
	ForwardErrors int64 `json:"forwardErrors"`
	// Failures counts requests answered with the error of a compute
	// that ran, collapsed requests included; an entry abandoned before
	// it reached the pool (shed, canceled, closing) is no failure.
	// BadRequests counts requests rejected by validation before
	// hashing.
	Failures    int64 `json:"failures"`
	BadRequests int64 `json:"badRequests"`
	// InFlight is the number of requests currently being served
	// (waiting included); CacheEntries the resident responses in
	// memory; DiskEntries the responses persisted by the disk tier (0
	// when disabled).
	InFlight     int64 `json:"inFlight"`
	CacheEntries int   `json:"cacheEntries"`
	DiskEntries  int   `json:"diskEntries"`
	// P50Millis / P99Millis are request-latency quantiles over the last
	// 1024 requests (hits and misses alike), in milliseconds.
	P50Millis float64 `json:"p50Millis"`
	P99Millis float64 `json:"p99Millis"`
	// Workers is the configured compute-pool size.
	Workers int `json:"workers"`
}

func (st *stats) snapshot(cacheEntries, diskEntries, workers int) StatsSnapshot {
	s := StatsSnapshot{
		Hits:          st.hits.Load(),
		Misses:        st.misses.Load(),
		DiskHits:      st.diskHits.Load(),
		Shed:          st.shed.Load(),
		Forwards:      st.forwards.Load(),
		ForwardErrors: st.forwardErrors.Load(),
		Failures:      st.failures.Load(),
		BadRequests:   st.badRequests.Load(),
		InFlight:      st.inflight.Load(),
		CacheEntries:  cacheEntries,
		DiskEntries:   diskEntries,
		Workers:       workers,
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	st.mu.Lock()
	n := st.n
	if n > latWindow {
		n = latWindow
	}
	window := append([]float64(nil), st.lat[:n]...)
	st.mu.Unlock()
	if n > 0 {
		sort.Float64s(window)
		s.P50Millis = 1e3 * quantile(window, 0.50)
		s.P99Millis = 1e3 * quantile(window, 0.99)
	}
	return s
}

// quantile returns the q-quantile of sorted (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
