package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Config tunes a Service.
type Config struct {
	// Workers is the size of the scheduling worker pool — the number of
	// problems computed concurrently. 0 means GOMAXPROCS. The worker
	// count never affects response bytes, only throughput.
	Workers int
	// MCWorkers is the fan-out of the reliability Monte-Carlo batches
	// on the expt work-unit pool. 0 means GOMAXPROCS; estimates are
	// byte-identical for any value.
	MCWorkers int
	// CacheMax bounds the in-memory response cache (entries); 0 means
	// unbounded. It does not bound the disk tier.
	CacheMax int

	// AdmitMax bounds the computes accepted at once — running plus
	// queued on the pool handoff. Past it, misses are shed immediately
	// with ErrOverloaded (HTTP 429 + Retry-After) instead of queueing
	// without bound; cache hits are never shed. 0 means unbounded.
	AdmitMax int

	// DiskDir enables the persistent cache tier: successful responses
	// are appended to segment files under this directory and reloaded
	// into the serving index on start, so a restarted node answers its
	// old keyspace byte-identically without recomputing. Empty disables
	// the tier.
	DiskDir string

	// Self and Peers configure cluster routing. Peers is the full
	// member list (Self included); each node owns a consistent-hash
	// range of the keyspace, and the HTTP layer forwards non-owned
	// /schedule requests to their owner (one internal hop). Empty Peers
	// disables routing (single-node serving).
	Self  string
	Peers []string
	// PeerTimeout bounds one forwarded request end to end; 0 means
	// defaultPeerTimeout.
	PeerTimeout time.Duration
}

// ErrBadRequest wraps every request-validation failure; the HTTP layer
// maps it to 400 and everything else to 500.
var ErrBadRequest = errors.New("bad request")

// ErrClosed is returned by Do once Close has been called.
var ErrClosed = errors.New("service closed")

// ErrOverloaded is returned by Do when the admission gate (AdmitMax)
// sheds a compute; the HTTP layer maps it to 429 with Retry-After.
var ErrOverloaded = errors.New("overloaded")

// Service is the scheduling service core: a content-addressed response
// cache (memory, optionally backed by a persistent disk tier) with
// singleflight collapsing in front of a bounded, admission-controlled
// worker pool. It is safe for concurrent use, including Do racing
// Close: requests that cannot be handed to the pool anymore fail with
// ErrClosed.
type Service struct {
	cfg     Config
	cache   *cache
	disk    *diskStore // nil without DiskDir
	ring    *ring      // nil without Peers
	peers   *peerClient
	admit   *admission // nil without AdmitMax
	jobs    chan job
	closing chan struct{}
	st      stats
	wg      sync.WaitGroup
}

type job struct {
	req *Request
	key hashKey
	e   *entry
}

// New starts a Service with cfg.Workers compute workers. It fails when
// the disk tier cannot be opened or the cluster spec is inconsistent
// (Peers set without Self, or Self missing from Peers).
func New(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) //caft:nondet-ok default worker count; schedules are keyed by request
	}
	s := &Service{
		cfg:     cfg,
		cache:   newCache(cfg.CacheMax),
		admit:   newAdmission(cfg.AdmitMax),
		jobs:    make(chan job),
		closing: make(chan struct{}),
	}
	if cfg.DiskDir != "" {
		d, err := openDisk(cfg.DiskDir)
		if err != nil {
			return nil, err
		}
		s.disk = d
	}
	if len(cfg.Peers) > 0 {
		r, err := newRing(cfg.Self, cfg.Peers)
		if err != nil {
			if s.disk != nil {
				s.disk.close()
			}
			return nil, err
		}
		s.ring = r
		s.peers = newPeerClient(cfg.PeerTimeout)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Close stops the worker pool after the in-flight computes finish, then
// syncs and closes the disk tier. Requests still blocked on the pool
// handoff resolve with ErrClosed; nothing panics however Close races
// in-flight Do calls (the jobs channel is never closed — workers and
// blocked senders both leave via the closing signal).
func (s *Service) Close() {
	close(s.closing)
	s.wg.Wait()
	if s.disk != nil {
		s.disk.close()
	}
	s.peers.closeIdle()
}

// Do serves one request: validate, hash, and either return the cached
// (memory or disk) or in-flight response or compute it on the pool. The
// returned bytes are the immutable encoded response and must not be
// modified.
//
// ctx cancels the *wait*, not the compute: a caller that gives up while
// its entry is in flight gets ctx.Err() and the worker still finishes
// and caches the result for future requests. A caller canceled before
// its compute was handed to the pool removes the entry, so collapsed
// waiters fail fast and the next identical request retries.
//
// The memory-cache-hit path — hash, lookup, receive from a closed
// channel, stats — performs no scheduling work and allocates nothing;
// BenchmarkServeCached pins this. The disk-hit and miss paths run off
// that pin.
//
//caft:zeroalloc
func (s *Service) Do(ctx context.Context, req *Request) ([]byte, error) {
	if err := req.validate(); err != nil { //caft:alloc-ok validate allocates only when it rejects; valid requests pass through clean
		s.st.badRequests.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err) //caft:alloc-ok bad-request rejection path; the serving path allocates nothing
	}
	start := time.Now() //caft:nondet-ok latency metric only; never enters a response body
	s.st.inflight.Add(1)
	defer s.st.inflight.Add(-1)

	key := req.hash()
	e, created := s.cache.lookup(key)
	if created {
		if err := s.fill(ctx, key, e, req); err != nil { //caft:alloc-ok miss path, off the pinned hit path
			return nil, err
		}
	}
	select {
	case <-e.done:
	case <-ctx.Done(): //caft:alloc-ok context poll; Done returns the context's cached channel
		return nil, ctx.Err() //caft:alloc-ok cancellation path; Err returns the context's cached error
	}
	s.st.record(time.Since(start)) //caft:nondet-ok latency metric only; never enters a response body
	if e.err != nil {
		// A request collapsed onto an entry the gate shed is shed too.
		switch {
		case errors.Is(e.err, ErrOverloaded):
			s.st.shed.Add(1)
		case e.ran:
			s.st.failures.Add(1)
		}
		return nil, e.err
	}
	if !created {
		s.st.hits.Add(1)
	}
	return e.resp, nil
}

// fill resolves a freshly created entry: serve it from the disk tier if
// the key is persisted, otherwise admit the compute and hand it to the
// pool. Runs only on the miss path.
func (s *Service) fill(ctx context.Context, key hashKey, e *entry, req *Request) error {
	if s.disk != nil {
		if resp, ok := s.disk.get(key); ok {
			e.resp = resp
			s.cache.complete(key, e)
			// No scheduling run happened: a disk read is a hit (Misses
			// documents computes), tallied separately as DiskHits.
			s.st.hits.Add(1)
			s.st.diskHits.Add(1)
			return nil
		}
	}
	if !s.admit.acquire() {
		s.st.shed.Add(1)
		return s.abandon(key, e, ErrOverloaded)
	}
	select {
	case s.jobs <- job{req: req, key: key, e: e}:
		// Counted only after the handoff: Misses documents the number
		// of scheduling runs performed, and an abandoned entry never
		// reaches a worker.
		s.st.misses.Add(1)
		return nil
	case <-ctx.Done():
		s.admit.release()
		return s.abandon(key, e, ctx.Err())
	case <-s.closing:
		s.admit.release()
		return s.abandon(key, e, ErrClosed)
	}
}

// abandon resolves an entry whose compute never reached the pool:
// waiters collapsed onto it fail with err, and the entry leaves the
// cache so the next identical request retries.
func (s *Service) abandon(key hashKey, e *entry, err error) error {
	s.cache.remove(key, e)
	e.err = err
	close(e.done)
	return err
}

// Stats returns a snapshot of the serving counters.
func (s *Service) Stats() StatsSnapshot {
	diskEntries := 0
	if s.disk != nil {
		diskEntries = s.disk.len()
	}
	return s.st.snapshot(s.cache.len(), diskEntries, s.cfg.Workers)
}

func (s *Service) worker() {
	defer s.wg.Done()
	sc := newScratch()
	for {
		select {
		case j := <-s.jobs:
			j.e.resp, j.e.err = s.compute(sc, j.req)
			j.e.ran = true
			// The compute is over: free its admission slot before
			// waking waiters, so a caller whose Do just returned is not
			// shed by a slot its own finished compute still holds.
			s.admit.release()
			if j.e.err != nil {
				// Evict before waking waiters: collapsed callers still
				// see the error through their entry pointer, but the
				// key is free, so the next identical request recomputes
				// instead of being re-served a pinned failure.
				s.cache.remove(j.key, j.e)
				close(j.e.done)
			} else {
				// Persist before waking waiters, so a response a caller
				// has seen is already on disk (and counted in Stats).
				if s.disk != nil {
					s.disk.put(j.key, j.e.resp)
				}
				s.cache.complete(j.key, j.e)
			}
		case <-s.closing:
			return
		}
	}
}
