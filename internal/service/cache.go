package service

import "sync"

// entry is one content-addressed cache slot. done is closed when the
// compute finishes or the entry is abandoned; resp, err and ran are
// written exactly once before that and immutable afterwards, so any
// number of readers may share them. ran tells a compute's error from an
// abandoned entry's.
type entry struct {
	done chan struct{}
	resp []byte
	err  error
	ran  bool
}

// cache maps canonical request hashes to entries. It doubles as the
// singleflight table: the first requester of a key creates the entry
// (and owns the compute), every later requester — concurrent or not —
// finds it and waits on done. The read path takes only an RLock and
// allocates nothing.
//
// Only successful computes stay resident: the worker removes an entry
// whose compute errored (remove) before closing done, so collapsed
// waiters still observe the error but the next identical request
// recomputes instead of being re-served a pinned failure.
//
// Eviction is O(1) amortized: complete closes an entry's done and
// pushes its key onto doneq under one write lock, so every completed
// resident entry is queued from the moment it is done, and evictLocked
// pops candidates instead of scanning the map.
type cache struct {
	mu  sync.RWMutex
	m   map[hashKey]*entry
	max int // entries; 0 = unbounded

	// doneq is a FIFO of completed resident keys — eviction candidates.
	// head indexes the next pop; the backing array is compacted when the
	// dead prefix dominates. Keys are pushed at most once per completion
	// and popped at most once, so the live region stays bounded by the
	// resident completed entries. Maintained only when max > 0.
	doneq []hashKey
	head  int
}

func newCache(max int) *cache {
	return &cache{m: make(map[hashKey]*entry), max: max}
}

// lookup returns the entry for key, creating it when absent. created
// reports whether the caller owns the compute for this entry.
//
//caft:zeroalloc
func (c *cache) lookup(key hashKey) (e *entry, created bool) {
	c.mu.RLock()
	e = c.m[key]
	c.mu.RUnlock()
	if e != nil {
		return e, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.m[key]; e != nil {
		return e, false
	}
	if c.max > 0 && len(c.m) >= c.max {
		c.evictLocked()
	}
	e = &entry{done: make(chan struct{})} //caft:alloc-ok cache-miss entry; the hit path allocates nothing
	c.m[key] = e
	return e, true
}

// evictLocked drops one completed entry. Candidates come off doneq in
// completion order (oldest-completed first), skipping keys whose entry
// was already removed or replaced. In-flight entries are never evicted,
// so their waiters always resolve; if no resident entry has completed
// the cache temporarily exceeds max rather than blocking.
//
//caft:zeroalloc
func (c *cache) evictLocked() {
	for c.head < len(c.doneq) {
		k := c.doneq[c.head]
		c.head++
		if c.head == len(c.doneq) {
			c.doneq, c.head = c.doneq[:0], 0
		}
		e := c.m[k]
		if e == nil {
			continue // removed since completion (failed, abandoned, re-keyed)
		}
		select {
		case <-e.done:
			delete(c.m, k)
			return
		default:
			// The key was reused by a newer, still in-flight entry; its
			// completion will re-push it.
		}
	}
}

// complete resolves a computed entry: it closes e.done and, in a
// bounded cache, queues key as an eviction candidate if e is still the
// resident entry, both under the write lock.
func (c *cache) complete(key hashKey, e *entry) {
	c.mu.Lock()
	close(e.done)
	if c.max > 0 && c.m[key] == e {
		if c.head > 0 && c.head == len(c.doneq) {
			c.doneq, c.head = c.doneq[:0], 0
		}
		c.doneq = append(c.doneq, key)
	}
	c.mu.Unlock()
}

// remove drops the entry for key if it is still the one stored.
// Abandoning creators use it so a never-computed entry does not pin the
// key forever, and workers use it for computes that errored — running
// *before* close(e.done), so waiters already collapsed onto e still
// receive the error through their entry pointer while the key is free
// again and the next identical request recomputes.
//
//caft:zeroalloc
func (c *cache) remove(key hashKey, e *entry) {
	c.mu.Lock()
	if c.m[key] == e {
		delete(c.m, key)
	}
	c.mu.Unlock()
}

//caft:zeroalloc
func (c *cache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
