package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are offsets from
// the recorder's start; parent is the index of the enclosing span (-1 for
// a root) and req groups the spans of one request or work unit.
type span struct {
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Parent int              `json:"parent"`
	Req    int64            `json:"req"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so the runners call it
// unconditionally. It is safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 when untraced).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// count adds n to the named counter of span id.
func (r *recorder) count(id int, name string, n int64) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[name] += n
}

// allocSpan is a span that also counts the heap allocations made inside
// it. Only the single-goroutine runners use it: the Mallocs delta is
// process wide.
type allocSpan struct {
	r       *recorder
	id      int
	mallocs uint64
}

func (r *recorder) beginAllocs(name string, parent int, req int64) allocSpan {
	if r == nil {
		return allocSpan{id: -1}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocSpan{r: r, id: r.begin(name, parent, req), mallocs: ms.Mallocs}
}

func (a allocSpan) end() {
	if a.r == nil {
		return
	}
	a.r.end(a.id)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.r.count(a.id, "allocs", int64(ms.Mallocs-a.mallocs))
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (the union, so overlapping children from
// concurrent goroutines are not subtracted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			ks, ke := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		covered += curEnd - curStart
		self[i] = s.End - s.Start - covered
	}
	return self
}

// summarize prints one line per span name: count, total and self time,
// and the summed counters.
func (r *recorder) summarize(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	type agg struct {
		n           int
		total, self time.Duration
		counts      map[string]int64
	}
	byName := map[string]*agg{}
	var names []string
	for i, s := range r.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{counts: map[string]int64{}}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += self[i]
		for k, v := range s.Counts {
			a.counts[k] += v
		}
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "span %s count=%d total_ms=%.3f self_ms=%.3f", n, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6)
		keys := make([]string, 0, len(a.counts))
		for k := range a.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, a.counts[k])
		}
		fmt.Fprintln(w)
	}
}

// writeFile writes every span as one JSON line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
