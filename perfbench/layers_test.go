package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"caft/internal/sched"
	"caft/internal/timeline"
)

// insertionSchedule builds a small ftsa schedule (eps 1, so with many
// transfers) under the insertion policy.
func insertionSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g, plat, exec := genInstance(rng, 60, 60, 4, 1.0)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Insertion}
	d, eps, err := lookupAlg("ftsa", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.New(p, eps, rng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTimelineReplayChecksStarts replays a real insertion schedule, whose
// searched slots must all equal the scheduler's starts, then moves the
// last-placed replica and expects exactly that reservation to fail.
func TestTimelineReplayChecksStarts(t *testing.T) {
	s := insertionSchedule(t)
	l := &layerSet{}
	if err := l.timelineLayer([]*sched.Schedule{s}); err != nil {
		t.Fatal(err)
	}
	if l.failed != 0 {
		t.Fatalf("replay of an untouched schedule: %d failures", l.failed)
	}

	last := [2]int{-1, -1}
	var seq int32 = -1
	for ti, reps := range s.Reps {
		for ri, r := range reps {
			if r.Seq > seq {
				seq, last = r.Seq, [2]int{ti, ri}
			}
		}
	}
	r := &s.Reps[last[0]][last[1]]
	r.Start += 1
	r.Finish += 1
	l = &layerSet{}
	if err := l.timelineLayer([]*sched.Schedule{s}); err != nil {
		t.Fatal(err)
	}
	if l.failed != 1 {
		t.Fatalf("replay with one moved replica: %d failures, want 1", l.failed)
	}
}

func TestClassSharesFollowZipf(t *testing.T) {
	cfg := serveConfig{Pool: 1000, HotSet: 32, ZipfS: 1.1, ColdStream: 1_000_000}
	hot, warm, cold := cfg.classShares()
	if math.Abs(hot+warm+cold-1) > 1e-12 {
		t.Errorf("shares sum to %v", hot+warm+cold)
	}
	// Every one of the 1000 problems is seen in a stream of a million.
	if math.Abs(cold-0.001) > 1e-6 {
		t.Errorf("cold share %v, want 0.001", cold)
	}
	// Mass of the top 32 of 1000 zipf(1.1) ranks.
	if got := hot / (1 - cold); math.Abs(got-0.6324) > 1e-4 {
		t.Errorf("hot mass %v, want 0.6324", got)
	}
}

func TestFixedRounds(t *testing.T) {
	for _, c := range []struct {
		budget                time.Duration
		roundS                float64
		minRounds, mult, want int
	}{
		{30 * time.Second, 4, 2, 2, 8},
		{30 * time.Second, 4, 2, 3, 9},
		{time.Second, 4, 2, 2, 2},
		{30 * time.Second, 0.15, 4, 1, 200},
	} {
		if got := fixedRounds(c.budget, c.roundS, c.minRounds, c.mult); got != c.want {
			t.Errorf("fixedRounds(%v, %v, %d, %d) = %d, want %d", c.budget, c.roundS, c.minRounds, c.mult, got, c.want)
		}
	}
}

// TestProbePairsForwardOnce sends a probe batch through a smoke-sized
// cluster: each problem goes through both nodes, so exactly one request
// of every pair is forwarded to the owner.
func TestProbePairsForwardOnce(t *testing.T) {
	cfg, err := loadConfig(true)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newServe(cfg.Serve, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	const pairs = 10
	reqs := w.drawProbe(0, pairs)
	for k := 0; k < pairs; k++ {
		a, b := reqs[2*k], reqs[2*k+1]
		if a.problem != b.problem || a.entry == b.entry || a.class == classCold {
			t.Fatalf("pair %d: %+v then %+v", k, a, b)
		}
	}
	before := w.c.stats()
	lat, failed, err := w.runProbe(reqs, nil, 0)
	if err != nil || failed != 0 || len(lat) != 2*pairs {
		t.Fatalf("probe: %d latencies, %d failed, err %v", len(lat), failed, err)
	}
	if d := statsDelta(before, w.c.stats()); d.Forwards != pairs || d.Misses != 0 {
		t.Errorf("probe: %d forwards and %d computes, want %d and 0", d.Forwards, d.Misses, pairs)
	}
}
