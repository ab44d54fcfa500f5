package core

import (
	"math/rand"
	"testing"

	"caft/internal/gen"
	"caft/internal/sim"
)

func TestBatchValidAndResilient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		p := randomProblem(rng, 40, 8, 1.0)
		for _, window := range []int{1, 4, 10} {
			for _, eps := range []int{1, 2} {
				s, err := ScheduleBatch(p, eps, window, rng)
				if err != nil {
					t.Fatalf("window=%d eps=%d: %v", window, eps, err)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("window=%d eps=%d: %v", window, eps, err)
				}
				for ti := range s.Reps {
					if len(s.Reps[ti]) != eps+1 {
						t.Fatalf("window=%d: task %d has %d replicas", window, ti, len(s.Reps[ti]))
					}
				}
				rep, err := sim.NewReplayer(s)
				if err != nil {
					t.Fatal(err)
				}
				for draw := 0; draw < 10; draw++ {
					crashed := map[int]bool{}
					for len(crashed) < eps {
						crashed[rng.Intn(8)] = true
					}
					if _, err := rep.CrashLatency(crashed); err != nil {
						t.Fatalf("window=%d eps=%d crashed=%v: %v", window, eps, crashed, err)
					}
				}
			}
		}
	}
}

func TestBatchWindowOneMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomProblem(rng, 40, 8, 1.0)
	sb, err := ScheduleBatch(p, 1, 1, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	sg, _, err := ScheduleOpts(p, 1, rand.New(rand.NewSource(9)), Options{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if sb.ScheduledLatency() != sg.ScheduledLatency() {
		t.Fatalf("window=1 latency %v != greedy %v", sb.ScheduledLatency(), sg.ScheduledLatency())
	}
	if sb.MessageCount() != sg.MessageCount() {
		t.Fatalf("window=1 messages %d != greedy %d", sb.MessageCount(), sg.MessageCount())
	}
}

func TestBatchRejectsBadWindow(t *testing.T) {
	p := uniformProblem(gen.Chain(3, 5), 3, 1)
	if _, err := ScheduleBatch(p, 1, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted window 0")
	}
}
