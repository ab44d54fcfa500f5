package core

import (
	"math/rand"
	"reflect"
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

// TestBatchWindowOneMatchesGreedy pins window 1 to greedy CAFT replica
// by replica and message by message, also under bounded probing, whose
// widened fallback rounds need the full processor list.
func TestBatchWindowOneMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 3; trial++ {
		base := randomProblem(rng, 40, 8, 1.0)
		for _, width := range []int{0, 1, 2} {
			p := *base
			p.ProbeWidth = width
			for _, eps := range []int{1, 2, 3} {
				sb, err := ScheduleBatch(&p, eps, 1, rand.New(rand.NewSource(9)))
				if err != nil {
					t.Fatalf("trial %d width %d eps %d: window=1: %v", trial, width, eps, err)
				}
				sg, _, err := ScheduleOpts(&p, eps, rand.New(rand.NewSource(9)), Options{Greedy: true})
				if err != nil {
					t.Fatalf("trial %d width %d eps %d: greedy: %v", trial, width, eps, err)
				}
				if !reflect.DeepEqual(sb.Reps, sg.Reps) {
					t.Fatalf("trial %d width %d eps %d: window=1 replicas differ from greedy", trial, width, eps)
				}
				if !reflect.DeepEqual(sb.Comms, sg.Comms) {
					t.Fatalf("trial %d width %d eps %d: window=1 comms differ from greedy", trial, width, eps)
				}
			}
		}
	}
}

func TestBatchRejectsBadWindow(t *testing.T) {
	p := uniformProblem(gen.Chain(3, 5), 3, 1)
	if _, err := ScheduleBatch(p, 1, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("accepted window 0")
	}
}
