package caft

import (
	"math"
	"math/rand"
	"testing"
)

// TestFacadeEndToEnd drives the whole public API surface as a
// downstream user would.
func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewDAG(4)
	g.AddEdge(0, 1, 40)
	g.AddEdge(0, 2, 60)
	g.AddEdge(1, 3, 50)
	g.AddEdge(2, 3, 30)
	plat := NewRandomPlatform(rng, 4, 0.5, 1.0)
	exec := GenExecForGranularity(rng, g, plat, 1.0)
	p := &Problem{G: g, Plat: plat, Exec: exec}

	schedulers := map[string]func() (*Schedule, error){
		"caft":  func() (*Schedule, error) { return ScheduleCAFT(p, 1, rng) },
		"ftsa":  func() (*Schedule, error) { return ScheduleFTSA(p, 1, rng) },
		"ftbar": func() (*Schedule, error) { return ScheduleFTBAR(p, 1, rng) },
		"batch": func() (*Schedule, error) { return ScheduleBatchCAFT(p, 1, 3, rng) },
		"greedy": func() (*Schedule, error) {
			return ScheduleCAFTOpts(p, 1, rng, CAFTOptions{Greedy: true})
		},
	}
	for name, build := range schedulers {
		s, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := NewReplayer(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lb, err := rep.LowerBound()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ub, err := rep.UpperBound()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ub < lb {
			t.Fatalf("%s: ub %v < lb %v", name, ub, lb)
		}
		for proc := 0; proc < 4; proc++ {
			if _, err := rep.CrashLatency(map[int]bool{proc: true}); err != nil {
				t.Fatalf("%s crash P%d: %v", name, proc, err)
			}
			if _, err := rep.CrashLatencyAt(map[int]float64{proc: lb / 2}); err != nil {
				t.Fatalf("%s timed crash P%d: %v", name, proc, err)
			}
		}
		mt := s.ComputeMetrics()
		// 2 mandatory replicas per task; FTBAR's Minimize-Start-Time may
		// add duplicates on top.
		if mt.Replicas < 8 {
			t.Fatalf("%s: %d replicas, want >= 8", name, mt.Replicas)
		}
	}

	sh, err := ScheduleHEFT(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sh.ReplicaCount() != 4 {
		t.Fatalf("HEFT replicas = %d", sh.ReplicaCount())
	}
	hp := NewPlatform(3, 1)
	if hp.M != 3 || hp.Delay[0][1] != 1 {
		t.Fatal("NewPlatform broken")
	}
}

// TestFacadeUnreliability drives the stochastic failure-model surface:
// sampling models, the Monte-Carlo unreliability estimator, and the
// limiting behaviors (never-failing and always-failing platforms).
func TestFacadeUnreliability(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewDAG(5)
	g.AddEdge(0, 1, 50)
	g.AddEdge(0, 2, 50)
	g.AddEdge(1, 3, 50)
	g.AddEdge(2, 3, 50)
	g.AddEdge(3, 4, 50)
	plat := NewRandomPlatform(rng, 5, 0.5, 1.0)
	exec := GenExecForGranularity(rng, g, plat, 1.0)
	p := &Problem{G: g, Plat: plat, Exec: exec}
	s, err := ScheduleCAFT(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(s)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := rep.LowerBound()
	if err != nil {
		t.Fatal(err)
	}

	// Rare failures: unreliability must be (near) zero and the surviving
	// latency close to the fault-free one.
	rare := &ExponentialFailures{MTBF: UniformMTBF(rng, 5, 1e6*lb, 2e6*lb)}
	unrel, mean, err := Unreliability(s, rare, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if unrel > 0.05 {
		t.Fatalf("rare-failure unreliability %v", unrel)
	}
	if mean < lb-1e-6 {
		t.Fatalf("mean latency %v below fault-free %v", mean, lb)
	}

	// Certain immediate loss: a trace crashing every processor at 0.
	all := map[int]float64{}
	for proc := 0; proc < 5; proc++ {
		all[proc] = 0
	}
	doom := &TraceFailures{Scenarios: []map[int]float64{all}}
	unrel, mean, err = Unreliability(s, doom, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if unrel != 1 {
		t.Fatalf("all-crash unreliability %v, want 1", unrel)
	}
	if !math.IsNaN(mean) {
		t.Fatalf("mean latency %v with no survivors, want NaN", mean)
	}

	// Frequent failures land strictly between the two extremes.
	often := &ExponentialFailures{MTBF: UniformMTBF(rng, 5, 2*lb, 3*lb)}
	unrel, _, err = Unreliability(s, often, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	if unrel <= 0 || unrel >= 1 {
		t.Fatalf("frequent-failure unreliability %v, want in (0,1)", unrel)
	}

	// No samples: zero unreliability, no surviving latency.
	unrel, mean, err = Unreliability(s, often, 0, rng)
	if err != nil || unrel != 0 || !math.IsNaN(mean) {
		t.Fatalf("n=0 gave (%v, %v, %v), want (0, NaN, nil)", unrel, mean, err)
	}
}
