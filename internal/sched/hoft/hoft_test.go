package hoft

import (
	"math"
	"math/rand"
	"testing"

	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/timeline"
)

func randomProblem(seed int64) (*sched.Problem, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	g := gen.RandomLayered(rng, gen.RandomParams{MinTasks: 40, MaxTasks: 50, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150})
	plat := platform.NewRandom(rng, 6, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}, rng
}

func TestHOFTSingleReplicaPerTask(t *testing.T) {
	p, rng := randomProblem(1)
	s, err := Schedule(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.ReplicaCount() != p.G.NumTasks() {
		t.Fatalf("replicas = %d, want %d (one per task)", s.ReplicaCount(), p.G.NumTasks())
	}
	if s.MessageCount() > p.G.NumEdges() {
		t.Fatalf("messages = %d > edges %d", s.MessageCount(), p.G.NumEdges())
	}
}

func TestHOFTCoLocatesCheapChains(t *testing.T) {
	g := gen.Chain(5, 500) // enormous messages: must stay on one processor
	plat := platform.New(4, 1)
	exec := platform.NewExecMatrix(5, 4)
	for ti := range exec {
		for k := range exec[ti] {
			exec[ti][k] = 2
		}
	}
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	s, err := Schedule(p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	proc := s.Reps[0][0].Proc
	for ti := range s.Reps {
		if s.Reps[ti][0].Proc != proc {
			t.Fatalf("chain split across processors despite huge comm cost")
		}
	}
	if s.ScheduledLatency() != 10 {
		t.Fatalf("latency = %v, want 10", s.ScheduledLatency())
	}
}

// TestOFTTable pins the table on a hand-checkable 2-task chain over two
// processors with asymmetric speeds: the exit task's OFT row is its
// execution row, and the root's entry on the slow processor must prefer
// shipping the edge to the fast one when the transfer is cheap.
func TestOFTTable(t *testing.T) {
	g := gen.Chain(2, 1) // one edge, volume 1
	plat := platform.New(2, 2)
	exec := platform.NewExecMatrix(2, 2)
	exec[0][0], exec[0][1] = 4, 4
	exec[1][0], exec[1][1] = 10, 1
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	oft, err := sched.OFT(p)
	if err != nil {
		t.Fatal(err)
	}
	// Exit task: OFT = its own execution time.
	if oft[1][0] != 10 || oft[1][1] != 1 {
		t.Fatalf("exit OFT = %v, want [10 1]", oft[1])
	}
	// Root on p0: local child costs 10, shipped child 2+1 = 3 → 4+3 = 7.
	// Root on p1: local child costs 1 → 4+1 = 5.
	if oft[0][0] != 7 || oft[0][1] != 5 {
		t.Fatalf("root OFT = %v, want [7 5]", oft[0])
	}
}

// HOFT's lookahead must never do worse than picking a random processor:
// sanity-check the makespan is finite and the schedule valid across
// several seeds, and deterministic for a fixed rng seed.
func TestHOFTDeterministicPerSeed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p, _ := randomProblem(seed)
		s1, err := Schedule(p, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Schedule(p, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		l1, l2 := s1.ScheduledLatency(), s2.ScheduledLatency()
		if l1 != l2 {
			t.Fatalf("seed %d: latency %v != %v across identical runs", seed, l1, l2)
		}
		if math.IsInf(l1, 0) || math.IsNaN(l1) || l1 <= 0 {
			t.Fatalf("seed %d: degenerate latency %v", seed, l1)
		}
	}
}

// The registry wrapper is a fault-free reference: eps != 0 must be
// rejected, eps == 0 must schedule.
func TestHOFTRegistryEntry(t *testing.T) {
	d, ok := sched.Lookup("hoft")
	if !ok {
		t.Fatal("hoft not registered")
	}
	if d.ID != 5 || d.Caps.AcceptsEps {
		t.Fatalf("descriptor wrong: %+v", d)
	}
	p, rng := randomProblem(7)
	if _, err := d.New(p, 1, rng); err == nil {
		t.Fatal("eps=1 accepted by fault-free hoft")
	}
	s, err := d.New(p, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
