package expt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/failure"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// TestRecordSortsOutcomes pins the one scenario classifier: a wrapped
// task loss is lost, any other error is an engine error kept out of
// the estimates, and only a survival adds its latency.
func TestRecordSortsOutcomes(t *testing.T) {
	var tally MCTally
	if tally.Record(math.Inf(1), fmt.Errorf("replica gone: %w", sim.ErrTaskLost)) {
		t.Error("task loss reported as survival")
	}
	if tally.Record(0, errors.New("engine failure")) {
		t.Error("engine error reported as survival")
	}
	if !tally.Record(2.5, nil) {
		t.Error("survival not reported")
	}
	want := MCTally{LatSum: 2.5, Survived: 1, Lost: 1, ReplayErrors: 1}
	if tally != want {
		t.Fatalf("tally %+v, want %+v", tally, want)
	}
}

func mcFixture(t *testing.T) *sched.Schedule {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	g := gen.Diamond(3, 3, 80)
	plat := platform.NewRandom(rng, 6, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// EstimateReliability is the service's reliability path: its tally must
// be a pure function of (schedule, model, samples, seed) — identical
// for any worker count, including batch counts that do not divide the
// sample count evenly.
func TestEstimateReliabilityDeterministicAcrossWorkers(t *testing.T) {
	s := mcFixture(t)
	model := &failure.Exponential{MTBF: []float64{50, 60, 70, 80, 90, 100}}
	const samples = mcBatch*2 + 17 // 3 batches, last one partial
	first, err := EstimateReliability(s, model, samples, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Draws() + first.ReplayErrors; got != samples {
		t.Fatalf("evaluated %d scenarios, want %d", got, samples)
	}
	if u := first.Unreliability(); u < 0 || u > 1 || math.IsNaN(u) {
		t.Fatalf("unreliability %v outside [0,1]", u)
	}
	for _, workers := range []int{2, 8} {
		again, err := EstimateReliability(s, model, samples, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("workers=%d tally %+v differs from sequential %+v", workers, again, first)
		}
	}
}

// Boundary semantics: crash instants far beyond the makespan never lose
// a task, and an MTBF of ~0 loses (or at least degrades) essentially
// every scenario on an unreplicated reference.
func TestEstimateReliabilityRegimes(t *testing.T) {
	s := mcFixture(t)
	safe := &failure.Exponential{MTBF: []float64{1e12, 1e12, 1e12, 1e12, 1e12, 1e12}}
	tally, err := EstimateReliability(s, safe, 100, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tally.Lost != 0 || tally.Survived != 100 {
		t.Fatalf("near-infinite MTBF lost %d of %d scenarios", tally.Lost, tally.Draws())
	}
	if math.IsNaN(tally.MeanLatency()) || tally.MeanLatency() <= 0 {
		t.Fatalf("mean latency %v not positive", tally.MeanLatency())
	}
	if tally.Unreliability() != 0 {
		t.Fatalf("unreliability %v, want 0", tally.Unreliability())
	}

	// Zero samples: estimates are NaN, not zero.
	empty, err := EstimateReliability(s, safe, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(empty.Unreliability()) || !math.IsNaN(empty.MeanLatency()) {
		t.Fatalf("empty tally estimates %v/%v, want NaN/NaN", empty.Unreliability(), empty.MeanLatency())
	}
	if _, err := EstimateReliability(s, safe, -1, 3, 0); err == nil {
		t.Error("negative sample count accepted")
	}
}
