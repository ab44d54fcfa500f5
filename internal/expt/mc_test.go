package expt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"caft/internal/core"
	"caft/internal/failure"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/sim/simtest"
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

// TestEstimatorsAgreeWithoutRemapping pins the one timed-crash
// semantics at the estimator level: EstimateReliability and
// EstimateOnline without re-mapping (both the Replayer's pass) and
// simtest.EventReplay, the causal event process, fed the same batches
// (eventStaticTally), draw the same traces, so they must report the
// same tally field for field, LatSum included, and the online two the
// same makespans in draw order. The schedules are paper-regime CAFT
// ε = 1 builds (random layered, m = 10, g = 1) under exponential
// crashes with mean lifetimes of 2–8 scheduled latencies.
func TestEstimatorsAgreeWithoutRemapping(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 4; i++ {
		s, err := core.Schedule(randomProblem(rng, 10, 1), 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		T := s.ScheduledLatency()
		model := &failure.Exponential{MTBF: failure.UniformMTBF(rng, 10, 2*T, 8*T)}
		const samples = 256
		rel, err := EstimateReliability(s, model, samples, int64(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		onl, err := EstimateOnline(s, model, samples, int64(i), 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if rel != onl.MCTally {
			t.Errorf("schedule %d: EstimateReliability %+v, EstimateOnline without re-mapping %+v", i, rel, onl.MCTally)
		}
		eng := eventStaticTally(t, s, model, samples, int64(i))
		if eng.MCTally != onl.MCTally || onl.Rescheduled != 0 || !slices.Equal(eng.Makespans, onl.Makespans) {
			t.Errorf("schedule %d: event replay %+v (%d makespans), EstimateOnline without re-mapping %+v (%d makespans, %d placements)",
				i, eng.MCTally, len(eng.Makespans), onl.MCTally, len(onl.Makespans), onl.Rescheduled)
		}
	}
}

// eventStaticTally is the event-replay reference of
// EstimateOnline(…, false): the same batches of mcBatch traces, batch
// u drawn from unitSeed(seed, 0, u) and folded in batch order, each
// trace replayed by simtest.EventReplay.
func eventStaticTally(t *testing.T, s *sched.Schedule, model failure.Model, samples int, seed int64) OnlineTally {
	t.Helper()
	var total OnlineTally
	for u := 0; u*mcBatch < samples; u++ {
		rng := rand.New(rand.NewSource(unitSeed(seed, 0, u)))
		var b OnlineTally
		var trace map[int]float64
		for draw := 0; draw < min(mcBatch, samples-u*mcBatch); draw++ {
			trace = model.Sample(rng, trace)
			res, err := simtest.EventReplay(s, trace)
			if err != nil {
				t.Fatal(err)
			}
			lat, err := res.Latency()
			b.record(lat, res.Rescheduled, err)
		}
		total.add(b)
	}
	return total
}
