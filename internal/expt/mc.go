package expt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"caft/internal/failure"
	"caft/internal/sched"
	"caft/internal/sim"
)

// This file is the Monte-Carlo core shared by the figures and the caftd
// scheduling service: MCTally.Record sorts every replayed scenario of
// every scenario loop, replaySamples replays crash-time scenarios with
// timed fail-stop semantics (`caftsim -figure reliability`), and
// estimate batches the service's two estimators, EstimateReliability
// here and EstimateOnline in online.go.

// MCTally accumulates the outcome of replayed crash scenarios for one
// schedule. LatSum is the sum of (normalized) latencies over the
// surviving scenarios; ReplayErrors counts scenarios the engine failed
// to evaluate, which are excluded from the estimates and never blamed
// on the schedule.
type MCTally struct {
	LatSum       float64
	Survived     int
	Lost         int
	ReplayErrors int
}

// add folds another tally into t.
func (t *MCTally) add(o MCTally) {
	t.LatSum += o.LatSum
	t.Survived += o.Survived
	t.Lost += o.Lost
	t.ReplayErrors += o.ReplayErrors
}

// Record sorts one scenario outcome: a task loss, an engine error
// (excluded from the estimates, never blamed on the schedule), or a
// survival whose latency joins LatSum. It reports whether the scenario
// survived. The replay engines return an infinite latency only together
// with sim.ErrTaskLost, so the error alone decides.
func (t *MCTally) Record(lat float64, err error) bool {
	switch {
	case errors.Is(err, sim.ErrTaskLost):
		t.Lost++
	case err != nil:
		t.ReplayErrors++
	default:
		t.Survived++
		t.LatSum += lat
		return true
	}
	return false
}

// Draws returns the number of scenarios behind the estimates (the
// engine-failed ones excluded).
func (t MCTally) Draws() int { return t.Survived + t.Lost }

// Unreliability returns the estimated probability of losing a task:
// the fraction of evaluated scenarios in which the schedule lost one
// (NaN when nothing was evaluated).
func (t MCTally) Unreliability() float64 {
	if t.Draws() == 0 {
		return math.NaN()
	}
	return float64(t.Lost) / float64(t.Draws())
}

// MeanLatency returns the mean (normalized) latency over the surviving
// scenarios, NaN when none survived.
func (t MCTally) MeanLatency() float64 {
	if t.Survived == 0 {
		return math.NaN()
	}
	return t.LatSum / float64(t.Survived)
}

// replaySamples draws n crash-time scenarios from model and replays
// every scenario against every replayer (common random numbers: one
// draw scores all schedules, so per-draw contrasts share their noise),
// folding outcomes into the matching tallies entry. Latencies are
// divided by norm before summing. The rng stream layout is one Sample
// per draw — fixed regardless of the number of replayers.
func replaySamples(reps []*sim.Replayer, tallies []MCTally, model failure.Model, n int, norm float64, rng *rand.Rand) {
	var scenario map[int]float64
	for draw := 0; draw < n; draw++ {
		scenario = model.Sample(rng, scenario)
		for a := range reps {
			lat, err := reps[a].CrashLatencyAt(scenario)
			tallies[a].Record(lat/norm, err)
		}
	}
}

// mcBatch is the number of scenarios per work unit of the estimators:
// large enough to amortize the per-batch replay engine, small enough
// that modest sample counts still fan out.
const mcBatch = 64

// tally is a per-batch outcome the estimators fold in batch order.
type tally[T any] interface {
	*T
	add(T)
}

// estimate is the batching skeleton of EstimateReliability and
// EstimateOnline: it splits samples into batches of mcBatch on the
// deterministic work-unit pool, runs batch u's n scenarios with its own
// PRNG seeded by unitSeed(seed, 0, u), and folds the batch tallies in
// batch order, so the total is a pure function of its inputs for any
// worker count.
func estimate[T any, P tally[T]](samples int, seed int64, workers int, batch func(n int, rng *rand.Rand) (T, error)) (T, error) {
	var total T
	if samples < 0 {
		return total, fmt.Errorf("expt: negative sample count %d", samples)
	}
	nBatches := (samples + mcBatch - 1) / mcBatch
	batches, err := runUnits(workers, nBatches, func(u int) (T, error) {
		n := mcBatch
		if u == nBatches-1 {
			n = samples - u*mcBatch
		}
		return batch(n, rand.New(rand.NewSource(unitSeed(seed, 0, u))))
	})
	if err != nil {
		return total, err
	}
	for _, b := range batches {
		P(&total).add(b)
	}
	return total, nil
}

// EstimateReliability estimates one schedule's unreliability and
// expected surviving latency from `samples` crash scenarios replayed
// with timed fail-stop semantics, batched by estimate: the tally is a
// pure function of (schedule, model, samples, seed) — identical for
// any worker count. The model must be stateless across Sample calls
// (Exponential, Weibull, Rack are; failure.Trace is not).
func EstimateReliability(s *sched.Schedule, model failure.Model, samples int, seed int64, workers int) (MCTally, error) {
	return estimate(samples, seed, workers, func(n int, rng *rand.Rand) (MCTally, error) {
		rep, err := sim.NewReplayer(s)
		if err != nil {
			return MCTally{}, err
		}
		var tally [1]MCTally
		replaySamples([]*sim.Replayer{rep}, tally[:], model, n, 1, rng)
		return tally[0], nil
	})
}
