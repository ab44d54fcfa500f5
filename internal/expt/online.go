package expt

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"caft/internal/failure"
	"caft/internal/online"
	"caft/internal/sched"
)

// The online experiment compares four fault-tolerance strategies under
// the event-driven causal execution engine (package online, DESIGN.md
// S7) across the same MTBF sweep as the reliability figure:
//
//   - static:   CAFT at ε=1 — replication only; crashes kill work and
//               whatever replication cannot absorb is lost.
//   - reactive: unreplicated HEFT plus runtime re-mapping — every crash
//               triggers the rescheduler, lost work moves to survivors.
//   - hybrid:   CAFT at ε=1 plus runtime re-mapping — replication
//               absorbs the first failures instantly, re-mapping
//               restores coverage for the next ones.
//   - hoft:     unreplicated HOFT plus runtime re-mapping — the
//               lookahead fault-free schedule under the same reactive
//               recovery as `reactive`, isolating the contribution of
//               the initial mapping.
//
// Every sampled failure trace is replayed under all four strategies
// (common random numbers), tallying the achieved makespan over
// completed runs, the fraction of runs losing a task, and the mean
// number of reactive re-placements.

// OnlineStrategies names the strategy columns in order.
var OnlineStrategies = [4]string{"static", "reactive", "hybrid", "hoft"}

// onlineSamples is the number of failure traces sampled per
// (cell, graph) work unit.
const onlineSamples = 20

// OnlinePoint is one averaged row of the online comparison table.
type OnlinePoint struct {
	Label string
	Mult  float64

	// Lat is the mean normalized makespan over completed runs per
	// strategy (OnlineStrategies order); NaN when none completed.
	Lat [4]float64
	// Unrel is the fraction of runs that lost a task.
	Unrel [4]float64
	// Resched is the mean number of reactive placements per run (always
	// zero for the static strategy).
	Resched [4]float64
	// Draws counts evaluated runs per strategy; ReplayErrors counts
	// engine failures (excluded, never blamed on a strategy).
	Draws        [4]int
	ReplayErrors int
}

// runOnlineUnit generates one instance, schedules it with HEFT (ε=0),
// CAFT (ε=1) and HOFT (ε=0), and replays the same sampled failure
// traces through the four strategies. useed is the unit's base seed:
// HOFT draws its tie-breaks from an rng derived from it, not from the
// shared stream, so the failure-model build and trace draws — and the
// original three strategies' columns — stay byte-identical.
func runOnlineUnit(rng *rand.Rand, useed int64, mult float64) ([4]OnlineTally, error) {
	var out [4]OnlineTally
	const m = 10
	p := randomProblem(rng, m, 1)

	sHEFT, err := algo("heft").New(p, 0, rng)
	if err != nil {
		return out, err
	}
	T := sHEFT.ScheduledLatency()
	sCA, err := algo("caft").New(p, 1, rng)
	if err != nil {
		return out, err
	}
	sHO, err := algo("hoft").New(p, 0, rand.New(rand.NewSource(unitSeed(useed, 0, 1))))
	if err != nil {
		return out, err
	}
	engHEFT, err := online.NewEngine(sHEFT)
	if err != nil {
		return out, err
	}
	engCA, err := online.NewEngine(sCA)
	if err != nil {
		return out, err
	}
	engHO, err := online.NewEngine(sHO)
	if err != nil {
		return out, err
	}
	model := &failure.Exponential{MTBF: failure.UniformMTBF(rng, m, 0.75*mult*T, 1.25*mult*T)}

	runs := [4]struct {
		eng *online.Engine //caft:share-ok local run table; the engines never leave this work unit's goroutine
		opt online.Options
	}{
		{engCA, online.Options{}},
		{engHEFT, online.Options{Reschedule: true}},
		{engCA, online.Options{Reschedule: true}},
		{engHO, online.Options{Reschedule: true}},
	}
	trace := map[int]float64{}
	for draw := 0; draw < onlineSamples; draw++ {
		trace = model.Sample(rng, trace)
		for k, run := range runs {
			lat, resched, err := run.eng.Makespan(trace, run.opt)
			out[k].record(lat/DefaultNorm, resched, err)
		}
	}
	return out, nil
}

// RunOnline sweeps the MTBF multipliers and writes the static vs
// reactive vs hybrid comparison as TSV on the deterministic work-unit
// pool: output is byte-identical for any worker count.
func RunOnline(w io.Writer, graphs int, seed int64, workers int) ([]OnlinePoint, error) {
	mults := reliabilityMults
	cells, err := runCells(workers, len(mults), graphs, func(cell, gi int) ([4]OnlineTally, error) {
		useed := unitSeed(seed, cell, gi)
		rng := rand.New(rand.NewSource(useed))
		return runOnlineUnit(rng, useed, mults[cell])
	})
	if err != nil {
		return nil, err
	}

	points := make([]OnlinePoint, len(mults))
	for cell, mult := range mults {
		pt := OnlinePoint{Label: fmt.Sprintf("%g", mult), Mult: mult}
		var total [4]OnlineTally
		for _, u := range cells[cell] {
			for k := range total {
				total[k].add(u[k])
			}
		}
		for k, t := range total {
			pt.Lat[k] = t.MeanLatency()
			pt.Unrel[k] = t.Unreliability()
			pt.Resched[k] = t.meanRescheduled()
			pt.Draws[k] = t.Draws()
			pt.ReplayErrors += t.ReplayErrors
		}
		points[cell] = pt
	}

	fmt.Fprintf(w, "# online: m=10 eps=1 g=1.0 graphs/point=%d samples/graph=%d seed=%d\n", graphs, onlineSamples, seed)
	fmt.Fprintln(w, "# static: CAFT eps=1 replication only; reactive: HEFT + runtime re-mapping; hybrid: CAFT eps=1 + re-mapping; hoft: HOFT + re-mapping")
	fmt.Fprintln(w, "# makespan: mean normalized completion over completed runs; unrel: fraction of runs losing a task; remap: mean reactive placements per completed run")
	fmt.Fprintln(w, "mtbf/T\tstatic\tstatic-unrel\treactive\treactive-unrel\treactive-remap\thybrid\thybrid-unrel\thybrid-remap\thoft\thoft-unrel\thoft-remap")
	for _, pt := range points {
		row := pt.Label
		for k := range OnlineStrategies {
			row += "\t" + onlineCol(pt.Lat[k], 2) + "\t" + onlineCol(pt.Unrel[k], 3)
			if k > 0 {
				row += "\t" + onlineCol(pt.Resched[k], 2)
			}
		}
		fmt.Fprintln(w, row)
	}
	errs := 0
	for _, pt := range points {
		errs += pt.ReplayErrors
	}
	if errs > 0 {
		fmt.Fprintf(w, "# %d online replay(s) failed to evaluate and were excluded\n", errs)
	}
	return points, nil
}

func onlineCol(v float64, prec int) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, v)
}

// OnlineTally is the outcome of EstimateOnline: the loss accounting
// and latency sum of MCTally over the replayed traces, plus the
// achieved makespans of the completed runs (in draw order) and their
// reactive placements.
type OnlineTally struct {
	MCTally
	// Makespans holds the achieved makespan of every completed run, in
	// draw order.
	Makespans []float64
	// Rescheduled sums reactive placements over completed runs.
	Rescheduled int
}

// record sorts one replayed trace through MCTally.Record and keeps the
// makespan and placements of a completed run.
func (t *OnlineTally) record(lat float64, resched int, err error) {
	if t.Record(lat, err) {
		t.Makespans = append(t.Makespans, lat)
		t.Rescheduled += resched
	}
}

// add folds another tally into t, appending its makespans after t's.
func (t *OnlineTally) add(o OnlineTally) {
	t.MCTally.add(o.MCTally)
	t.Makespans = append(t.Makespans, o.Makespans...)
	t.Rescheduled += o.Rescheduled
}

// meanRescheduled returns the mean number of reactive placements per
// completed run, NaN when none completed.
func (t OnlineTally) meanRescheduled() float64 {
	if t.Survived == 0 {
		return math.NaN()
	}
	return float64(t.Rescheduled) / float64(t.Survived)
}

// EstimateOnline replays `samples` failure traces drawn from model
// through the online engine and tallies the makespan distribution,
// batched by estimate: the tally is a pure function of (schedule,
// model, samples, seed, reschedule) for any worker count. The model
// must be stateless across Sample calls (failure.Trace is not).
func EstimateOnline(s *sched.Schedule, model failure.Model, samples int, seed int64, workers int, reschedule bool) (OnlineTally, error) {
	return estimate(samples, seed, workers, func(n int, rng *rand.Rand) (OnlineTally, error) {
		var b OnlineTally
		eng, err := online.NewEngine(s)
		if err != nil {
			return b, err
		}
		trace := map[int]float64{}
		for draw := 0; draw < n; draw++ {
			trace = model.Sample(rng, trace)
			b.record(eng.Makespan(trace, online.Options{Reschedule: reschedule}))
		}
		return b, nil
	})
}
