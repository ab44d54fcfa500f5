// Package expt reproduces the experimental study of Section 6 of the
// paper: random task graphs with the paper's parameters are scheduled
// by CAFT, FTSA and FTBAR (plus the fault-free references), replayed
// through the crash simulator, and the per-granularity averages of the
// normalized latency and of the fault-tolerance overhead are reported —
// the data behind Figures 1-6.
//
//caft:deterministic
package expt

import (
	"fmt"
	"math"
	"math/rand"

	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// GranularityA is the paper's first granularity family: [0.2, 2.0] in
// increments of 0.2 (Figures 1-3).
func GranularityA() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = 0.2 * float64(i+1)
	}
	return out
}

// GranularityB is the paper's second family: [1, 10] in increments of 1
// (Figures 4-6).
func GranularityB() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// Config parameterizes one figure-style experiment. Every instance is
// the paper's Section 6 instance drawn by randomProblem; every latency
// is normalized by DefaultNorm.
type Config struct {
	M             int       // processors
	Eps           int       // supported failures ε
	Crashes       int       // processors actually crashed in the replay
	Granularities []float64 // sweep values
	Graphs        int       // random graphs per point (paper: 60)
	Seed          int64
	// Workers sets the number of (granularity, graph) work units evaluated
	// concurrently; 0 means GOMAXPROCS. Every unit draws from its own seed
	// derived up front from (Seed, granularity, graph), and units merge
	// into Points in a fixed order, so the output is byte-identical for
	// any worker count.
	Workers int
}

// DefaultNorm divides every reported latency. The paper plots a
// "normalized latency" without defining the normalization; any
// per-family constant preserves the shape, and we use the mean of the
// paper's message-volume range [50,150] (see DESIGN.md S2).
const DefaultNorm = 100.0

// FigureConfig returns the configuration of paper figure n (1-6) with
// the given number of graphs per point (pass 60 for the paper's setup).
func FigureConfig(n, graphs int, seed int64) (Config, error) {
	cfg := Config{Graphs: graphs, Seed: seed}
	switch n {
	case 1:
		cfg.M, cfg.Eps, cfg.Crashes, cfg.Granularities = 10, 1, 1, GranularityA()
	case 2:
		cfg.M, cfg.Eps, cfg.Crashes, cfg.Granularities = 10, 3, 2, GranularityA()
	case 3:
		cfg.M, cfg.Eps, cfg.Crashes, cfg.Granularities = 20, 5, 3, GranularityA()
	case 4:
		cfg.M, cfg.Eps, cfg.Crashes, cfg.Granularities = 10, 1, 1, GranularityB()
	case 5:
		cfg.M, cfg.Eps, cfg.Crashes, cfg.Granularities = 10, 3, 2, GranularityB()
	case 6:
		cfg.M, cfg.Eps, cfg.Crashes, cfg.Granularities = 20, 5, 3, GranularityB()
	default:
		return cfg, fmt.Errorf("expt: no figure %d in the paper", n)
	}
	return cfg, nil
}

// Point holds the averaged measurements at one granularity value. All
// latencies are normalized (divided by DefaultNorm); overheads are in
// percent relative to the fault-free CAFT latency (CAFT*), following
// the paper's formula.
type Point struct {
	G float64

	// Panel (a): latency with 0 crash, upper bounds, fault-free refs.
	FTSA0, FTSAUB   float64
	FTBAR0, FTBARUB float64
	CAFT0, CAFTUB   float64
	FFCAFT, FFFTBAR float64
	FFHOFT          float64

	// Panel (b): latency with crashes. NaN when no crash replay of the
	// scheduler survived (see the matching *cN counts): an empty crash
	// series is reported as missing data, never as latency 0.
	FTSAc, FTBARc, CAFTc float64

	// Crash samples behind each panel-(b) mean (out of Graphs draws).
	FTSAcN, FTBARcN, CAFTcN int

	// Panel (c): average overhead (%).
	OvFTSA0, OvFTSAc   float64
	OvFTBAR0, OvFTBARc float64
	OvCAFT0, OvCAFTc   float64

	// Message counts (Prop. 5.1 discussion; not plotted in the paper's
	// figures but central to its argument).
	MsgCAFT, MsgFTSA, MsgFTBAR, MsgHEFT, MsgHOFT float64

	// TasksLost counts crash replays that genuinely lost a task (zero
	// for the ε-resilient schedulers under at most ε crashes). Such
	// draws are excluded from the crash averages.
	TasksLost int
	// ReplayErrors counts crash replays the simulator failed to evaluate
	// (e.g. a non-converging timing fixpoint). Kept separate from
	// TasksLost: a lost task is a property of the schedule under test, an
	// engine failure is not.
	ReplayErrors int
}

// randomProblem draws the paper's Section 6 instance: a random layered
// graph with the paper's parameters, m processors with link delays in
// [0.5, 1], execution times at granularity g, one-port, append.
func randomProblem(rng *rand.Rand, m int, g float64) *sched.Problem {
	graph := gen.RandomLayered(rng, gen.DefaultParams)
	plat := platform.NewRandom(rng, m, 0.5, 1)
	exec := platform.GenExecForGranularity(rng, graph, plat, g, platform.DefaultHeterogeneity)
	return &sched.Problem{G: graph, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
}

// drawCrashes draws min(crashes, m) distinct crashed processors out of m.
func drawCrashes(rng *rand.Rand, m, crashes int) map[int]bool {
	crashed := map[int]bool{}
	for len(crashed) < crashes && len(crashed) < m {
		crashed[rng.Intn(m)] = true
	}
	return crashed
}

// Run sweeps the granularities and returns one Point per value. The
// (granularity, graph) work units are evaluated concurrently on
// cfg.Workers goroutines, each from its own seed derived up front; the
// per-unit measurements merge into Points in a fixed order, so the
// result is identical for any worker count.
func (cfg Config) Run() ([]Point, error) {
	units, err := runCells(cfg.Workers, len(cfg.Granularities), cfg.Graphs, func(gi, gr int) (unitResult, error) {
		rng := rand.New(rand.NewSource(unitSeed(cfg.Seed, gi, gr)))
		return cfg.runUnit(cfg.Granularities[gi], rng)
	})
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(units))
	for gi, us := range units {
		points[gi] = mergePoint(cfg.Granularities[gi], us)
	}
	return points, nil
}

// series is a running mean, summed in add order.
type series struct {
	sum float64
	n   int
}

func (s *series) add(x float64) { s.sum += x; s.n++ }

// mean returns the mean, 0 for an empty series.
func (s *series) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// meanNaN marks an empty series as missing rather than zero — used for
// the crash series, whose draws can be excluded by task loss.
func (s *series) meanNaN() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean()
}

// unitMeas is what one work unit measures for one fault-tolerant
// scheduler. Values are raw (unnormalized); overheads are in percent.
type unitMeas struct {
	lat0, ub, ov0 float64
	msgs          float64
	latC, ovC     float64
	crashOK       bool // crash replay survived and is part of the averages
}

// unitResult is the complete measurement of one (granularity, graph)
// work unit.
type unitResult struct {
	ftsa, ftbar, caft        unitMeas
	ffCAFT, ffFTBAR, msgHEFT float64
	ffHOFT, msgHOFT          float64
	crash                    MCTally // the three crash replays
}

// runUnit generates one instance at granularity g, schedules it with
// every algorithm and replays bounds and crashes, reusing one sim
// scratch buffer per schedule.
func (cfg Config) runUnit(g float64, rng *rand.Rand) (unitResult, error) {
	var out unitResult
	p := randomProblem(rng, cfg.M, g)
	crashed := drawCrashes(rng, cfg.M, cfg.Crashes)

	// Fault-free references.
	sHEFT, err := algo("heft").New(p, 0, rng)
	if err != nil {
		return out, err
	}
	star := sHEFT.ScheduledLatency() // CAFT*
	sFB0, err := algo("ftbar").New(p, 0, rng)
	if err != nil {
		return out, err
	}

	// Fault-tolerant schedules.
	sFT, err := algo("ftsa").New(p, cfg.Eps, rng)
	if err != nil {
		return out, err
	}
	sFB, err := algo("ftbar").New(p, cfg.Eps, rng)
	if err != nil {
		return out, err
	}
	sCA, err := algo("caft").New(p, cfg.Eps, rng)
	if err != nil {
		return out, err
	}

	for _, m := range []struct {
		s    *sched.Schedule
		meas *unitMeas
	}{
		{sFT, &out.ftsa},
		{sFB, &out.ftbar},
		{sCA, &out.caft},
	} {
		rep, err := sim.NewReplayer(m.s)
		if err != nil {
			return out, err
		}
		l0 := m.s.ScheduledLatency()
		ub, err := rep.UpperBound()
		if err != nil {
			return out, err
		}
		m.meas.lat0 = l0
		m.meas.ub = ub
		m.meas.ov0 = 100 * (l0 - star) / star
		m.meas.msgs = float64(m.s.MessageCount())
		lc, err := rep.CrashLatency(crashed)
		if out.crash.Record(lc, err) {
			m.meas.latC = lc
			m.meas.ovC = 100 * (lc - star) / star
			m.meas.crashOK = true
		}
	}
	out.ffCAFT = star
	out.ffFTBAR = sFB0.ScheduledLatency()
	out.msgHEFT = float64(sHEFT.MessageCount())

	// HOFT is scheduled last: it consumes tie-break draws from the shared
	// rng, and no measurement after it reads the stream, so the columns
	// above are bit-for-bit what they were before HOFT joined the sweep.
	sHO, err := algo("hoft").New(p, 0, rng)
	if err != nil {
		return out, err
	}
	out.ffHOFT = sHO.ScheduledLatency()
	out.msgHOFT = float64(sHO.MessageCount())
	return out, nil
}

// mergePoint folds the work units of one granularity into a Point, in
// unit order.
func mergePoint(g float64, units []unitResult) Point {
	var (
		ftsa0, ftsaUB, ftsaC         series
		ftbar0, ftbarUB, ftbarC      series
		caft0, caftUB, caftC         series
		ffCAFT, ffFTBAR, ffHOFT      series
		ovFTSA0, ovFTSAc             series
		ovFTBAR0, ovFTBARc           series
		ovCAFT0, ovCAFTc             series
		msgC, msgF, msgB, msgH, msgO series
	)
	var crash MCTally
	for _, u := range units {
		for _, m := range []struct {
			meas           unitMeas
			lat0, ub, latC *series
			ov0, ovC       *series
			msgs           *series
		}{
			{u.ftsa, &ftsa0, &ftsaUB, &ftsaC, &ovFTSA0, &ovFTSAc, &msgF},
			{u.ftbar, &ftbar0, &ftbarUB, &ftbarC, &ovFTBAR0, &ovFTBARc, &msgB},
			{u.caft, &caft0, &caftUB, &caftC, &ovCAFT0, &ovCAFTc, &msgC},
		} {
			m.lat0.add(m.meas.lat0 / DefaultNorm)
			m.ub.add(m.meas.ub / DefaultNorm)
			m.ov0.add(m.meas.ov0)
			m.msgs.add(m.meas.msgs)
			if m.meas.crashOK {
				m.latC.add(m.meas.latC / DefaultNorm)
				m.ovC.add(m.meas.ovC)
			}
		}
		ffCAFT.add(u.ffCAFT / DefaultNorm)
		ffFTBAR.add(u.ffFTBAR / DefaultNorm)
		ffHOFT.add(u.ffHOFT / DefaultNorm)
		msgH.add(u.msgHEFT)
		msgO.add(u.msgHOFT)
		crash.add(u.crash)
	}
	return Point{
		G:     g,
		FTSA0: ftsa0.mean(), FTSAUB: ftsaUB.mean(), FTSAc: ftsaC.meanNaN(),
		FTBAR0: ftbar0.mean(), FTBARUB: ftbarUB.mean(), FTBARc: ftbarC.meanNaN(),
		CAFT0: caft0.mean(), CAFTUB: caftUB.mean(), CAFTc: caftC.meanNaN(),
		FTSAcN: ftsaC.n, FTBARcN: ftbarC.n, CAFTcN: caftC.n,
		FFCAFT: ffCAFT.mean(), FFFTBAR: ffFTBAR.mean(), FFHOFT: ffHOFT.mean(),
		OvFTSA0: ovFTSA0.mean(), OvFTSAc: ovFTSAc.meanNaN(),
		OvFTBAR0: ovFTBAR0.mean(), OvFTBARc: ovFTBARc.meanNaN(),
		OvCAFT0: ovCAFT0.mean(), OvCAFTc: ovCAFTc.meanNaN(),
		MsgCAFT: msgC.mean(), MsgFTSA: msgF.mean(), MsgFTBAR: msgB.mean(), MsgHEFT: msgH.mean(), MsgHOFT: msgO.mean(),
		TasksLost: crash.Lost, ReplayErrors: crash.ReplayErrors,
	}
}
