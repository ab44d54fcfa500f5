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
	"math/rand"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/stats"
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

// Config parameterizes one figure-style experiment.
type Config struct {
	M             int       // processors
	Eps           int       // supported failures ε
	Crashes       int       // processors actually crashed in the replay
	Granularities []float64 // sweep values
	Graphs        int       // random graphs per point (paper: 60)
	Seed          int64
	Params        gen.RandomParams
	DelayLo       float64 // unit delay range (paper: [0.5, 1])
	DelayHi       float64
	Model         sched.Model
	Policy        timeline.Policy
	// Norm divides every latency before averaging. The paper plots a
	// "normalized latency" without defining the normalization; any
	// per-family constant preserves the shape, and we use the mean
	// message volume (see DESIGN.md S2). Zero means DefaultNorm.
	Norm float64
	// CAFTOpts selects the CAFT variant under test (default portfolio +
	// support locking).
	CAFTOpts core.Options
	// Workers sets the number of (granularity, graph) work units evaluated
	// concurrently; 0 means GOMAXPROCS. Every unit draws from its own seed
	// derived up front from (Seed, granularity, graph), and units merge
	// into Points in a fixed order, so the output is byte-identical for
	// any worker count.
	Workers int
}

// DefaultNorm is the mean of the paper's message-volume range [50,150].
const DefaultNorm = 100.0

// FigureConfig returns the configuration of paper figure n (1-6) with
// the given number of graphs per point (pass 60 for the paper's setup).
func FigureConfig(n, graphs int, seed int64) (Config, error) {
	cfg := Config{
		Graphs:  graphs,
		Seed:    seed,
		Params:  gen.DefaultParams,
		DelayLo: 0.5, DelayHi: 1.0,
		Model:  sched.OnePort,
		Policy: timeline.Append,
	}
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
// latencies are normalized (divided by cfg.Norm); overheads are in
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

	// Dispersion of the headline series, for error bars.
	CAFT0CI, FTSA0CI, FTBAR0CI float64

	// TasksLost counts crash replays that genuinely lost a task (always
	// zero for the safe default variants; non-zero for the PaperLocking
	// ablation). Such draws are excluded from the crash averages.
	TasksLost int
	// ReplayErrors counts crash replays the simulator failed to evaluate
	// (e.g. a non-converging timing fixpoint). Kept separate from
	// TasksLost: a lost task is a property of the schedule under test, an
	// engine failure is not.
	ReplayErrors int
}

// Instance bundles one generated problem.
type Instance struct {
	P *sched.Problem
}

// GenInstance generates one random problem with the config's parameters
// at granularity g.
func (cfg Config) GenInstance(rng *rand.Rand, g float64) Instance {
	graph := gen.RandomLayered(rng, cfg.Params)
	plat := platform.NewRandom(rng, cfg.M, cfg.DelayLo, cfg.DelayHi)
	exec := platform.GenExecForGranularity(rng, graph, plat, g, platform.DefaultHeterogeneity)
	return Instance{P: &sched.Problem{G: graph, Plat: plat, Exec: exec, Model: cfg.Model, Policy: cfg.Policy}}
}

// DrawCrashes draws cfg.Crashes distinct crashed processors.
func (cfg Config) DrawCrashes(rng *rand.Rand) map[int]bool {
	crashed := map[int]bool{}
	for len(crashed) < cfg.Crashes && len(crashed) < cfg.M {
		crashed[rng.Intn(cfg.M)] = true
	}
	return crashed
}

// Run sweeps the granularities and returns one Point per value. The
// (granularity, graph) work units are evaluated concurrently on
// cfg.Workers goroutines, each from its own seed derived up front; the
// per-unit measurements merge into Points in a fixed order, so the
// result is identical for any worker count. The optional progress
// callback is invoked in granularity order as soon as each point's
// units complete — the sweep keeps running while earlier points are
// reported.
func (cfg Config) Run(progress func(Point)) ([]Point, error) {
	if cfg.Norm == 0 {
		cfg.Norm = DefaultNorm
	}
	if cfg.Graphs < 0 {
		return nil, fmt.Errorf("expt: negative graph count %d", cfg.Graphs)
	}
	nG := len(cfg.Granularities)
	points := make([]Point, 0, nG)

	// Streaming merge: count completed units per granularity and fold a
	// Point as soon as its slice is full, always in granularity order.
	remaining := make([]int, nG)
	for gi := range remaining {
		remaining[gi] = cfg.Graphs
	}
	nextG := 0
	units := make([]unitResult, nG*cfg.Graphs)
	mergeReady := func() {
		for nextG < nG && remaining[nextG] == 0 {
			g := cfg.Granularities[nextG]
			pt := cfg.mergePoint(g, units[nextG*cfg.Graphs:(nextG+1)*cfg.Graphs])
			points = append(points, pt)
			if progress != nil {
				progress(pt)
			}
			nextG++
		}
	}
	err := forEachUnit(cfg.Workers, len(units), func(u int) error {
		gi, gr := u/cfg.Graphs, u%cfg.Graphs
		rng := rand.New(rand.NewSource(unitSeed(cfg.Seed, gi, gr)))
		var err error
		units[u], err = cfg.runUnit(cfg.Granularities[gi], rng)
		return err
	}, func(u int) {
		remaining[u/cfg.Graphs]--
		mergeReady()
	})
	if err != nil {
		return nil, err
	}
	mergeReady()
	return points, nil
}

type series struct{ xs []float64 }

func (s *series) add(x float64) { s.xs = append(s.xs, x) }
func (s *series) mean() float64 { return stats.Mean(s.xs) }

// meanNaN marks an empty series as missing rather than zero — used for
// the crash series, whose draws can be excluded by task loss.
func (s *series) meanNaN() float64 { return stats.MeanOrNaN(s.xs) }
func (s *series) n() int           { return len(s.xs) }
func (s *series) ci95() float64    { return stats.Summarize(s.xs).CI95 }

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
	inst := cfg.GenInstance(rng, g)
	p := inst.P
	crashed := cfg.DrawCrashes(rng)

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
	sCA, _, err := core.ScheduleOpts(p, cfg.Eps, rng, cfg.CAFTOpts)
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
func (cfg Config) mergePoint(g float64, units []unitResult) Point {
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
			m.lat0.add(m.meas.lat0 / cfg.Norm)
			m.ub.add(m.meas.ub / cfg.Norm)
			m.ov0.add(m.meas.ov0)
			m.msgs.add(m.meas.msgs)
			if m.meas.crashOK {
				m.latC.add(m.meas.latC / cfg.Norm)
				m.ovC.add(m.meas.ovC)
			}
		}
		ffCAFT.add(u.ffCAFT / cfg.Norm)
		ffFTBAR.add(u.ffFTBAR / cfg.Norm)
		ffHOFT.add(u.ffHOFT / cfg.Norm)
		msgH.add(u.msgHEFT)
		msgO.add(u.msgHOFT)
		crash.add(u.crash)
	}
	return Point{
		G:     g,
		FTSA0: ftsa0.mean(), FTSAUB: ftsaUB.mean(), FTSAc: ftsaC.meanNaN(),
		FTBAR0: ftbar0.mean(), FTBARUB: ftbarUB.mean(), FTBARc: ftbarC.meanNaN(),
		CAFT0: caft0.mean(), CAFTUB: caftUB.mean(), CAFTc: caftC.meanNaN(),
		FTSAcN: ftsaC.n(), FTBARcN: ftbarC.n(), CAFTcN: caftC.n(),
		FFCAFT: ffCAFT.mean(), FFFTBAR: ffFTBAR.mean(), FFHOFT: ffHOFT.mean(),
		OvFTSA0: ovFTSA0.mean(), OvFTSAc: ovFTSAc.meanNaN(),
		OvFTBAR0: ovFTBAR0.mean(), OvFTBARc: ovFTBARc.meanNaN(),
		OvCAFT0: ovCAFT0.mean(), OvCAFTc: ovCAFTc.meanNaN(),
		MsgCAFT: msgC.mean(), MsgFTSA: msgF.mean(), MsgFTBAR: msgB.mean(), MsgHEFT: msgH.mean(), MsgHOFT: msgO.mean(),
		CAFT0CI: caft0.ci95(), FTSA0CI: ftsa0.ci95(), FTBAR0CI: ftbar0.ci95(),
		TasksLost: crash.Lost, ReplayErrors: crash.ReplayErrors,
	}
}
