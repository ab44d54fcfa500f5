package expt

import (
	"fmt"
	"io"
	"math/rand"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// The ablation tables run on the same deterministic work-unit engine as
// the figures: every (table cell, graph) pair is an independent unit
// with a seed derived up front, the units fan out over `workers`
// goroutines (0 = GOMAXPROCS), and rows are assembled from the unit
// results in a fixed order — the emitted TSV is identical for any
// worker count.

// RunMessages reproduces the message-count argument of Proposition 5.1:
// on outforests CAFT generates at most e(ε+1) messages while FTSA may
// generate up to e(ε+1)²; on general random graphs CAFT still sends far
// fewer messages. One TSV row per (family, ε).
func RunMessages(w io.Writer, graphs int, seed int64, workers int) error {
	families := []struct {
		name string
		gen  func(rng *rand.Rand) *dag.DAG
	}{
		{"outforest", func(rng *rand.Rand) *dag.DAG { return gen.RandomOutForest(rng, 60, 2, 0, 50, 150) }},
		{"fork", func(rng *rand.Rand) *dag.DAG { return gen.Fork(30, 100) }},
		{"random", func(rng *rand.Rand) *dag.DAG { return gen.RandomLayered(rng, gen.DefaultParams) }},
	}
	const nEps = 4 // ε = 0..3
	type meas struct{ edges, msgC, msgF float64 }
	cells, err := runCells(workers, len(families)*nEps, graphs, func(cell, gi int) (meas, error) {
		fam, eps := families[cell/nEps], cell%nEps
		rng := rand.New(rand.NewSource(unitSeed(seed, cell, gi)))
		g := fam.gen(rng)
		plat := platform.NewRandom(rng, 10, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
		sc, err := algo("caft-greedy").New(p, eps, rng)
		if err != nil {
			return meas{}, err
		}
		sf, err := algo("ftsa").New(p, eps, rng)
		if err != nil {
			return meas{}, err
		}
		return meas{
			edges: float64(g.NumEdges()),
			msgC:  float64(sc.MessageCount()),
			msgF:  float64(sf.MessageCount()),
		}, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Prop 5.1 message counts: m=10, %d graphs per row, seed=%d\n", graphs, seed)
	fmt.Fprintln(w, "family\teps\tedges\tCAFT\tboundE(e+1)\tFTSA\tboundE(e+1)^2")
	for cell, units := range cells {
		fam, eps := families[cell/nEps], cell%nEps
		var edges, msgC, msgF series
		for _, m := range units {
			edges.add(m.edges)
			msgC.add(m.msgC)
			msgF.add(m.msgF)
		}
		e := edges.mean()
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
			fam.name, eps, e, msgC.mean(), e*float64(eps+1), msgF.mean(), e*float64((eps+1)*(eps+1)))
	}
	return nil
}

// lostPct renders the task-loss percentage, or the missing marker when
// no crash replay could be evaluated (0 draws must not read as NaN).
func lostPct(lost, draws int) string {
	if draws == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(lost)/float64(draws))
}

// RunAblation compares the CAFT variants (A1/A4 of DESIGN.md): the
// resilient portfolio default, the greedy one-to-one mode, the
// replicated-only mode and the literal paper-locking mode, reporting
// normalized latency, message count and the fraction of random ε-crash
// draws that lose a task entirely.
func RunAblation(w io.Writer, graphs int, seed int64, workers int) error {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"portfolio", core.Options{}},
		{"greedy", core.Options{Greedy: true}},
		{"full-only", core.Options{FullOnly: true}},
		{"paper-locking", core.Options{Greedy: true, Locking: core.PaperLocking}},
	}
	epsVals := []int{1, 3}
	gVals := []float64{0.2, 1.0, 5.0}
	type cellDef struct {
		eps     int
		g       float64
		variant int
	}
	var defs []cellDef
	for _, eps := range epsVals {
		for _, g := range gVals {
			for vi := range variants {
				defs = append(defs, cellDef{eps, g, vi})
			}
		}
	}
	type meas struct {
		lat, msg float64
		crash    MCTally
	}
	cells, err := runCells(workers, len(defs), graphs, func(cell, gi int) (meas, error) {
		def := defs[cell]
		rng := rand.New(rand.NewSource(unitSeed(seed, cell, gi)))
		p := randomProblem(rng, 10, def.g)
		s, err := core.ScheduleOpts(p, def.eps, rng, variants[def.variant].opts)
		if err != nil {
			return meas{}, err
		}
		m := meas{lat: s.ScheduledLatency() / DefaultNorm, msg: float64(s.MessageCount())}
		rep, err := sim.NewReplayer(s)
		if err != nil {
			return meas{}, err
		}
		for d := 0; d < 20; d++ {
			m.crash.Record(rep.CrashLatency(drawCrashes(rng, 10, def.eps)))
		}
		return m, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# CAFT variant ablation: m=10, %d graphs per cell, 20 crash draws per graph, seed=%d\n", graphs, seed)
	fmt.Fprintln(w, "eps\tg\tvariant\tlatency\tmessages\tlostPct")
	replayErrs := 0
	for cell, def := range defs {
		var lat, msg series
		var crash MCTally
		for _, m := range cells[cell] {
			lat.add(m.lat)
			msg.add(m.msg)
			crash.add(m.crash)
		}
		replayErrs += crash.ReplayErrors
		fmt.Fprintf(w, "%d\t%.1f\t%s\t%.2f\t%.0f\t%s\n",
			def.eps, def.g, variants[def.variant].name, lat.mean(), msg.mean(), lostPct(crash.Lost, crash.Draws()))
	}
	if replayErrs > 0 {
		fmt.Fprintf(w, "# %d crash replay(s) failed to evaluate and were excluded\n", replayErrs)
	}
	return nil
}

// RunAccuracy reproduces the Sinnen-Sousa style accuracy argument that
// motivates the paper (§3): schedules built under the contention-free
// macro-dataflow model look fast on paper but much slower when their
// communications are replayed under one-port constraints, while
// contention-aware schedules keep their promises. One row per
// granularity; latencies normalized.
func RunAccuracy(w io.Writer, graphs int, seed int64, workers int) error {
	gs := GranularityA()
	type meas struct{ est, real, aware float64 }
	cells, err := runCells(workers, len(gs), graphs, func(cell, gi int) (meas, error) {
		rng := rand.New(rand.NewSource(unitSeed(seed, cell, gi)))
		onePort := randomProblem(rng, 10, gs[cell])
		macro := *onePort
		macro.Model = sched.MacroDataflow
		sm, err := algo("ftsa").New(&macro, 1, rng)
		if err != nil {
			return meas{}, err
		}
		var m meas
		m.est = sm.ScheduledLatency() / DefaultNorm
		// Replay the same placements with one-port contention: the
		// promised overlap of messages is serialized.
		onePortView := *sm
		onePortView.P = onePort
		rep, err := sim.NewReplayer(&onePortView)
		if err != nil {
			return meas{}, err
		}
		lat, err := rep.LowerBound()
		if err != nil {
			return meas{}, err
		}
		m.real = lat / DefaultNorm
		sa, err := algo("ftsa").New(onePort, 1, rng)
		if err != nil {
			return meas{}, err
		}
		m.aware = sa.ScheduledLatency() / DefaultNorm
		return m, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# schedule accuracy: m=10, eps=1, %d graphs per point, seed=%d\n", graphs, seed)
	fmt.Fprintln(w, "g\tmacroEstimate\tmacroReplayed\tonePortAware\tmisprediction")
	for cell, g := range gs {
		var est, real, aware series
		for _, m := range cells[cell] {
			est.add(m.est)
			real.add(m.real)
			aware.add(m.aware)
		}
		mis := 0.0
		if est.mean() > 0 {
			mis = 100 * (real.mean() - est.mean()) / est.mean()
		}
		fmt.Fprintf(w, "%.1f\t%.2f\t%.2f\t%.2f\t%.0f%%\n", g, est.mean(), real.mean(), aware.mean(), mis)
	}
	return nil
}

// RunSparse exercises the conclusion's sparse-interconnect extension
// (X1): CAFT on a clique versus routed ring, star, mesh, torus and
// hypercube topologies of 8 processors, ε = 1.
func RunSparse(w io.Writer, graphs int, seed int64, workers int) error {
	const m = 8
	type topo struct {
		name string
		net  sched.Network
		diam int
	}
	topos := []topo{{"clique", nil, 1}}
	for _, tc := range []struct {
		name  string
		build func() (*topology.Graph, error)
	}{
		{"hypercube", func() (*topology.Graph, error) { return topology.Hypercube(3, 0.75) }},
		{"torus", func() (*topology.Graph, error) { return topology.Torus2D(2, 4, 0.75) }},
		{"mesh", func() (*topology.Graph, error) { return topology.Mesh2D(2, 4, 0.75) }},
		{"star", func() (*topology.Graph, error) { return topology.Star(m, 0.75) }},
		{"ring", func() (*topology.Graph, error) { return topology.Ring(m, 0.75) }},
	} {
		g, err := tc.build()
		if err != nil {
			return fmt.Errorf("expt: %s topology: %w", tc.name, err)
		}
		topos = append(topos, topo{tc.name, g, g.Diameter()})
	}
	type meas struct {
		lat, msg float64
		crash    MCTally
	}
	cells, err := runCells(workers, len(topos), graphs, func(cell, gi int) (meas, error) {
		tp := topos[cell]
		rng := rand.New(rand.NewSource(unitSeed(seed, cell, gi)))
		graph := gen.RandomLayered(rng, gen.DefaultParams)
		plat := platform.New(m, 0.75)
		exec := platform.GenExecForGranularity(rng, graph, plat, 1.0, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: graph, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append, Net: tp.net}
		s, err := algo("caft").New(p, 1, rng)
		if err != nil {
			return meas{}, err
		}
		mr := meas{lat: s.ScheduledLatency() / DefaultNorm, msg: float64(s.MessageCount())}
		rep, err := sim.NewReplayer(s)
		if err != nil {
			return meas{}, err
		}
		for proc := 0; proc < m; proc++ {
			mr.crash.Record(rep.CrashLatency(map[int]bool{proc: true}))
		}
		return mr, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# sparse topologies: m=%d, eps=1, g=1.0, %d graphs per row, seed=%d\n", m, graphs, seed)
	fmt.Fprintln(w, "topology\tdiameter\tlatency\tmessages\tlost1crashPct")
	replayErrs := 0
	for cell, tp := range topos {
		var lat, msg series
		var crash MCTally
		for _, mr := range cells[cell] {
			lat.add(mr.lat)
			msg.add(mr.msg)
			crash.add(mr.crash)
		}
		replayErrs += crash.ReplayErrors
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.0f\t%s\n", tp.name, tp.diam, lat.mean(), msg.mean(), lostPct(crash.Lost, crash.Draws()))
	}
	if replayErrs > 0 {
		fmt.Fprintf(w, "# %d crash replay(s) failed to evaluate and were excluded\n", replayErrs)
	}
	return nil
}
