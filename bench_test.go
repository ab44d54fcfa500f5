// Package caft's top-level benchmarks regenerate, at reduced sample
// counts, every experiment of the paper (Figures 1-6), the Prop. 5.1
// message-count table, the Thm. 5.1 complexity scaling, and the
// ablations listed in DESIGN.md. Custom benchmark metrics carry the
// measured series so `go test -bench` output documents the shapes:
// normalized latencies (caft0/ftsa0/ftbar0), crash latencies and mean
// message counts. Full-size runs (60 graphs per point) are produced by
// cmd/caftsim.
package caft

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/expt"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/sim"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// benchFigure runs a reduced version of a paper figure and reports the
// mid-granularity point as benchmark metrics. In -short mode (CI) the
// sample count drops to one graph per point so a -benchtime=1x sweep
// of every figure stays affordable.
func benchFigure(b *testing.B, figure, graphs int) {
	b.Helper()
	if testing.Short() {
		graphs = 1
	}
	cfg, err := expt.FigureConfig(figure, graphs, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Three representative granularities instead of ten.
	gs := cfg.Granularities
	cfg.Granularities = []float64{gs[0], gs[4], gs[9]}
	var last []expt.Point
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := cfg.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	b.StopTimer()
	mid := last[1]
	b.ReportMetric(mid.CAFT0, "caft0")
	b.ReportMetric(mid.FTSA0, "ftsa0")
	b.ReportMetric(mid.FTBAR0, "ftbar0")
	b.ReportMetric(mid.CAFTc, "caft-crash")
	b.ReportMetric(mid.FTSAc, "ftsa-crash")
	b.ReportMetric(mid.OvCAFT0, "caft-ov%")
	b.ReportMetric(mid.MsgCAFT, "caft-msgs")
	b.ReportMetric(mid.MsgFTSA, "ftsa-msgs")
	if mid.TasksLost != 0 {
		b.Fatalf("crash replays lost %d tasks", mid.TasksLost)
	}
}

func BenchmarkFigure1(b *testing.B) { benchFigure(b, 1, 3) } // m=10 ε=1, family A
func BenchmarkFigure2(b *testing.B) { benchFigure(b, 2, 3) } // m=10 ε=3, family A
func BenchmarkFigure3(b *testing.B) { benchFigure(b, 3, 2) } // m=20 ε=5, family A
func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4, 3) } // m=10 ε=1, family B
func BenchmarkFigure5(b *testing.B) { benchFigure(b, 5, 3) } // m=10 ε=3, family B
func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6, 2) } // m=20 ε=5, family B

// BenchmarkMessageCounts regenerates the Prop. 5.1 message table.
func BenchmarkMessageCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := expt.RunMessages(io.Discard, 2, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOneToOne compares the CAFT replication patterns (A1).
func BenchmarkAblationOneToOne(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := benchProblem(rng, 10, 1.0, timeline.Append)
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"portfolio", core.Options{}},
		{"greedy", core.Options{Greedy: true}},
		{"full-only", core.Options{FullOnly: true}},
		{"paper-locking", core.Options{Greedy: true, Locking: core.PaperLocking}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var lat, msgs float64
			for i := 0; i < b.N; i++ {
				s, err := core.ScheduleOpts(p, 3, rand.New(rand.NewSource(7)), v.opts)
				if err != nil {
					b.Fatal(err)
				}
				lat = s.ScheduledLatency()
				msgs = float64(s.MessageCount())
			}
			b.ReportMetric(lat/expt.DefaultNorm, "latency")
			b.ReportMetric(msgs, "msgs")
		})
	}
}

// BenchmarkAblationInsertion compares the append and insertion timeline
// policies (A2).
func BenchmarkAblationInsertion(b *testing.B) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		b.Run(pol.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			p := benchProblem(rng, 10, 1.0, pol)
			var lat float64
			for i := 0; i < b.N; i++ {
				s, err := core.Schedule(p, 1, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				lat = s.ScheduledLatency()
			}
			b.ReportMetric(lat/expt.DefaultNorm, "latency")
		})
	}
}

// BenchmarkScheduleInsertion measures the probe-heaviest scheduler
// under the Insertion policy, where every probe runs through the
// reservation journal and is rolled back. Run with -benchmem:
// steady-state probes are allocation-free (TestInsertionProbeAllocPin
// in internal/sched pins it).
func BenchmarkScheduleInsertion(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	p := benchProblem(rng, 10, 1.0, timeline.Insertion)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ftsa.Schedule(p, 2, rand.New(rand.NewSource(7))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationContention measures how far the macro-dataflow
// estimate deviates from the one-port replay of the same schedule (A3).
func BenchmarkAblationContention(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := benchProblem(rng, 10, 0.4, timeline.Append)
	macro := *p
	macro.Model = sched.MacroDataflow
	var est, replayed float64
	for i := 0; i < b.N; i++ {
		s, err := ftsa.Schedule(&macro, 1, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		est = s.ScheduledLatency()
		view := *s
		view.P = p
		rep, err := sim.NewReplayer(&view)
		if err != nil {
			b.Fatal(err)
		}
		if replayed, err = rep.LowerBound(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(est/expt.DefaultNorm, "macro-estimate")
	b.ReportMetric(replayed/expt.DefaultNorm, "one-port-replay")
}

// BenchmarkScale runs a reduced large-DAG scale study (the -figure
// scale experiment) end to end, exercising the speculative probe path
// under both reservation policies at sizes past the paper's regime. In
// -short mode (CI) it shrinks to the smallest size so every push still
// drives the probe-heavy journal/rollback machinery.
func BenchmarkScale(b *testing.B) {
	sizes := []int{100, 200}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for i := 0; i < b.N; i++ {
		if err := expt.RunScale(io.Discard, io.Discard, sizes, 1, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCAFTComplexity traces the Thm. 5.1 scaling of CAFT's running
// time in v, m and ε.
func BenchmarkCAFTComplexity(b *testing.B) {
	for _, c := range []struct{ v, m, eps int }{
		{50, 10, 1}, {100, 10, 1}, {200, 10, 1},
		{100, 10, 3}, {100, 20, 3}, {100, 20, 5},
	} {
		b.Run(fmt.Sprintf("v=%d/m=%d/eps=%d", c.v, c.m, c.eps), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			params := gen.DefaultParams
			params.MinTasks, params.MaxTasks = c.v, c.v
			g := gen.RandomLayered(rng, params)
			plat := platform.NewRandom(rng, c.m, 0.5, 1.0)
			exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
			p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ScheduleOpts(p, c.eps, rand.New(rand.NewSource(7)), core.Options{Greedy: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulers compares the raw scheduling time of the three
// fault-tolerant algorithms on one paper-sized instance.
func BenchmarkSchedulers(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := benchProblem(rng, 10, 1.0, timeline.Append)
	b.Run("heft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := heft.Schedule(p, rand.New(rand.NewSource(7))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ftsa-eps1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ftsa.Schedule(p, 1, rand.New(rand.NewSource(7))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ftbar-eps1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ftbar.Schedule(p, 1, rand.New(rand.NewSource(7))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("caft-eps1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Schedule(p, 1, rand.New(rand.NewSource(7))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSparseTopology runs CAFT on routed sparse interconnects (X1).
func BenchmarkSparseTopology(b *testing.B) {
	nets := []struct {
		name string
		net  sched.Network
	}{
		{"clique", nil},
		{"hypercube", mustTopo(topology.Hypercube(3, 0.75))},
		{"ring", mustTopo(topology.Ring(8, 0.75))},
		{"mesh", mustTopo(topology.Mesh2D(2, 4, 0.75))},
	}
	for _, n := range nets {
		b.Run(n.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			g := gen.RandomLayered(rng, gen.DefaultParams)
			plat := platform.New(8, 0.75)
			exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
			p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append, Net: n.net}
			var lat float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.Schedule(p, 1, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				lat = s.ScheduledLatency()
			}
			b.ReportMetric(lat/expt.DefaultNorm, "latency")
		})
	}
}

// BenchmarkBatchCAFT compares CAFT against its window-K batch variant
// (the paper's §7 future-work idea, X2).
func BenchmarkBatchCAFT(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	p := benchProblem(rng, 10, 1.0, timeline.Append)
	for _, k := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("window=%d", k), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s, err := core.ScheduleBatch(p, 1, k, rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				lat = s.ScheduledLatency()
			}
			b.ReportMetric(lat/expt.DefaultNorm, "latency")
		})
	}
}

func benchProblem(rng *rand.Rand, m int, g float64, pol timeline.Policy) *sched.Problem {
	graph := gen.RandomLayered(rng, gen.DefaultParams)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, graph, plat, g, platform.DefaultHeterogeneity)
	return &sched.Problem{G: graph, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol}
}
