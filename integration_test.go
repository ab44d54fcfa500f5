package caft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"caft/internal/bounds"
	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/sim"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// mustTopo unwraps a topology-constructor result for the statically
// valid shapes used across the root test files.
func mustTopo(g *topology.Graph, err error) *topology.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// TestIntegrationMatrix runs the full pipeline — generate, schedule,
// validate, replay, bound-check — across graph families, algorithms,
// communication models and reservation policies.
func TestIntegrationMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	graphs := map[string]*dag.DAG{
		"random":  gen.RandomLayered(rng, gen.RandomParams{MinTasks: 30, MaxTasks: 40, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}),
		"fork":    gen.Fork(10, 100),
		"montage": gen.Montage(5, 100),
		"fft":     gen.FFT(3, 80),
		"stencil": gen.Stencil(4, 5, 60),
		"chain":   gen.Chain(12, 90),
	}
	algos := map[string]func(p *sched.Problem, eps int, r *rand.Rand) (*sched.Schedule, error){
		"caft":  core.Schedule,
		"ftsa":  ftsa.Schedule,
		"ftbar": ftbar.Schedule,
	}
	for gname, g := range graphs {
		for _, model := range []sched.Model{sched.OnePort, sched.MacroDataflow} {
			for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
				plat := platform.NewRandom(rng, 6, 0.5, 1.0)
				exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
				p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: model, Policy: pol}
				for aname, algo := range algos {
					name := fmt.Sprintf("%s/%s/%s/%s", gname, model, pol, aname)
					t.Run(name, func(t *testing.T) {
						s, err := algo(p, 1, rng)
						if err != nil {
							t.Fatal(err)
						}
						if err := s.Validate(); err != nil {
							t.Fatal(err)
						}
						if s.ScheduledLatency() < bounds.CriticalPath(p)-sched.Eps {
							t.Fatalf("latency %v beats critical path %v", s.ScheduledLatency(), bounds.CriticalPath(p))
						}
						rep, err := sim.NewReplayer(s)
						if err != nil {
							t.Fatal(err)
						}
						lb, err := rep.LowerBound()
						if err != nil {
							t.Fatal(err)
						}
						// Replay reproduces scheduled times under the
						// append policy; insertion replays in placement
						// order and may differ slightly.
						if pol == timeline.Append && lb > s.ScheduledLatency()+sched.Eps {
							t.Fatalf("replay %v exceeds scheduled latency %v", lb, s.ScheduledLatency())
						}
						ub, err := rep.UpperBound()
						if err != nil {
							t.Fatal(err)
						}
						if ub < lb-sched.Eps {
							t.Fatalf("UB %v < LB %v", ub, lb)
						}
						for proc := 0; proc < 6; proc++ {
							lat, err := rep.CrashLatency(map[int]bool{proc: true})
							if err != nil {
								t.Fatalf("crash P%d: %v", proc, err)
							}
							if model == sched.OnePort && lat > ub+sched.Eps {
								t.Fatalf("crash P%d latency %v exceeds UB %v", proc, lat, ub)
							}
						}
					})
				}
			}
		}
	}
}

// TestIntegrationSparseMatrix runs CAFT and FTSA on every sparse
// topology and verifies resilience and validity.
func TestIntegrationSparseMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nets := map[string]sched.Network{
		"ring":      mustTopo(topology.Ring(8, 0.75)),
		"star":      mustTopo(topology.Star(8, 0.75)),
		"torus":     mustTopo(topology.Torus2D(2, 4, 0.75)),
		"hypercube": mustTopo(topology.Hypercube(3, 0.75)),
	}
	g := gen.RandomLayered(rng, gen.RandomParams{MinTasks: 25, MaxTasks: 30, MinDegree: 1, MaxDegree: 2, MinVolume: 20, MaxVolume: 60})
	plat := platform.New(8, 0.75)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	for nname, net := range nets {
		t.Run(nname, func(t *testing.T) {
			p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append, Net: net}
			for _, eps := range []int{1, 2} {
				sCA, err := core.Schedule(p, eps, rng)
				if err != nil {
					t.Fatal(err)
				}
				if err := sCA.Validate(); err != nil {
					t.Fatal(err)
				}
				sFT, err := ftsa.Schedule(p, eps, rng)
				if err != nil {
					t.Fatal(err)
				}
				repCA, err := sim.NewReplayer(sCA)
				if err != nil {
					t.Fatal(err)
				}
				repFT, err := sim.NewReplayer(sFT)
				if err != nil {
					t.Fatal(err)
				}
				for draw := 0; draw < 10; draw++ {
					crashed := map[int]bool{}
					for len(crashed) < eps {
						crashed[rng.Intn(8)] = true
					}
					if _, err := repCA.CrashLatency(crashed); err != nil {
						t.Fatalf("caft eps=%d %v: %v", eps, crashed, err)
					}
					if _, err := repFT.CrashLatency(crashed); err != nil {
						t.Fatalf("ftsa eps=%d %v: %v", eps, crashed, err)
					}
				}
			}
		})
	}
}

// TestInsertionImprovesOrMatchesAppend checks the A2 ablation claim on
// aggregate: gap-filling placements never hurt on average.
func TestInsertionImprovesOrMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	totalApp, totalIns := 0.0, 0.0
	for trial := 0; trial < 5; trial++ {
		g := gen.RandomLayered(rng, gen.DefaultParams)
		plat := platform.NewRandom(rng, 8, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
		pApp := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
		pIns := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Insertion}
		sApp, err := core.Schedule(pApp, 1, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		sIns, err := core.Schedule(pIns, 1, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sIns.Validate(); err != nil {
			t.Fatal(err)
		}
		totalApp += sApp.ScheduledLatency()
		totalIns += sIns.ScheduledLatency()
	}
	if totalIns > totalApp*1.02 {
		t.Fatalf("insertion policy worse on aggregate: %v vs %v", totalIns, totalApp)
	}
}

// TestMacroDataflowUnderestimates pins the paper's §3 motivation as an
// invariant: for communication-heavy instances the contention-free
// estimate is below the one-port replay of the same schedule.
func TestMacroDataflowUnderestimates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		g := gen.RandomLayered(rng, gen.DefaultParams)
		plat := platform.NewRandom(rng, 10, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, g, plat, 0.3, platform.DefaultHeterogeneity)
		macro := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.MacroDataflow, Policy: timeline.Append}
		s, err := ftsa.Schedule(macro, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		onePort := *macro
		onePort.Model = sched.OnePort
		view := *s
		view.P = &onePort
		rep, err := sim.NewReplayer(&view)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := rep.LowerBound()
		if err != nil {
			t.Fatal(err)
		}
		if lat <= s.ScheduledLatency() {
			t.Fatalf("one-port replay %v not above macro estimate %v", lat, s.ScheduledLatency())
		}
		if math.IsInf(lat, 1) {
			t.Fatal("replay diverged")
		}
	}
}
