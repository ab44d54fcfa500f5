package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"caft/internal/dag"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// checkBound probes tid on every processor and reports the first one
// whose FinishLowerBound exceeds the probed finish. Rejected probes
// (a processor already hosting the task) bound nothing.
func checkBound(t *testing.T, label string, st *State, tid dag.TaskID, copy int, sources []SourceSet) {
	t.Helper()
	for proc := 0; proc < st.P.Plat.M; proc++ {
		lb := st.FinishLowerBound(tid, proc, sources)
		rep, err := st.ProbeReplica(tid, copy, proc, sources)
		if err == nil && lb > rep.Finish {
			t.Fatalf("%s: task %d on P%d: bound %v above probed finish %v", label, tid, proc, lb, rep.Finish)
		}
	}
}

// TestFinishLowerBoundBelowProbe checks the bound against every probe
// while random states grow, then on the grown state with a positive
// floor, and after the cancellations of a mid-schedule crash — under
// both policies, both communication models, on the clique and on a
// sparse mesh.
func TestFinishLowerBoundBelowProbe(t *testing.T) {
	mesh, err := topology.Mesh2D(2, 2, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		for _, model := range []Model{OnePort, MacroDataflow} {
			for _, net := range []Network{nil, mesh} {
				for seed := int64(0); seed < 4; seed++ {
					label := fmt.Sprintf("%v/%v/sparse=%v/seed %d", pol, model, net != nil, seed)
					rng := rand.New(rand.NewSource(seed))
					p := randomProblem(rng, 4, pol)
					p.Model, p.Net = model, net
					st := NewState(p)
					growState(t, st, 1, func(tid dag.TaskID, sources []SourceSet) {
						checkBound(t, label, st, tid, 0, sources)
					})
					checkAll := func(stage string) {
						for task := 0; task < p.G.NumTasks(); task++ {
							tid := dag.TaskID(task)
							checkBound(t, label+" "+stage, st, tid, len(st.Reps[tid]), st.FullSources(tid))
						}
					}
					tau := st.Snapshot().MakespanAll() / 2
					st.SetFloor(tau)
					checkAll("floor")
					st.SetFloor(0)
					cancelAfter(t, st, rng.Intn(p.Plat.M), tau)
					checkAll("cancelled")
				}
			}
		}
	}
}

// TestFinishLowerBoundTight pins cases where the bound is exact, so a
// weakened bound is caught too: one source finishing at 2 on P0, probed
// on P0 (co-located) and on P1, P2 (a transfer of duration 4 over idle
// ports), with floors below, between and above the source's finish and
// the arrival.
func TestFinishLowerBoundTight(t *testing.T) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		for _, model := range []Model{OnePort, MacroDataflow} {
			for _, floor := range []float64{0, 5, 7} {
				g := dag.New(2)
				g.AddEdge(0, 1, 4)
				p := prob(g, 3, 2)
				p.Model, p.Policy = model, pol
				st := NewState(p)
				if _, err := st.PlaceReplica(0, 0, 0, nil); err != nil {
					t.Fatal(err)
				}
				st.SetFloor(floor)
				sources := st.FullSources(1)
				for proc := 0; proc < 3; proc++ {
					rep, err := st.ProbeReplica(1, 0, proc, sources)
					if err != nil {
						t.Fatal(err)
					}
					if lb := st.FinishLowerBound(1, proc, sources); lb != rep.Finish {
						t.Fatalf("%v/%v floor %v: P%d bound %v, probed finish %v", pol, model, floor, proc, lb, rep.Finish)
					}
				}
			}
		}
	}
}
