// Quickstart: build a small task graph, a heterogeneous platform, run
// CAFT with ε = 1 and print the schedule, its fault-tolerance bounds
// and what actually happens when a processor crashes.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
	"caft/internal/viz"
)

func main() {
	// A diamond workflow: prepare -> {left, right} -> merge.
	g := dag.New(4)
	g.AddEdge(0, 1, 40) // volumes: units of data shipped along the edge
	g.AddEdge(0, 2, 60)
	g.AddEdge(1, 3, 50)
	g.AddEdge(2, 3, 30)

	// Four processors, fully connected; unit delays drawn from the
	// paper's [0.5, 1] range; execution times of each task on each
	// processor scaled so computation and communication are balanced
	// (granularity 1.0).
	rng := rand.New(rand.NewSource(42))
	plat := platform.NewRandom(rng, 4, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)

	p := &sched.Problem{
		G:      g,
		Plat:   plat,
		Exec:   exec,
		Model:  sched.OnePort, // the paper's contention model
		Policy: timeline.Append,
	}

	// Schedule with one tolerated fail-stop failure: every task gets two
	// replicas on distinct processors, chained so that no single crash
	// can starve both.
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		log.Fatal(err)
	}

	viz.Summary(os.Stdout, s)
	fmt.Println()
	if err := viz.Render(os.Stdout, s, viz.Options{Width: 90, Ports: true}); err != nil {
		log.Fatal(err)
	}

	rep, err := sim.NewReplayer(s)
	if err != nil {
		log.Fatal(err)
	}
	lb, _ := rep.LowerBound()
	ub, _ := rep.UpperBound()
	fmt.Printf("\nlatency if nothing fails: %.2f; guaranteed even under 1 failure: %.2f\n", lb, ub)

	// Crash each processor in turn and replay.
	for proc := 0; proc < plat.M; proc++ {
		lat, err := rep.CrashLatency(map[int]bool{proc: true})
		if err != nil {
			log.Fatalf("crash of P%d lost a task: %v", proc, err)
		}
		fmt.Printf("crash P%d -> application still completes at %.2f\n", proc, lat)
	}
}
