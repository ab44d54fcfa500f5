// Crashtest: an exhaustive fault-injection study. An FFT dataflow is
// scheduled with ε = 2, then EVERY pair of processors is crashed in
// turn and the schedule replayed, demonstrating the paper's guarantee:
// at least one replica of every task always survives, and the achieved
// latency never exceeds the schedule's upper bound by more than the
// replay slack. Also shows the phenomenon of Figures 1(b)/2(b): losing
// a processor can make the remaining schedule finish EARLIER, because
// its messages disappear from the contended ports.
//
// A second section leaves the static-subset world: crash instants are
// sampled from an exponential lifetime model (package failure) and
// replayed with timed fail-stop semantics on a reused Replayer,
// estimating the schedule's unreliability by Monte Carlo.
package main

import (
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"

	"caft/internal/core"
	"caft/internal/failure"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
)

func main() {
	const m, eps = 8, 2
	g := gen.FFT(3, 80) // 8-point FFT butterfly: 32 tasks, 48 edges
	rng := rand.New(rand.NewSource(3))
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.5, platform.DefaultHeterogeneity)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}

	s, err := core.Schedule(p, eps, rng)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sim.NewReplayer(s)
	if err != nil {
		log.Fatal(err)
	}
	lb, _ := rep.LowerBound()
	ub, _ := rep.UpperBound()
	fmt.Printf("FFT(8): %d tasks, eps=%d, latency %.1f, upper bound %.1f, %d messages\n\n",
		g.NumTasks(), eps, lb, ub, s.MessageCount())

	worst, best := 0.0, math.Inf(1)
	faster := 0
	total := 0
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			lat, err := rep.CrashLatency(map[int]bool{a: true, b: true})
			if err != nil {
				log.Fatalf("crashing P%d+P%d lost a task — fault tolerance violated: %v", a, b, err)
			}
			total++
			if lat > worst {
				worst = lat
			}
			if lat < best {
				best = lat
			}
			if lat < lb {
				faster++
			}
		}
	}
	fmt.Printf("all %d double-crash scenarios survived\n", total)
	fmt.Printf("latency across scenarios: best %.1f, worst %.1f (0-crash %.1f)\n", best, worst, lb)
	fmt.Printf("%d scenarios finished EARLIER than the failure-free replay —\n", faster)
	fmt.Println("dead processors stop sending, so surviving messages clear the ports sooner")
	fmt.Println("(the effect discussed below Figure 2 in the paper).")

	// Stochastic section: exponential lifetimes at a few MTBF levels.
	// With timed semantics more than eps crashes need not lose a task —
	// work finished before a crash survives — so the Monte-Carlo
	// unreliability stays well below the naive >2-crashes probability.
	fmt.Println()
	const samples = 2000
	for _, mult := range []float64{2, 8, 32} {
		model := &failure.Exponential{MTBF: failure.UniformMTBF(rng, m, 0.75*mult*lb, 1.25*mult*lb)}
		lost, latSum, survived := 0, 0.0, 0
		scratch := map[int]float64{}
		for i := 0; i < samples; i++ {
			lat, err := rep.CrashLatencyAt(model.Sample(rng, scratch))
			switch {
			case errors.Is(err, sim.ErrTaskLost):
				lost++
			case err != nil:
				log.Fatal(err)
			default:
				survived++
				latSum += lat
			}
		}
		meanLat := "-"
		if survived > 0 {
			meanLat = fmt.Sprintf("%.1f", latSum/float64(survived))
		}
		fmt.Printf("exponential MTBF ~%gx latency: unreliability %.3f, expected latency %s over %d survivors\n",
			mult, float64(lost)/samples, meanLat, survived)
	}
}
