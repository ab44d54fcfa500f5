// Workflow: schedule a Montage-style astronomy mosaicking pipeline — a
// realistic scientific workflow with fan-out, pairwise couplings and
// gather stages — on a 8-processor heterogeneous platform, and compare
// the three fault-tolerant schedulers of the paper on latency and
// message count at increasing replication levels.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/sim"
	"caft/internal/timeline"
)

func main() {
	g := gen.Montage(8, 120) // 8 parallel reprojections
	rng := rand.New(rand.NewSource(7))
	plat := platform.NewRandom(rng, 8, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 0.8, platform.DefaultHeterogeneity)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}

	fmt.Printf("Montage workflow: %d tasks, %d edges, width %d\n\n", g.NumTasks(), g.NumEdges(), g.Width())
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "eps\talgorithm\tlatency\tupper bound\tmessages\tworst 1-crash latency")
	for _, eps := range []int{0, 1, 2} {
		type result struct {
			name string
			s    *sched.Schedule
		}
		var results []result
		sCA, err := core.Schedule(p, eps, rng)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, result{"CAFT", sCA})
		sFT, err := ftsa.Schedule(p, eps, rng)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, result{"FTSA", sFT})
		sFB, err := ftbar.Schedule(p, eps, rng)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, result{"FTBAR", sFB})
		for _, r := range results {
			rep, err := sim.NewReplayer(r.s)
			if err != nil {
				log.Fatal(err)
			}
			ub, err := rep.UpperBound()
			if err != nil {
				log.Fatal(err)
			}
			worst := r.s.ScheduledLatency()
			if eps >= 1 {
				worst = 0
				for proc := 0; proc < plat.M; proc++ {
					lat, err := rep.CrashLatency(map[int]bool{proc: true})
					if err != nil {
						log.Fatalf("%s eps=%d: crash P%d lost a task: %v", r.name, eps, proc, err)
					}
					if lat > worst {
						worst = lat
					}
				}
			}
			fmt.Fprintf(tw, "%d\t%s\t%.1f\t%.1f\t%d\t%.1f\n",
				eps, r.name, r.s.ScheduledLatency(), ub, r.s.MessageCount(), worst)
		}
	}
	tw.Flush()
	fmt.Println("\nCAFT keeps the replica traffic (and hence the one-port contention) low,")
	fmt.Println("which is why its latency stays closest to the fault-free schedule.")
}
