package caft_test

import (
	"fmt"
	"math/rand"

	"caft"
)

// ExampleScheduleCAFT schedules a two-stage pipeline with one tolerated
// failure and shows that any single crash still completes the
// application.
func ExampleScheduleCAFT() {
	g := caft.NewDAG(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)

	plat := caft.NewPlatform(3, 1.0) // 3 processors, unit delay 1
	exec := make(caft.ExecMatrix, 3)
	for t := range exec {
		exec[t] = []float64{5, 5, 5}
	}
	p := &caft.Problem{G: g, Plat: plat, Exec: exec}

	rng := rand.New(rand.NewSource(1))
	s, err := caft.ScheduleCAFT(p, 1, rng)
	if err != nil {
		panic(err)
	}
	fmt.Println("replicas:", s.ReplicaCount())
	rep, err := caft.NewReplayer(s)
	if err != nil {
		panic(err)
	}
	for proc := 0; proc < 3; proc++ {
		if _, err := rep.CrashLatency(map[int]bool{proc: true}); err != nil {
			fmt.Println("crash lost the application:", err)
			return
		}
	}
	fmt.Println("every single crash survived")
	// Output:
	// replicas: 6
	// every single crash survived
}

// ExampleReplayer_UpperBound contrasts the failure-free latency with
// the latency guaranteed under ε failures.
func ExampleReplayer_UpperBound() {
	g := caft.NewDAG(2)
	g.AddEdge(0, 1, 4)
	plat := caft.NewPlatform(2, 1.0)
	// The second processor runs t1 ten times slower, so the backup
	// replica chain is slow: the upper bound reflects it while the
	// failure-free latency uses the fast chain.
	exec := caft.ExecMatrix{{3, 3}, {3, 30}}
	p := &caft.Problem{G: g, Plat: plat, Exec: exec}

	s, err := caft.ScheduleFTSA(p, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	rep, err := caft.NewReplayer(s)
	if err != nil {
		panic(err)
	}
	lb, _ := rep.LowerBound()
	ub, _ := rep.UpperBound()
	fmt.Printf("no failures: %.0f, guaranteed under 1 failure: %.0f\n", lb, ub)
	// Output:
	// no failures: 6, guaranteed under 1 failure: 33
}
