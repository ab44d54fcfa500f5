package caft

import (
	"math/rand"
	"testing"

	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	_ "caft/internal/sched/all"
	"caft/internal/timeline"
)

// schedulerBuildAllocs bounds the allocations of one schedule build,
// its fresh rng included, per registered scheduler and reservation
// policy on schedulerBuildProblem. Each ceiling is the parent's
// measurement (go test -v -run TestSchedulerBuildAllocPin logs every
// count); the counts are deterministic, also under -race. A GC cycle
// inside the measured window adds a few runtime allocations, which the
// 20 runs average away. Re-measure at the parent before changing one.
var schedulerBuildAllocs = map[string]float64{
	"heft/append":           490,
	"heft/insertion":        615,
	"caft/append":           11192,
	"caft/insertion":        11036,
	"caft-greedy/append":    7021,
	"caft-greedy/insertion": 6713,
	"ftsa/append":           644,
	"ftsa/insertion":        791,
	"ftbar/append":          1465,
	"ftbar/insertion":       1555,
	"hoft/append":           396,
	"hoft/insertion":        489,
}

// schedulerBuildProblem is one paper-sized instance: a random layered
// DAG with the default parameters on 10 random processors at
// granularity 1.0, all drawn from seed 5.
func schedulerBuildProblem(pol timeline.Policy) *sched.Problem {
	rng := rand.New(rand.NewSource(5))
	g := gen.RandomLayered(rng, gen.DefaultParams)
	plat := platform.NewRandom(rng, 10, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol}
}

// TestSchedulerBuildAllocPin pins the allocations of one full schedule
// build for every registered scheduler under both reservation policies,
// at ε = 1 for the fault-tolerant ones.
func TestSchedulerBuildAllocPin(t *testing.T) {
	rows := 0
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		p := schedulerBuildProblem(pol)
		for _, d := range sched.Registered() {
			if !d.Caps.Supports(pol) {
				continue
			}
			key := d.Name + "/" + pol.String()
			var err error
			allocs := testing.AllocsPerRun(20, func() {
				_, err = d.New(p, epsFor(d), rand.New(rand.NewSource(7)))
			})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			t.Logf("%s allocates %.0f/build", key, allocs)
			ceiling, ok := schedulerBuildAllocs[key]
			switch {
			case !ok:
				t.Errorf("%s has no ceiling: measure and add a row to schedulerBuildAllocs", key)
			case allocs > ceiling:
				t.Errorf("%s allocates %.0f/build, want <= %.0f", key, allocs, ceiling)
			}
			rows++
		}
	}
	if rows != len(schedulerBuildAllocs) {
		t.Errorf("measured %d scheduler/policy pairs, schedulerBuildAllocs has %d rows", rows, len(schedulerBuildAllocs))
	}
}
