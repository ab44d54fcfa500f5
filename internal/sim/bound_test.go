package sim

import (
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
)

// The paper's upper bound is "always achieved even with ε failures":
// no crash scenario of size <= eps may push the achieved latency past
// the schedule's last-arrival upper bound. Removing dead operations
// only frees resources, and first-arrival semantics only relax the
// input constraints, so every surviving operation runs no later than
// in the upper-bound replay.
func TestCrashNeverExceedsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		m := 6
		p := randomProblem(rng, 30, m)
		for _, eps := range []int{1, 2} {
			for name, build := range map[string]func() (*sched.Schedule, error){
				"caft": func() (*sched.Schedule, error) { return core.Schedule(p, eps, rng) },
				"ftsa": func() (*sched.Schedule, error) { return ftsa.Schedule(p, eps, rng) },
			} {
				s, err := build()
				if err != nil {
					t.Fatal(err)
				}
				ub, err := mustReplayer(t, s).UpperBound()
				if err != nil {
					t.Fatal(err)
				}
				for draw := 0; draw < 20; draw++ {
					crashed := map[int]bool{}
					for len(crashed) < eps {
						crashed[rng.Intn(m)] = true
					}
					lat, err := mustReplayer(t, s).CrashLatency(crashed)
					if err != nil {
						t.Fatalf("%s eps=%d: %v", name, eps, err)
					}
					if lat > ub+sched.Eps {
						t.Fatalf("%s eps=%d crashed=%v: latency %v exceeds upper bound %v",
							name, eps, crashed, lat, ub)
					}
				}
			}
		}
	}
}

// Crash replay with an empty crash set equals the lower bound, and
// superset crash sets of size <= eps never lower the guarantee below
// validity.
func TestCrashSetMonotoneSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := randomProblem(rng, 25, 6)
	s, err := core.Schedule(p, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := mustReplayer(t, s).LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	empty, err := mustReplayer(t, s).CrashLatency(map[int]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if empty != lb {
		t.Fatalf("empty crash set latency %v != lower bound %v", empty, lb)
	}
	// Every single and double crash stays within the bound envelope.
	ub, _ := mustReplayer(t, s).UpperBound()
	for a := 0; a < 6; a++ {
		for b := a; b < 6; b++ {
			lat, err := mustReplayer(t, s).CrashLatency(map[int]bool{a: true, b: true})
			if err != nil {
				t.Fatalf("crash {%d,%d}: %v", a, b, err)
			}
			if lat > ub+sched.Eps {
				t.Fatalf("crash {%d,%d}: %v exceeds UB %v", a, b, lat, ub)
			}
		}
	}
}
