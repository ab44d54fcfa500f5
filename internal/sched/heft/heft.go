// Package heft exposes the fault-free reference scheduler: HEFT
// (Topcuoglu, Hariri, Wu), the algorithm the paper's fault-free CAFT
// reduces to ("the fault-free version of CAFT reduces to an
// implementation of HEFT, the reference heuristic in the literature").
//
// It is FTSA with ε = 0: one replica per task on the processor giving
// the earliest finish time, under the same communication model and
// priority function as the fault-tolerant schedulers. Its latency is the
// CAFT* denominator of the paper's overhead metric.
//
//caft:deterministic
package heft

import (
	"fmt"
	"math/rand"

	"caft/internal/sched"
	"caft/internal/sched/ftsa"
)

func init() {
	sched.Register(sched.Descriptor{
		Name: "heft", ID: 0,
		Caps: sched.Caps{Append: true, Insertion: true},
		New: func(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
			if eps != 0 {
				return nil, fmt.Errorf("heft: fault-free reference takes eps 0, got %d", eps)
			}
			return Schedule(p, rng)
		},
	})
}

// Schedule runs one-port (or macro-dataflow, per p.Model) HEFT.
func Schedule(p *sched.Problem, rng *rand.Rand) (*sched.Schedule, error) {
	return ftsa.Schedule(p, 0, rng)
}
