package core

import (
	"fmt"
	"math/rand"

	"caft/internal/sched"
)

// ScheduleBatch runs the windowed variant of CAFT sketched in the
// paper's conclusion: "instead of considering a single task (the one
// with highest priority) and assigning all its replicas to the
// currently best available resources, why not consider say, 10 ready
// tasks, and assign all their replicas in the same decision making
// procedure? The idea would be to design an extension of the one-to-one
// mapping procedure to a set of independent tasks, in order to better
// load balance processor and link usage."
//
// Up to window free tasks (all pairwise independent, since they are
// simultaneously free) are taken in priority order, and their replicas
// are placed in interleaved rounds: round r places the r-th replica of
// every task in the window before any task receives its (r+1)-th
// replica, so the early replicas of all window tasks compete for the
// fast processors on equal footing instead of the first task grabbing
// them all. window = 1 is exactly the greedy CAFT of Algorithm 5.1.
func ScheduleBatch(p *sched.Problem, eps, window int, rng *rand.Rand) (*sched.Schedule, error) {
	var c scheduler
	if err := c.init(p, eps, Options{Greedy: true}); err != nil {
		return nil, err
	}
	if window < 1 {
		return nil, fmt.Errorf("caft: batch window must be positive, got %d", window)
	}
	return c.run(sched.NewLister(p, rng), window)
}
