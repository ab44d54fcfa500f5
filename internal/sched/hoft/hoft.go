// Package hoft implements HOFT (Heterogeneous Optimistic Finish Time),
// a fault-free list scheduler built on optimistic finish-time tables
// (Sulaiman, Halim, et al.; the variant evaluated in McSweeney's HEFT
// comparison framework). Where HEFT ranks tasks by a single upward-rank
// number computed from processor-averaged costs, HOFT keeps the whole
// (task, processor) table
//
//	OFT[t][p] = w(t,p) + max over children c of
//	            min over q of (OFT[c][q] + (q == p ? 0 : c(e)))
//
// — the finish time of t on p under the optimistic assumption that
// every descendant gets its best processor and only the first hop pays
// communication. The table is used twice: task priority is the mean of
// OFT[t][·] over processors (tasks whose subtrees are expensive
// everywhere go first), and placement minimizes EFT(t,p) +
// (OFT[t][p] − w(t,p)) — the earliest finish achievable now plus the
// optimistic remaining path from p, a one-step lookahead that plain
// HEFT lacks. Like HEFT it is a fault-free reference: one replica per
// task, eps must be 0.
//
// Placement probes run through sched.State, so HOFT obeys the same
// one-port (or macro-dataflow) reservations and append/insertion
// policies as every other scheduler in the registry.
//
//caft:deterministic
package hoft

import (
	"fmt"
	"math"
	"math/rand"

	"caft/internal/dag"
	"caft/internal/sched"
)

func init() {
	sched.Register(sched.Descriptor{
		Name: "hoft", ID: 5,
		Caps: sched.Caps{Append: true, Insertion: true},
		New: func(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
			if eps != 0 {
				return nil, fmt.Errorf("hoft: fault-free reference takes eps 0, got %d", eps)
			}
			return Schedule(p, rng)
		},
	})
}

// Schedule runs HOFT on the problem. rng breaks priority ties, like the
// paper's other list schedulers ("ties are broken randomly").
func Schedule(p *sched.Problem, rng *rand.Rand) (*sched.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cg, err := p.G.Compile()
	if err != nil {
		return nil, err
	}
	m := p.Plat.M
	n := cg.NumTasks()
	st := sched.NewState(p)
	oft := st.OFT()

	// Priority: mean optimistic finish over processors.
	prio := make([]float64, n)
	for t := range prio {
		sum := 0.0
		for _, v := range oft[t] {
			sum += v
		}
		prio[t] = sum / float64(m)
	}

	unsched := make([]int, n)
	var free []dag.TaskID
	for t := 0; t < n; t++ {
		unsched[t] = cg.InDegree(dag.TaskID(t))
		if unsched[t] == 0 {
			free = append(free, dag.TaskID(t))
		}
	}
	scheduled := 0
	for len(free) > 0 {
		// Pop the free task with the highest priority; ties are broken
		// uniformly, as in sched.Lister.
		var t dag.TaskID
		t, free = sched.PopHighest(free, prio, rng)

		// Place on the processor minimizing EFT + optimistic remaining
		// path (OFT minus the local execution already counted in EFT).
		sources := st.FullSources(t)
		bestProc, bestScore, bestFinish := -1, math.Inf(1), math.Inf(1)
		for _, proc := range st.Candidates(t, 1) {
			rep, err := st.ProbeReplica(t, 0, proc, sources)
			if err != nil {
				return nil, err
			}
			score := rep.Finish + oft[t][proc] - p.Exec[t][proc]
			if score < bestScore || (score == bestScore && rep.Finish < bestFinish) {
				bestProc, bestScore, bestFinish = proc, score, rep.Finish
			}
		}
		if _, err := st.PlaceReplica(t, 0, bestProc, sources); err != nil {
			return nil, err
		}
		scheduled++
		to, _ := cg.Succ(t)
		for _, s := range to {
			unsched[s]--
			if unsched[s] == 0 {
				free = append(free, dag.TaskID(s))
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("hoft: %d of %d tasks never became free (cyclic graph?)", n-scheduled, n)
	}
	return st.Snapshot(), nil
}
