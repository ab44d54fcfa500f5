// Package ftsa implements FTSA (Fault Tolerant Scheduling Algorithm) of
// Benoit, Hakem, Robert [4], the fault-tolerant extension of HEFT used
// as the primary baseline of the CAFT paper, adapted to the one-port
// model as described in Section 4.3.
//
// At each step, the free task with the highest priority (tℓ+bℓ) is
// selected and its mapping simulated on every processor; the ε+1
// processors allowing the minimum finish time receive one replica each.
// Every replica of a predecessor sends its result to every replica of
// the successor (unless a replica of the predecessor is co-located, in
// which case the input is free), so the schedule carries at most
// e(ε+1)² messages.
//
//caft:deterministic
package ftsa

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"caft/internal/dag"
	"caft/internal/sched"
)

func init() {
	sched.Register(sched.Descriptor{
		Name: "ftsa", ID: 3,
		Caps: sched.Caps{AcceptsEps: true, Append: true, Insertion: true},
		New:  Schedule,
	})
}

// Schedule runs FTSA with the given number ε of tolerated failures.
// ε = 0 degenerates to (one-port) HEFT.
func Schedule(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if eps < 0 || eps+1 > p.Plat.M {
		return nil, fmt.Errorf("ftsa: cannot place %d replicas on %d processors", eps+1, p.Plat.M)
	}
	st := sched.NewState(p)
	l := sched.NewLister(p, rng)
	for {
		t, ok := l.Pop()
		if !ok {
			break
		}
		if err := scheduleTask(st, t, eps); err != nil {
			return nil, err
		}
		l.MarkScheduled(t, sched.EarliestFinish(st.Reps[t]))
	}
	if l.Remaining() != 0 {
		return nil, fmt.Errorf("ftsa: %d tasks never became free (cyclic graph?)", l.Remaining())
	}
	return st.Snapshot(), nil
}

type candidate struct {
	proc   int
	finish float64
}

// byFinish orders candidates by simulated finish, ties to the smaller
// processor: a total order, so an unstable sort gives one result.
func byFinish(a, b candidate) int {
	return cmp.Or(cmp.Compare(a.finish, b.finish), cmp.Compare(a.proc, b.proc))
}

// scheduleTask simulates t on every candidate processor (all m by
// default; the top ProbeWidth by optimistic finish time when bounded,
// never fewer than the ε+1 distinct processors the replicas need) and
// commits replicas to the ε+1 best ones in increasing simulated-finish
// order.
func scheduleTask(st *sched.State, t dag.TaskID, eps int) error {
	sources := st.FullSources(t)
	m := st.P.Plat.M
	cands := make([]candidate, 0, m)
	for _, proc := range st.Candidates(t, eps+1) {
		rep, err := st.ProbeReplica(t, 0, proc, sources)
		if err != nil {
			return err
		}
		cands = append(cands, candidate{proc: proc, finish: rep.Finish})
	}
	slices.SortFunc(cands, byFinish)
	for k := 0; k <= eps; k++ {
		if _, err := st.PlaceReplica(t, k, cands[k].proc, sources); err != nil {
			return err
		}
	}
	return nil
}
