package sched

import (
	"math/rand"

	"caft/internal/dag"
)

// Lister maintains the free-task list α of the list-scheduling loop
// (paper Algorithm 5.1): a task is free when all of its predecessors
// have been scheduled. The priority of a free task is tℓ(t) + bℓ(t)
// where path lengths use average execution costs over processors and
// average communication costs over links (paper §5, citing HEFT).
// Top levels are updated dynamically as predecessors get scheduled,
// using the actual earliest finish of the scheduled task; bottom levels
// are static. Ties are broken randomly (paper: "ties are broken
// randomly") with the caller-provided source for reproducibility.
type Lister struct {
	c  *dag.Compiled
	bl []float64
	// prio holds tℓ(t) + bℓ(t). Raising a top level raises the sum
	// instead: rounding is monotone, so max(prio, cand+bℓ) is the sum
	// of the raised top level bit for bit.
	prio      []float64
	meanDelay float64 // mean communication cost per unit volume
	free      []dag.TaskID
	unsched   []int // unscheduled predecessor count
	scheduled []bool
	remaining int
	rng       *rand.Rand
}

// NewLister builds the lister for a problem over the graph's compiled
// view. rng is used only for tie breaking and may not be nil. It panics
// on a cyclic graph, like the level computations it replaces; run
// Problem.Validate first.
func NewLister(p *Problem, rng *rand.Rand) *Lister {
	c, err := p.G.Compile()
	if err != nil {
		panic(err)
	}
	n := c.NumTasks()
	meanExec := p.Exec.Mean()
	meanDelay := p.Network().MeanUnitDelay()
	l := &Lister{
		c:         c,
		bl:        c.BottomLevelsInto(make([]float64, n), meanExec, meanDelay),
		prio:      c.TopLevelsInto(make([]float64, n), meanExec, meanDelay),
		meanDelay: meanDelay,
		unsched:   make([]int, n),
		scheduled: make([]bool, n),
		remaining: n,
		rng:       rng,
	}
	for t := 0; t < n; t++ {
		l.prio[t] += l.bl[t]
		l.unsched[t] = c.InDegree(dag.TaskID(t))
		if l.unsched[t] == 0 {
			l.free = append(l.free, dag.TaskID(t))
		}
	}
	return l
}

// Remaining returns the number of tasks not yet marked scheduled.
func (l *Lister) Remaining() int { return l.remaining }

// Free returns the current free tasks (unordered). The slice aliases
// internal storage and is invalidated by Pop/Take/MarkScheduled.
//
//caft:scratch
func (l *Lister) Free() []dag.TaskID { return l.free }

// Priority returns the current priority tℓ(t)+bℓ(t) of a task.
func (l *Lister) Priority(t dag.TaskID) float64 { return l.prio[t] }

// BottomLevel returns the static bottom level of a task.
func (l *Lister) BottomLevel(t dag.TaskID) float64 { return l.bl[t] }

// Pop removes and returns the free task with the highest priority
// (H(α)); ties are broken randomly. It returns false when no task is
// free.
func (l *Lister) Pop() (dag.TaskID, bool) {
	if len(l.free) == 0 {
		return 0, false
	}
	var t dag.TaskID
	t, l.free = PopHighest(l.free, l.prio, l.rng)
	return t, true
}

// PopHighest removes the task with the highest prio[t] from the
// non-empty free list and returns it with the shortened list, which
// reuses free's storage. Ties are broken uniformly: the scan draws
// rng.Intn(k) at the k-th task tied with the best so far.
func PopHighest(free []dag.TaskID, prio []float64, rng *rand.Rand) (dag.TaskID, []dag.TaskID) {
	best, ties := 0, 1
	pb := prio[free[0]]
	for i := 1; i < len(free); i++ {
		switch pi := prio[free[i]]; {
		case pi > pb:
			best, ties, pb = i, 1, pi
		case pi == pb:
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	t := free[best]
	return t, append(free[:best], free[best+1:]...)
}

// Take removes a specific task from the free list (used by FTBAR, which
// chooses among all free tasks with its own urgency rule). It reports
// whether the task was free.
func (l *Lister) Take(t dag.TaskID) bool {
	for i, f := range l.free {
		if f == t {
			l.free = append(l.free[:i], l.free[i+1:]...)
			return true
		}
	}
	return false
}

// MarkScheduled records that t has been scheduled with the given
// earliest replica finish time, updates the dynamic top levels of its
// successors and releases newly freed successors into the free list.
func (l *Lister) MarkScheduled(t dag.TaskID, earliestFinish float64) {
	if l.scheduled[t] {
		panic("sched: task scheduled twice")
	}
	l.scheduled[t] = true
	l.remaining--
	to, vol := l.c.Succ(t)
	for k, s := range to {
		cand := earliestFinish + vol[k]*l.meanDelay
		if p := cand + l.bl[s]; p > l.prio[s] {
			l.prio[s] = p
		}
		l.unsched[s]--
		if l.unsched[s] == 0 {
			l.free = append(l.free, dag.TaskID(s))
		}
	}
}

// EarliestFinish returns min over replicas of finish for a task's
// placed replicas; helper for MarkScheduled callers.
func EarliestFinish(reps []Replica) float64 {
	min := reps[0].Finish
	for _, r := range reps[1:] {
		if r.Finish < min {
			min = r.Finish
		}
	}
	return min
}
