// Package bounds computes theoretical lower bounds on the latency of
// any schedule of a problem, used to sanity-check the heuristics and to
// report schedule length ratios (SLR):
//
//   - the critical-path bound: the longest chain of minimum execution
//     times through the DAG, ignoring communication — no schedule can
//     beat the fastest possible execution of the longest chain;
//   - the work bound: the total minimum work divided by the number of
//     processors — even perfect load balancing cannot beat it;
//   - for fault-tolerant schedules with ε+1 replicas, the replicated
//     work bound multiplies the work by the replication degree (active
//     replication executes every copy).
//
//caft:deterministic
package bounds

import (
	"caft/internal/dag"
	"caft/internal/sched"
)

// CriticalPath returns the longest path of per-task minimum execution
// times, ignoring communications.
func CriticalPath(p *sched.Problem) float64 {
	minExec := minPerTask(p)
	return p.G.CriticalPathLen(minExec, func(dag.Edge) float64 { return 0 })
}

// Work returns sum of minimum execution times over all tasks divided by
// the processor count: the load-balance bound for one copy of the
// application.
func Work(p *sched.Problem) float64 {
	minExec := minPerTask(p)
	s := 0.0
	for _, c := range minExec {
		s += c
	}
	return s / float64(p.Plat.M)
}

// Latency returns the largest applicable lower bound on the fault-free
// latency: max(critical path, work bound).
func Latency(p *sched.Problem) float64 {
	cp := CriticalPath(p)
	if w := Work(p); w > cp {
		return w
	}
	return cp
}

// SLR returns the schedule length ratio of a schedule: its latency
// divided by the critical-path bound. SLR >= 1 always; values close to
// 1 indicate near-optimal chains.
func SLR(s *sched.Schedule) float64 {
	cp := CriticalPath(s.P)
	if cp == 0 {
		return 0
	}
	return s.ScheduledLatency() / cp
}

func minPerTask(p *sched.Problem) []float64 {
	out := make([]float64, p.G.NumTasks())
	for t := range out {
		min := p.Exec[t][0]
		for _, c := range p.Exec[t][1:] {
			if c < min {
				min = c
			}
		}
		out[t] = min
	}
	return out
}
