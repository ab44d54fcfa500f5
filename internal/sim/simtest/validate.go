// Package simtest holds the executed-schedule oracle that the tests of
// packages sim and online run over replay results. Only tests import
// it; production code checks planned schedules with sched.Validator.
// Unlike the Validator, which checks the resources of sched.Layout, it
// checks every link of every route; FuzzValidatorMatchesOracle (package
// sim) requires both to accept the same planned schedules.
package simtest

import (
	"fmt"
	"math"
	"sort"

	"caft/internal/dag"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// Validate checks an executed replay (a clairvoyant sim.Replayer run or
// an online one) against the problem and the failure trace it ran
// under; a static crash set is the trace with every crash at 0:
//
//   - every task either completed at least one replica or is listed in
//     TasksLost (exactly one of the two);
//   - finished replicas have the right duration, occupy pairwise
//     distinct processors per task, and beat their processor's crash
//     instant; reactive replicas never start before the crash that
//     placed them, and never on an already-crashed processor;
//   - every delivered transfer leaves the processor of its finished
//     source replica for the processor of its destination replica
//     (alive or dead), and is intra exactly when both are the same;
//   - precedence holds on executed times: every finished replica has,
//     for each predecessor, a finished input transfer arriving by its
//     start; every finished transfer starts at or after its finished
//     source replica and beats both endpoints' crash instants;
//   - resource exclusivity holds on executed times: per-processor
//     executions never overlap and, under the one-port model, neither
//     do the send-port, receive-port and link occupations.
func Validate(p *sched.Problem, res *sim.Result, trace map[int]float64) error {
	g := p.G
	if len(res.Reps) != g.NumTasks() {
		return fmt.Errorf("simtest: %d tasks recorded, want %d", len(res.Reps), g.NumTasks())
	}
	crashAt := func(proc int) float64 {
		if tau, ok := trace[proc]; ok {
			return tau
		}
		return math.Inf(1)
	}
	lost := map[dag.TaskID]bool{}
	for _, t := range res.TasksLost {
		lost[t] = true
	}

	// Replica checks + per-task completion accounting.
	for t := range res.Reps {
		seen := map[int]bool{}
		completed := false
		for _, o := range res.Reps[t] {
			if !o.Alive {
				continue
			}
			completed = true
			r := o.Rep
			if seen[r.Proc] {
				return fmt.Errorf("simtest: task %d finished two replicas on P%d", t, r.Proc)
			}
			seen[r.Proc] = true
			want := p.Exec[t][r.Proc]
			if math.Abs((o.Finish-o.Start)-want) > sched.Eps {
				return fmt.Errorf("simtest: replica (%d,%d) executed %v, want %v", t, r.Copy, o.Finish-o.Start, want)
			}
			if o.Finish > crashAt(r.Proc)+sched.Eps {
				return fmt.Errorf("simtest: replica (%d,%d) finished at %v on P%d, which crashed at %v", t, r.Copy, o.Finish, r.Proc, crashAt(r.Proc))
			}
			if o.Reactive {
				if o.Start < o.PlacedAt-sched.Eps {
					return fmt.Errorf("simtest: reactive replica (%d,%d) starts at %v before its crash at %v", t, r.Copy, o.Start, o.PlacedAt)
				}
				if crashAt(r.Proc) <= o.PlacedAt {
					return fmt.Errorf("simtest: reactive replica (%d,%d) placed on P%d, already dead at %v", t, r.Copy, r.Proc, o.PlacedAt)
				}
			}
		}
		if completed == lost[dag.TaskID(t)] {
			return fmt.Errorf("simtest: task %d completed=%v but lost=%v", t, completed, lost[dag.TaskID(t)])
		}
	}

	// Replica index for transfer endpoint checks; it keeps dead replicas
	// too, since a transfer to a dead replica must still name its
	// processor.
	type key struct {
		t    dag.TaskID
		copy int
	}
	reps := map[key]sim.RepOutcome{}
	for t := range res.Reps {
		for _, o := range res.Reps[t] {
			reps[key{dag.TaskID(t), o.Rep.Copy}] = o
		}
	}

	// Transfer checks + arrival index per destination replica.
	arrivals := map[key]map[dag.TaskID]float64{}
	for i, o := range res.Comms {
		if !o.Alive {
			continue
		}
		c := o.Comm
		src, ok := reps[key{c.From, c.SrcCopy}]
		if !ok || !src.Alive {
			return fmt.Errorf("simtest: comm %d delivered from unfinished replica (%d,%d)", i, c.From, c.SrcCopy)
		}
		if src.Rep.Proc != c.SrcProc {
			return fmt.Errorf("simtest: comm %d source processor mismatch", i)
		}
		if dst, ok := reps[key{c.To, c.DstCopy}]; !ok {
			return fmt.Errorf("simtest: comm %d delivered to unknown replica (%d,%d)", i, c.To, c.DstCopy)
		} else if dst.Rep.Proc != c.DstProc {
			return fmt.Errorf("simtest: comm %d delivered to P%d, but replica (%d,%d) is on P%d", i, c.DstProc, c.To, c.DstCopy, dst.Rep.Proc)
		}
		if c.Intra != (c.SrcProc == c.DstProc) {
			return fmt.Errorf("simtest: comm %d from P%d to P%d has Intra=%v", i, c.SrcProc, c.DstProc, c.Intra)
		}
		if o.Start < src.Finish-sched.Eps {
			return fmt.Errorf("simtest: comm %d starts at %v before source finish %v", i, o.Start, src.Finish)
		}
		if o.Finish > crashAt(c.SrcProc)+sched.Eps || o.Finish > crashAt(c.DstProc)+sched.Eps {
			return fmt.Errorf("simtest: comm %d finished at %v past an endpoint crash (src P%d @ %v, dst P%d @ %v)",
				i, o.Finish, c.SrcProc, crashAt(c.SrcProc), c.DstProc, crashAt(c.DstProc))
		}
		k := key{c.To, c.DstCopy}
		if arrivals[k] == nil {
			arrivals[k] = map[dag.TaskID]float64{}
		}
		if prev, ok := arrivals[k][c.From]; !ok || o.Finish < prev {
			arrivals[k][c.From] = o.Finish
		}
	}
	for t := range res.Reps {
		for _, o := range res.Reps[t] {
			if !o.Alive {
				continue
			}
			for _, e := range g.Pred(dag.TaskID(t)) {
				arr, ok := arrivals[key{dag.TaskID(t), o.Rep.Copy}][e.From]
				if !ok {
					return fmt.Errorf("simtest: replica (%d,%d) ran without an input from predecessor %d", t, o.Rep.Copy, e.From)
				}
				if arr > o.Start+sched.Eps {
					return fmt.Errorf("simtest: replica (%d,%d) started at %v before its input from %d at %v", t, o.Rep.Copy, o.Start, e.From, arr)
				}
			}
		}
	}

	// Resource exclusivity on executed times.
	m := p.Plat.M
	compute := make([][]timeline.Interval, m)
	for t := range res.Reps {
		for _, o := range res.Reps[t] {
			if o.Alive {
				compute[o.Rep.Proc] = append(compute[o.Rep.Proc], timeline.Interval{Start: o.Start, End: o.Finish, Owner: o.Rep.Seq})
			}
		}
	}
	for proc, ivs := range compute {
		if err := nonOverlap(ivs); err != nil {
			return fmt.Errorf("simtest: compute P%d: %w", proc, err)
		}
	}
	if p.Model == sched.OnePort {
		net := p.Network()
		send := make([][]timeline.Interval, m)
		recv := make([][]timeline.Interval, m)
		link := make([][]timeline.Interval, net.NumLinks())
		for _, o := range res.Comms {
			if !o.Alive || o.Comm.Intra {
				continue
			}
			iv := timeline.Interval{Start: o.Start, End: o.Finish, Owner: o.Comm.Seq}
			send[o.Comm.SrcProc] = append(send[o.Comm.SrcProc], iv)
			recv[o.Comm.DstProc] = append(recv[o.Comm.DstProc], iv)
			for _, l := range net.Route(o.Comm.SrcProc, o.Comm.DstProc) {
				link[l] = append(link[l], iv)
			}
		}
		for proc, ivs := range send {
			if err := nonOverlap(ivs); err != nil {
				return fmt.Errorf("simtest: send port P%d: %w", proc, err)
			}
		}
		for proc, ivs := range recv {
			if err := nonOverlap(ivs); err != nil {
				return fmt.Errorf("simtest: recv port P%d: %w", proc, err)
			}
		}
		for l, ivs := range link {
			if err := nonOverlap(ivs); err != nil {
				return fmt.Errorf("simtest: link %d: %w", l, err)
			}
		}
	}
	return nil
}

func nonOverlap(ivs []timeline.Interval) error {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start < ivs[i-1].End-sched.Eps {
			return fmt.Errorf("executed intervals [%v,%v) and [%v,%v) overlap",
				ivs[i-1].Start, ivs[i-1].End, ivs[i].Start, ivs[i].End)
		}
	}
	return nil
}
