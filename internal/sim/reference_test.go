package sim

// This file preserves the original map-based replay engine verbatim as a
// test-only reference implementation. The production engine (replayer.go)
// replays on dense slice-indexed tables with reusable scratch buffers;
// TestReplayerMatchesReference asserts the two produce bit-identical
// results on the same schedules and crash sets.

import (
	"fmt"
	"math"
	"sort"

	"caft/internal/dag"
	"caft/internal/sched"
)

type refOp struct {
	kind   int
	rep    sched.Replica
	comm   sched.Comm
	alive  bool
	dur    float64
	start  float64
	finish float64
	// sortable identity
	schedStart float64
	seq        int32
}

// refReplay is the original Replay: one liveness+timing pass over
// map-indexed operations, rebuilding every index per call. last selects
// last-arrival inputs (a replica waits for every surviving message of
// every predecessor) instead of first-arrival ones.
func refReplay(s *sched.Schedule, crashed map[int]bool, last bool) (*Result, error) {
	isCrashed := func(p int) bool { return crashed != nil && crashed[p] }
	g := s.P.G
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	// --- Build operations. ---
	ops := make([]refOp, 0, s.ReplicaCount()+len(s.Comms))
	repIdx := map[[2]int]int{} // (task, copy) -> op index
	for t := range s.Reps {
		for _, r := range s.Reps[t] {
			repIdx[[2]int{int(r.Task), r.Copy}] = len(ops)
			ops = append(ops, refOp{kind: OpRep, rep: r, dur: r.Finish - r.Start, schedStart: r.Start, seq: r.Seq})
		}
	}
	commAt := make([]int, len(s.Comms))
	for i, c := range s.Comms {
		commAt[i] = len(ops)
		ops = append(ops, refOp{kind: OpComm, comm: c, dur: c.Dur, schedStart: c.Start, seq: c.Seq})
	}

	// --- Phase 1: liveness, in topological task order. ---
	inputsOf := map[[2]int]map[dag.TaskID][]int{}
	for i, c := range s.Comms {
		k := [2]int{int(c.To), c.DstCopy}
		if inputsOf[k] == nil {
			inputsOf[k] = map[dag.TaskID][]int{}
		}
		inputsOf[k][c.From] = append(inputsOf[k][c.From], commAt[i])
	}
	for _, t := range order {
		for _, r := range s.Reps[t] {
			ri := repIdx[[2]int{int(t), r.Copy}]
			alive := !isCrashed(r.Proc)
			if alive {
				for _, e := range g.Pred(t) {
					ok := false
					for _, ci := range inputsOf[[2]int{int(t), r.Copy}][e.From] {
						c := &ops[ci].comm
						si, exists := repIdx[[2]int{int(c.From), c.SrcCopy}]
						if exists && ops[si].alive && !isCrashed(c.DstProc) {
							ok = true
							break
						}
					}
					if !ok {
						alive = false
						break
					}
				}
			}
			ops[ri].alive = alive
		}
	}
	for i, c := range s.Comms {
		si, exists := repIdx[[2]int{int(c.From), c.SrcCopy}]
		ops[commAt[i]].alive = exists && ops[si].alive && !isCrashed(c.DstProc)
	}

	// --- Build per-resource sequences of surviving ops. ---
	m := s.P.Plat.M
	net := s.P.Network()
	compute := make([][]int, m)
	send := make([][]int, m)
	recv := make([][]int, m)
	link := make([][]int, net.NumLinks())
	for i := range ops {
		o := &ops[i]
		if !o.alive {
			continue
		}
		switch o.kind {
		case OpRep:
			compute[o.rep.Proc] = append(compute[o.rep.Proc], i)
		case OpComm:
			if o.comm.Intra || s.P.Model == sched.MacroDataflow {
				continue
			}
			send[o.comm.SrcProc] = append(send[o.comm.SrcProc], i)
			recv[o.comm.DstProc] = append(recv[o.comm.DstProc], i)
			for _, l := range net.Route(o.comm.SrcProc, o.comm.DstProc) {
				link[l] = append(link[l], i)
			}
		}
	}
	bySched := func(seq []int) {
		sort.Slice(seq, func(a, b int) bool {
			return ops[seq[a]].seq < ops[seq[b]].seq
		})
	}
	prev := make([][]int, len(ops))
	chain := func(seq []int) {
		bySched(seq)
		for i := 1; i < len(seq); i++ {
			prev[seq[i]] = append(prev[seq[i]], seq[i-1])
		}
	}
	for _, seqs := range [][][]int{compute, send, recv, link} {
		for _, seq := range seqs {
			chain(seq)
		}
	}

	// --- Phase 2: least-fixpoint timing over surviving ops. ---
	sweep := make([]int, 0, len(ops))
	for i := range ops {
		if ops[i].alive {
			sweep = append(sweep, i)
		}
	}
	bySched(sweep)
	sweeps := 0
	for {
		sweeps++
		if sweeps > len(ops)+5 {
			return nil, fmt.Errorf("sim: timing fixpoint did not converge after %d sweeps", sweeps)
		}
		changed := false
		for _, i := range sweep {
			o := &ops[i]
			st := 0.0
			for _, pi := range prev[i] {
				if ops[pi].finish > st {
					st = ops[pi].finish
				}
			}
			switch o.kind {
			case OpComm:
				si := repIdx[[2]int{int(o.comm.From), o.comm.SrcCopy}]
				if ops[si].finish > st {
					st = ops[si].finish
				}
			case OpRep:
				ins := inputsOf[[2]int{int(o.rep.Task), o.rep.Copy}]
				for _, e := range g.Pred(o.rep.Task) {
					agg := math.Inf(1)
					if last {
						agg = 0
					}
					for _, ci := range ins[e.From] {
						if !ops[ci].alive {
							continue
						}
						f := ops[ci].finish
						if !last {
							if f < agg {
								agg = f
							}
						} else if f > agg {
							agg = f
						}
					}
					if math.IsInf(agg, 1) {
						agg = 0 // unreachable: liveness guaranteed an input
					}
					if agg > st {
						st = agg
					}
				}
			}
			if st > o.start {
				o.start = st
				o.finish = st + o.dur
				changed = true
			} else if o.finish != o.start+o.dur {
				o.finish = o.start + o.dur
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// --- Collect results. ---
	res := &Result{Reps: make([][]RepOutcome, len(s.Reps))}
	for i := range s.Comms {
		o := ops[commAt[i]]
		res.Comms = append(res.Comms, CommOutcome{Comm: o.comm, Fate: Fate{Alive: o.alive, Start: o.start, Finish: o.finish}})
	}
	for t := range s.Reps {
		anyAlive := false
		for _, r := range s.Reps[t] {
			i := repIdx[[2]int{int(t), r.Copy}]
			o := ops[i]
			out := RepOutcome{Rep: r, Fate: Fate{Alive: o.alive, Start: o.start, Finish: o.finish}}
			if o.alive {
				anyAlive = true
			}
			res.Reps[t] = append(res.Reps[t], out)
		}
		if !anyAlive {
			res.TasksLost = append(res.TasksLost, dag.TaskID(t))
		}
	}
	return res, nil
}
