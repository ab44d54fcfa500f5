package sim

import (
	"errors"
	"fmt"
	"slices"

	"caft/internal/dag"
	"caft/internal/sched"
)

// ErrPlacementOrder reports a schedule with a constraint that points to
// a later-placed operation: a communication placed before its source
// replica, or a replica placed before a communication feeding it. Every
// schedule built through sched.State satisfies the order (PlaceReplica
// places a replica's input transfers before the replica, and a
// transfer's source replica already exists), and the single
// placement-order pass of Replayer is exact only under it; test with
// errors.Is.
var ErrPlacementOrder = errors.New("constraint points to a later-placed operation")

// NoOp is the op index of an absent operation.
const NoOp = int32(-1)

// Op kinds.
const (
	OpRep = iota
	OpComm
)

// Op is one operation of a schedule's constraint graph, a replica
// execution or a communication, with the static wiring a replay pass
// reads. The sched.Replica or sched.Comm it stands for, its record, is
// Wiring.Rep or Wiring.Comm. Per-replay state lives with the Replayer.
type Op struct {
	Kind int8
	P, Q int32 // processors: the replica's twice, or the sender and receiver
	Rec  int32 // record index: Wiring.Reps (OpRep) or Wiring.Comms (OpComm)
	Dur  float64
	// Floor is the earliest instant the op may start: 0 for the
	// schedule's own ops, the instant of the crash that placed an op
	// appended after the static prefix.
	Floor float64

	Src              int32 // OpComm: op index of the source replica; NoOp otherwise
	ResBase, NRes    int32 // occupied resources: Wiring.ResIDs[ResBase:ResBase+NRes]
	SlotBase, NSlots int32 // OpRep: one input slot per predecessor edge
	FeedBase, NFeeds int32 // OpComm: fed slots, Wiring.Feeds[FeedBase:FeedBase+NFeeds]
}

// Wiring is the constraint graph of a schedule, which the Replayer
// evaluates front to back: the op table in placement order (see
// NewWiring), the records the ops stand for, the dense (task, copy) →
// op index, one input slot per (replica, predecessor edge), the slots
// each communication feeds (a comm from predecessor p feeds every slot
// whose edge originates at p, so parallel edges share their input
// group), and the resources each op occupies, numbered by the problem's
// sched.Layout.
//
// The tables built from the schedule form a static prefix. online.Engine
// appends reactive placements after it (AddSlots, AddComm, AddRep, each
// with its Op.Floor) and restores it with Truncate before every replay.
//
//caft:confined
type Wiring struct {
	S  *sched.Schedule
	CG *dag.Compiled

	Ops     []Op
	Reps    []sched.Replica // replica records: Schedule.Reps flattened, then reactive ones
	Comms   []sched.Comm    // transfer records: Schedule.Comms, then reactive ones
	RepOf   [][]int32       // task -> copy -> replica op index, NoOp when absent
	TaskOps [][]int32       // task -> replica op indices, in placement order
	Slots   int32           // number of input slots, see Op.SlotBase
	Feeds   []int32         // comm feed adjacency (slot indices), see Op.FeedBase
	ResIDs  []int32         // occupied resources, see Op.ResBase

	lay sched.Layout

	// Static prefix lengths, restored by Truncate.
	nOps0, nReps0, nComms0, nFeeds0, nRes0 int
	nSlots0                                int32
	repOf0, taskOps0                       []int32
}

// NewWiring builds the constraint graph of s over the graph's compiled
// view, numbering resources by lay, which must be the layout of s.P.
// It is the one place that assigns op indices, slot numbers and
// resource IDs from a schedule: ops in placement order (by Seq, ties by
// schedule position, replicas before communications), input slots in
// schedule order. A replica listed twice and a communication naming a
// replica the schedule does not hold are rejected, and so is a
// constraint pointing to a later-placed operation (ErrPlacementOrder).
func NewWiring(s *sched.Schedule, lay sched.Layout) (*Wiring, error) {
	cg, err := s.P.G.Compile()
	if err != nil {
		return nil, err
	}
	n, nReps, nComms := cg.NumTasks(), s.ReplicaCount(), len(s.Comms)
	// Comms is capped at its length, so the first reactive append copies
	// it instead of writing into the schedule.
	w := &Wiring{S: s, CG: cg, lay: lay, Comms: s.Comms[:nComms:nComms]}
	w.Ops = make([]Op, 0, nReps+nComms)
	w.Feeds = make([]int32, 0, nComms)
	w.ResIDs = make([]int32, 0, nReps+2*nComms)
	// RepOf and TaskOps are windows over two flat arrays, each capped at
	// its task's own length plus one spare entry for a reactive replica,
	// so a task's further reactive replicas grow only its slice (once:
	// Truncate keeps the capacity).
	nCopies := 0
	for t := range s.Reps {
		nCopies += copies(s.Reps[t]) + 1
	}
	repOf, taskOps := make([]int32, nCopies), make([]int32, nReps+len(s.Reps))
	w.RepOf = make([][]int32, n)
	w.TaskOps = make([][]int32, n)
	for t := range s.Reps {
		c, k := copies(s.Reps[t])+1, len(s.Reps[t])+1
		w.RepOf[t], repOf = repOf[:c-1:c], repOf[c:]
		w.TaskOps[t], taskOps = taskOps[:0:k], taskOps[k:]
		for i := range w.RepOf[t] {
			w.RepOf[t][i] = NoOp
		}
	}

	// Each record's placement key, (Seq, schedule position), and each
	// replica's input slots, in schedule order. Until a replica is added
	// its RepOf entry holds -2 minus its first slot: below NoOp, so
	// lookup tells a replica placed later from a missing one.
	w.Reps = make([]sched.Replica, 0, nReps)
	for t := range s.Reps {
		w.Reps = append(w.Reps, s.Reps[t]...)
	}
	keys := make([]int64, 0, nReps+nComms)
	for i, rep := range w.Reps {
		if w.RepOf[rep.Task][rep.Copy] != NoOp {
			return nil, fmt.Errorf("sim: replica (%d,%d) listed twice", rep.Task, rep.Copy)
		}
		w.RepOf[rep.Task][rep.Copy] = -2 - w.AddSlots(cg.InDegree(rep.Task))
		keys = append(keys, int64(rep.Seq)<<32|int64(i))
	}
	for i, c := range s.Comms {
		keys = append(keys, int64(c.Seq)<<32|int64(nReps+i))
	}
	slices.Sort(keys)
	for _, key := range keys {
		k := int32(key) // the low half is the schedule position
		if int(k) < nReps {
			rep := &w.Reps[k]
			w.addRep(k, -2-w.RepOf[rep.Task][rep.Copy])
			continue
		}
		k -= int32(nReps)
		c := &w.Comms[k]
		src, dst := w.lookup(c.From, c.SrcCopy), w.lookup(c.To, c.DstCopy)
		if src == NoOp || dst == NoOp {
			return nil, fmt.Errorf("sim: comm %d references a missing replica (%d,%d) -> (%d,%d)", k, c.From, c.SrcCopy, c.To, c.DstCopy)
		}
		if src < NoOp || dst > NoOp {
			return nil, fmt.Errorf("sim: comm %d (seq %d) not placed between replicas (%d,%d) and (%d,%d): %w",
				k, c.Seq, c.From, c.SrcCopy, c.To, c.DstCopy, ErrPlacementOrder)
		}
		w.addComm(k, -2-dst)
	}

	w.nOps0, w.nReps0, w.nComms0 = len(w.Ops), len(w.Reps), len(w.Comms)
	w.nSlots0, w.nFeeds0, w.nRes0 = w.Slots, len(w.Feeds), len(w.ResIDs)
	lens := make([]int32, 2*n)
	w.repOf0, w.taskOps0 = lens[:n], lens[n:]
	for t := range w.RepOf {
		w.repOf0[t] = int32(len(w.RepOf[t]))
		w.taskOps0[t] = int32(len(w.TaskOps[t]))
	}
	return w, nil
}

// copies returns the length of a task's copy index: its largest copy
// number plus one.
func copies(reps []sched.Replica) int {
	c := 0
	for _, r := range reps {
		if r.Copy >= c {
			c = r.Copy + 1
		}
	}
	return c
}

// Rep returns the record of replica op i.
//
//caft:zeroalloc
func (w *Wiring) Rep(i int32) sched.Replica {
	return w.Reps[w.Ops[i].Rec]
}

// Comm returns the record of communication op i.
//
//caft:zeroalloc
func (w *Wiring) Comm(i int32) sched.Comm {
	return w.Comms[w.Ops[i].Rec]
}

// NumRes is the number of resources the wiring's ops occupy: the size
// of the problem's sched.Layout.
func (w *Wiring) NumRes() int {
	return w.lay.Size()
}

// lookup returns the op index of replica (t, copy), or NoOp.
//
//caft:zeroalloc
func (w *Wiring) lookup(t dag.TaskID, copy int) int32 {
	if copy < 0 || copy >= len(w.RepOf[t]) {
		return NoOp
	}
	return w.RepOf[t][copy]
}

// AddSlots appends the n input slots of a replica and returns the
// first slot's index.
//
//caft:zeroalloc
func (w *Wiring) AddSlots(n int) int32 {
	base := w.Slots
	w.Slots += int32(n)
	return base
}

// AddRep appends replica rep, whose predecessor slots start at
// slotBase, occupying its processor's compute timeline, and returns
// its op index.
//
//caft:zeroalloc
func (w *Wiring) AddRep(rep sched.Replica, slotBase int32) int32 {
	w.Reps = append(w.Reps, rep)
	return w.addRep(int32(len(w.Reps)-1), slotBase)
}

// addRep appends the op of replica record rec (see AddRep).
//
//caft:zeroalloc
func (w *Wiring) addRep(rec, slotBase int32) int32 {
	i := int32(len(w.Ops))
	rep := &w.Reps[rec]
	t := rep.Task
	for len(w.RepOf[t]) <= rep.Copy {
		w.RepOf[t] = append(w.RepOf[t], NoOp)
	}
	w.RepOf[t][rep.Copy] = i
	w.TaskOps[t] = append(w.TaskOps[t], i)
	p := int32(rep.Proc)
	w.Ops = append(w.Ops, Op{Kind: OpRep, P: p, Q: p, Rec: rec, Dur: rep.Finish - rep.Start, Src: NoOp,
		SlotBase: slotBase, NSlots: int32(w.CG.InDegree(t)), ResBase: int32(len(w.ResIDs)), NRes: 1})
	w.ResIDs = append(w.ResIDs, w.lay.Compute(rep.Proc))
	return i
}

// AddComm appends communication c, whose destination replica's slots
// start at dstSlots, and returns its op index. It occupies the
// resources of sched.Layout.AppendComm: none for an intra-processor
// transfer or under the macro-dataflow model, and otherwise the
// sender's send port, the receiver's receive port and the route's
// shared links.
//
//caft:zeroalloc
func (w *Wiring) AddComm(c sched.Comm, dstSlots int32) int32 {
	w.Comms = append(w.Comms, c)
	return w.addComm(int32(len(w.Comms)-1), dstSlots)
}

// addComm appends the op of communication record rec (see AddComm).
//
//caft:zeroalloc
func (w *Wiring) addComm(rec, dstSlots int32) int32 {
	i := int32(len(w.Ops))
	c := &w.Comms[rec]
	o := Op{Kind: OpComm, P: int32(c.SrcProc), Q: int32(c.DstProc), Rec: rec, Dur: c.Dur,
		Src: w.lookup(c.From, c.SrcCopy), FeedBase: int32(len(w.Feeds)), ResBase: int32(len(w.ResIDs))}
	from, _ := w.CG.Pred(c.To)
	for j, f := range from {
		if dag.TaskID(f) == c.From {
			w.Feeds = append(w.Feeds, dstSlots+int32(j))
		}
	}
	o.NFeeds = int32(len(w.Feeds)) - o.FeedBase
	w.ResIDs = w.lay.AppendComm(w.ResIDs, c.SrcProc, c.DstProc)
	o.NRes = int32(len(w.ResIDs)) - o.ResBase
	w.Ops = append(w.Ops, o)
	return i
}

// Truncate drops every appended operation, restoring the tables built
// from the schedule. It allocates nothing.
//
//caft:zeroalloc
func (w *Wiring) Truncate() {
	w.Ops = w.Ops[:w.nOps0]
	w.Reps = w.Reps[:w.nReps0]
	w.Comms = w.Comms[:w.nComms0]
	w.Slots = w.nSlots0
	w.Feeds = w.Feeds[:w.nFeeds0]
	w.ResIDs = w.ResIDs[:w.nRes0]
	for t := range w.RepOf {
		w.RepOf[t] = w.RepOf[t][:w.repOf0[t]]
		w.TaskOps[t] = w.TaskOps[t][:w.taskOps0[t]]
	}
}

// Result materializes a replay from each op's fate, as reported by
// fate: each task's replicas in TaskOps order, the transfers in op
// order (both placement order), and TasksLost the tasks none of whose
// replicas is alive.
func (w *Wiring) Result(fate func(i int32) Fate) *Result {
	res := &Result{Reps: make([][]RepOutcome, len(w.TaskOps))}
	nReps := 0
	for t, ops := range w.TaskOps {
		res.Reps[t] = make([]RepOutcome, len(ops))
		lost := true
		for k, i := range ops {
			res.Reps[t][k] = RepOutcome{Rep: w.Rep(i), Fate: fate(i)}
			lost = lost && !res.Reps[t][k].Alive
		}
		if lost {
			res.TasksLost = append(res.TasksLost, dag.TaskID(t))
		}
		nReps += len(ops)
	}
	res.Comms = make([]CommOutcome, 0, len(w.Ops)-nReps)
	for i := range w.Ops {
		if w.Ops[i].Kind == OpComm {
			res.Comms = append(res.Comms, CommOutcome{Comm: w.Comm(int32(i)), Fate: fate(int32(i))})
		}
	}
	return res
}
