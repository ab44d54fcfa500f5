package sim

import (
	"errors"
	"fmt"

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

// Op is one operation of a schedule's constraint graph: a replica
// execution or a communication, with its static wiring. Per-replay
// state lives with the Replayer.
type Op struct {
	Kind int8
	Rep  sched.Replica // OpRep
	Comm sched.Comm    // OpComm
	Dur  float64
	Seq  int32
	// Floor is the earliest instant the op may start: 0 for the
	// schedule's own ops, the instant of the crash that placed an op
	// appended after the static prefix.
	Floor float64

	Src              int32 // OpComm: op index of the source replica; NoOp otherwise
	ResBase, NRes    int32 // occupied resources: Wiring.ResIDs[ResBase:ResBase+NRes]
	SlotBase, NSlots int32 // OpRep: one input slot per predecessor edge
	FeedBase, NFeeds int32 // OpComm: fed slots, Wiring.Feeds[FeedBase:FeedBase+NFeeds]
}

// procs returns the processors o runs on: its replica's twice, or its
// transfer's sender and receiver.
//
//caft:zeroalloc
func (o *Op) procs() (a, b int) {
	if o.Kind == OpRep {
		return o.Rep.Proc, o.Rep.Proc
	}
	return o.Comm.SrcProc, o.Comm.DstProc
}

// Wiring is the constraint graph of a schedule, which the Replayer
// evaluates: the op table (every replica in Schedule.Reps order, then
// every communication in Schedule.Comms order), the dense (task, copy)
// → op index, one input slot per (replica, predecessor edge), the slots
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
	RepOf   [][]int32 // task -> copy -> replica op index, NoOp when absent
	TaskOps [][]int32 // task -> replica op indices, schedule order first
	Slots   int32     // number of input slots, see Op.SlotBase
	Feeds   []int32   // comm feed adjacency (slot indices), see Op.FeedBase
	ResIDs  []int32   // occupied resources, see Op.ResBase

	lay sched.Layout

	// Static prefix lengths, restored by Truncate.
	nOps0, nFeeds0, nRes0 int
	nSlots0               int32
	repOf0, taskOps0      []int32
}

// NewWiring builds the constraint graph of s over the graph's compiled
// view, numbering resources by lay, which must be the layout of s.P.
// It is the one place that assigns op indices, slot numbers and
// resource IDs from a schedule. A communication naming a replica the
// schedule does not hold is rejected, and so is a constraint pointing
// to a later-placed operation (ErrPlacementOrder).
func NewWiring(s *sched.Schedule, lay sched.Layout) (*Wiring, error) {
	cg, err := s.P.G.Compile()
	if err != nil {
		return nil, err
	}
	w := &Wiring{S: s, CG: cg, lay: lay}
	n := cg.NumTasks()
	nReps := s.ReplicaCount()
	w.Ops = make([]Op, 0, nReps+len(s.Comms))
	w.Feeds = make([]int32, 0, len(s.Comms))
	w.ResIDs = make([]int32, 0, nReps+2*len(s.Comms))
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
		w.RepOf[t], repOf = repOf[:0:c], repOf[c:]
		w.TaskOps[t], taskOps = taskOps[:0:k], taskOps[k:]
	}
	for t := range s.Reps {
		for _, rep := range s.Reps[t] {
			w.AddRep(rep, w.AddSlots(cg.InDegree(dag.TaskID(t))))
		}
	}
	for i, c := range s.Comms {
		src, dst := w.lookup(c.From, c.SrcCopy), w.lookup(c.To, c.DstCopy)
		if src == NoOp {
			return nil, fmt.Errorf("sim: comm %d references missing replica (%d,%d)", i, c.From, c.SrcCopy)
		}
		if dst == NoOp {
			return nil, fmt.Errorf("sim: comm %d references missing replica (%d,%d)", i, c.To, c.DstCopy)
		}
		ci := w.AddComm(c, w.Ops[dst].SlotBase)
		if !w.before(src, ci) || !w.before(ci, dst) {
			return nil, fmt.Errorf("sim: comm %d (seq %d) from replica seq %d to replica seq %d: %w",
				i, c.Seq, w.Ops[src].Seq, w.Ops[dst].Seq, ErrPlacementOrder)
		}
	}

	w.nOps0, w.nSlots0, w.nFeeds0, w.nRes0 = len(w.Ops), w.Slots, len(w.Feeds), len(w.ResIDs)
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

// NumRes is the number of resources the wiring's ops occupy: the size
// of the problem's sched.Layout.
func (w *Wiring) NumRes() int {
	return w.lay.Size()
}

// before reports whether op a precedes op b in placement order: by
// placement sequence, ties broken by op index. The order Replayer
// evaluates the static prefix in.
//
//caft:zeroalloc
func (w *Wiring) before(a, b int32) bool {
	if sa, sb := w.Ops[a].Seq, w.Ops[b].Seq; sa != sb {
		return sa < sb
	}
	return a < b
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
	i := int32(len(w.Ops))
	t := rep.Task
	for len(w.RepOf[t]) <= rep.Copy {
		w.RepOf[t] = append(w.RepOf[t], NoOp)
	}
	w.RepOf[t][rep.Copy] = i
	w.TaskOps[t] = append(w.TaskOps[t], i)
	o := Op{Kind: OpRep, Rep: rep, Dur: rep.Finish - rep.Start, Seq: rep.Seq, Src: NoOp,
		SlotBase: slotBase, NSlots: int32(w.CG.InDegree(t)), ResBase: int32(len(w.ResIDs)), NRes: 1}
	w.Ops = append(w.Ops, o)
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
	i := int32(len(w.Ops))
	o := Op{Kind: OpComm, Comm: c, Dur: c.Dur, Seq: c.Seq, Src: w.lookup(c.From, c.SrcCopy),
		FeedBase: int32(len(w.Feeds)), ResBase: int32(len(w.ResIDs))}
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
	w.Slots = w.nSlots0
	w.Feeds = w.Feeds[:w.nFeeds0]
	w.ResIDs = w.ResIDs[:w.nRes0]
	for t := range w.RepOf {
		w.RepOf[t] = w.RepOf[t][:w.repOf0[t]]
		w.TaskOps[t] = w.TaskOps[t][:w.taskOps0[t]]
	}
}

// Result materializes a replay from each op's fate, as reported by
// fate: Reps indexed like TaskOps, Comms in op order, and TasksLost the
// tasks none of whose replicas is alive.
func (w *Wiring) Result(fate func(i int32) Fate) *Result {
	res := &Result{Reps: make([][]RepOutcome, len(w.TaskOps))}
	nReps := 0
	for t, ops := range w.TaskOps {
		res.Reps[t] = make([]RepOutcome, len(ops))
		lost := true
		for k, i := range ops {
			res.Reps[t][k] = RepOutcome{Rep: w.Ops[i].Rep, Fate: fate(i)}
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
			res.Comms = append(res.Comms, CommOutcome{Comm: w.Ops[i].Comm, Fate: fate(int32(i))})
		}
	}
	return res
}
