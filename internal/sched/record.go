package sched

import (
	"fmt"
	"math"
	"sort"

	"caft/internal/dag"
	"caft/internal/timeline"
)

// Replica is one scheduled copy of a task. Copy indexes the ε+1 replicas
// of the task (0-based). Start/Finish are the times the scheduler
// committed to; the runtime replay in package sim may move them when
// processors crash.
type Replica struct {
	Task   dag.TaskID
	Copy   int
	Proc   int
	Start  float64
	Finish float64
	Seq    int32
}

// Comm is a scheduled data transfer along a precedence edge From->To,
// from replica (From, SrcCopy) on SrcProc to replica (To, DstCopy) on
// DstProc. Intra communications (co-located replicas) have zero duration
// and occupy no resources. Start/Finish cover the occupation of the send
// port, the link(s) and the receive port (unified interval model, see
// DESIGN.md S1).
type Comm struct {
	From, To         dag.TaskID
	SrcCopy, DstCopy int
	SrcProc, DstProc int
	Volume           float64
	Dur              float64
	Start, Finish    float64
	Intra            bool
	Seq              int32
}

// Schedule is the immutable result of a scheduling algorithm: the placed
// replicas of every task and every scheduled communication.
type Schedule struct {
	P     *Problem
	Reps  [][]Replica // indexed by task
	Comms []Comm
}

// Eps is the comparison tolerance for floating-point schedule times.
const Eps = 1e-6

// ScheduledLatency returns the latency the scheduler committed to with
// zero crashes: the latest time at which at least one replica of each
// task has been computed (paper §4.2) — max over tasks of the minimum
// replica finish time.
func (s *Schedule) ScheduledLatency() float64 {
	lat := 0.0
	for t := range s.Reps {
		if len(s.Reps[t]) == 0 {
			return math.Inf(1)
		}
		min := math.Inf(1)
		for _, r := range s.Reps[t] {
			if r.Finish < min {
				min = r.Finish
			}
		}
		if min > lat {
			lat = min
		}
	}
	return lat
}

// MakespanAll returns the completion time of the very last replica.
func (s *Schedule) MakespanAll() float64 {
	m := 0.0
	for t := range s.Reps {
		for _, r := range s.Reps[t] {
			if r.Finish > m {
				m = r.Finish
			}
		}
	}
	return m
}

// MessageCount returns the number of inter-processor messages in the
// schedule (intra-processor transfers are free and not counted). This is
// the quantity bounded by e(ε+1) for CAFT on outforests (Prop. 5.1) and
// by e(ε+1)² for FTSA/FTBAR.
func (s *Schedule) MessageCount() int {
	n := 0
	for _, c := range s.Comms {
		if !c.Intra {
			n++
		}
	}
	return n
}

// ReplicaCount returns the total number of placed replicas.
func (s *Schedule) ReplicaCount() int {
	n := 0
	for t := range s.Reps {
		n += len(s.Reps[t])
	}
	return n
}

// Validate checks that the schedule is well formed and obeys the
// communication model:
//
//   - every task has at least one replica; replicas of a task occupy
//     pairwise distinct processors (space exclusion);
//   - replica durations match E(t,P);
//   - every communication starts at or after its source replica's finish
//     and matches the placement of its endpoint replicas;
//   - every replica has, for each predecessor, at least one input
//     (communication or intra transfer) arriving by its start time;
//   - task executions do not overlap per processor and, under the
//     one-port model, the send-port, receive-port and link occupations
//     of all communications are pairwise non-overlapping (constraints
//     (1), (2), (3) of the paper).
func (s *Schedule) Validate() error {
	return NewValidator().Validate(s)
}

// Validator checks schedules against the model of Schedule.Validate on
// dense scratch keyed by the graph's compiled view: per-replica input
// arrivals live in a flat slice indexed by (replica cell, predecessor
// slot) instead of nested maps, replica lookup is an offset table, and
// resource-exclusion intervals are bucketed CSR-style per resource of
// the problem's Layout, the numbering State and sim.Wiring use (a
// port-implied link's intervals are a subset of its port's; see
// DESIGN.md S1). Every table grows to the largest schedule seen and is
// reused, and the Layout is kept for the last Problem seen (which must
// not change in between), so a long-lived Validator validates a stream
// of same-shaped schedules without allocating after warm-up. It is not
// safe for concurrent use.
//
//caft:confined
type Validator struct {
	repOff  []int32   // task -> first (task,copy) cell; len n+1
	repPtr  []int32   // (task,copy) cell -> index into Reps[t], or -1
	arrOff  []int32   // task -> first arrival cell; len n+1
	arrival []float64 // earliest input arrival per (replica cell, pred slot)
	hasArr  []bool
	seen    []bool // per-processor bitset (replica space exclusion)
	lay     Layout
	layOf   *Problem // the problem lay was derived from
	ids     []int32  // Layout.AppendComm scratch
	ivOff   []int32  // resource -> first interval; len lay.Size()+1
	ivNext  []int32  // resource -> count, then fill cursor
	ivs     []timeline.Interval
	sorter  intervalsByStart
}

// NewValidator returns an empty Validator; tables are sized lazily by
// the first Validate call.
func NewValidator() *Validator { return &Validator{} }

// Validate runs the checks documented on Schedule.Validate. Rejection
// paths allocate (error construction); accepting a well-formed schedule
// allocates nothing once the scratch has warmed up.
//
//caft:zeroalloc
func (v *Validator) Validate(s *Schedule) error {
	p := s.P
	cg, err := p.G.Compile() //caft:alloc-ok the compiled view is cached on the DAG after the first call
	if err != nil {
		return err
	}
	n := cg.NumTasks()
	if len(s.Reps) != n {
		return fmt.Errorf("schedule: %d tasks recorded, want %d", len(s.Reps), n) //caft:alloc-ok rejection path; the accept path allocates nothing
	}
	m := p.Plat.M
	v.seen = grow(v.seen, m)
	for i := range v.seen {
		v.seen[i] = false
	}
	for t := range s.Reps {
		if len(s.Reps[t]) == 0 {
			return fmt.Errorf("schedule: task %d has no replica", t) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		for _, r := range s.Reps[t] {
			if r.Task != dag.TaskID(t) {
				return fmt.Errorf("schedule: replica of task %d filed under %d", r.Task, t) //caft:alloc-ok rejection path; the accept path allocates nothing
			}
			if r.Proc < 0 || r.Proc >= m {
				return fmt.Errorf("schedule: replica (%d,%d) on P%d, outside P0..P%d", t, r.Copy, r.Proc, m-1) //caft:alloc-ok rejection path; the accept path allocates nothing
			}
			if v.seen[r.Proc] {
				return fmt.Errorf("schedule: task %d has two replicas on P%d", t, r.Proc) //caft:alloc-ok rejection path; the accept path allocates nothing
			}
			v.seen[r.Proc] = true
			want := p.Exec[t][r.Proc]
			if math.Abs((r.Finish-r.Start)-want) > Eps {
				return fmt.Errorf("schedule: replica (%d,%d) duration %v, want %v", t, r.Copy, r.Finish-r.Start, want) //caft:alloc-ok rejection path; the accept path allocates nothing
			}
		}
		for _, r := range s.Reps[t] {
			v.seen[r.Proc] = false
		}
	}
	// Replica cells: one slot per (task, copy) up to each task's largest
	// copy index, with parallel arrival cells per predecessor slot.
	v.repOff = grow(v.repOff, n+1)
	v.arrOff = grow(v.arrOff, n+1)
	v.repOff[0], v.arrOff[0] = 0, 0
	for t := range s.Reps {
		maxCopy := -1
		for _, r := range s.Reps[t] {
			if r.Copy > maxCopy {
				maxCopy = r.Copy
			}
		}
		v.repOff[t+1] = v.repOff[t] + int32(maxCopy+1)
		v.arrOff[t+1] = v.arrOff[t] + int32((maxCopy+1)*cg.InDegree(dag.TaskID(t)))
	}
	nCells := int(v.repOff[n])
	v.repPtr = grow(v.repPtr, nCells)
	for i := 0; i < nCells; i++ {
		v.repPtr[i] = -1
	}
	for t := range s.Reps {
		for i, r := range s.Reps[t] {
			if cell := int(v.repOff[t]) + r.Copy; r.Copy >= 0 && v.repPtr[cell] < 0 {
				v.repPtr[cell] = int32(i) // the first replica recorded as (t, copy) wins
			}
		}
	}
	nArr := int(v.arrOff[n])
	v.arrival = grow(v.arrival, nArr)
	v.hasArr = grow(v.hasArr, nArr)
	for i := 0; i < nArr; i++ {
		v.hasArr[i] = false
	}
	// Fold each communication into its destination's arrival cells. A
	// predecessor with parallel edges owns several slots; all of them
	// receive the earliest arrival from that predecessor, matching the
	// per-predecessor (not per-edge) keying of the input rule.
	for i := range s.Comms {
		c := &s.Comms[i]
		src := v.replica(s, c.From, c.SrcCopy)
		dst := v.replica(s, c.To, c.DstCopy)
		if src == nil || dst == nil {
			return fmt.Errorf("schedule: comm %d references missing replica", i) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		if src.Proc != c.SrcProc || dst.Proc != c.DstProc {
			return fmt.Errorf("schedule: comm %d processor mismatch", i) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		if c.Intra {
			if c.SrcProc != c.DstProc {
				return fmt.Errorf("schedule: intra comm %d crosses processors", i) //caft:alloc-ok rejection path; the accept path allocates nothing
			}
		} else if c.SrcProc == c.DstProc {
			return fmt.Errorf("schedule: inter comm %d within P%d", i, c.SrcProc) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		if c.Start < src.Finish-Eps {
			return fmt.Errorf("schedule: comm %d starts %v before source finish %v", i, c.Start, src.Finish) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		from, _ := cg.Pred(c.To)
		base := int(v.arrOff[c.To]) + c.DstCopy*len(from)
		for j, f := range from {
			if dag.TaskID(f) != c.From {
				continue
			}
			cell := base + j
			if !v.hasArr[cell] || c.Finish < v.arrival[cell] {
				v.hasArr[cell] = true
				v.arrival[cell] = c.Finish
			}
		}
	}
	// Every replica must have one input per predecessor by its start.
	for t := range s.Reps {
		from, _ := cg.Pred(dag.TaskID(t))
		if len(from) == 0 {
			continue
		}
		for _, r := range s.Reps[t] {
			base := -1
			if r.Copy >= 0 {
				base = int(v.arrOff[t]) + r.Copy*len(from)
			}
			for j, f := range from {
				if base < 0 || !v.hasArr[base+j] {
					return fmt.Errorf("schedule: replica (%d,%d) has no input for predecessor %d", t, r.Copy, f) //caft:alloc-ok rejection path; the accept path allocates nothing
				}
				if arr := v.arrival[base+j]; arr > r.Start+Eps {
					return fmt.Errorf("schedule: replica (%d,%d) starts %v before input from %d at %v", t, r.Copy, r.Start, f, arr) //caft:alloc-ok rejection path; the accept path allocates nothing
				}
			}
		}
	}
	// Resource exclusion: count, fill and check one interval bucket per
	// Layout resource, in resource-ID order.
	if v.layOf != p {
		v.lay, v.layOf = NewLayout(p), p //caft:alloc-ok a sparse network's link table, built once per problem
	}
	nRes := v.lay.Size()
	v.ivOff = grow(v.ivOff, nRes+1)
	v.ivNext = grow(v.ivNext, nRes)
	clear(v.ivNext)
	v.occupy(s, false)
	for r := 0; r < nRes; r++ {
		v.ivOff[r+1] = v.ivOff[r] + v.ivNext[r]
		v.ivNext[r] = v.ivOff[r]
	}
	v.ivs = grow(v.ivs, int(v.ivOff[nRes]))
	v.occupy(s, true)
	for r := 0; r < nRes; r++ {
		if err := v.nonOverlap(v.ivs[v.ivOff[r]:v.ivOff[r+1]]); err != nil {
			return fmt.Errorf("schedule: %s: %w", v.lay.Name(int32(r)), err) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
	}
	return nil
}

// occupy walks every resource occupation of s: each replica on its
// compute resource, each transfer on the resources Layout.AppendComm
// lists. It counts them per resource in ivNext, or, with fill set,
// files the intervals at the ivNext cursors.
//
//caft:zeroalloc
func (v *Validator) occupy(s *Schedule, fill bool) {
	for t := range s.Reps {
		for _, r := range s.Reps[t] {
			v.hold(v.lay.Compute(r.Proc), timeline.Interval{Start: r.Start, End: r.Finish, Owner: r.Seq}, fill)
		}
	}
	for i := range s.Comms {
		c := &s.Comms[i]
		iv := timeline.Interval{Start: c.Start, End: c.Finish, Owner: c.Seq}
		v.ids = v.lay.AppendComm(v.ids[:0], c.SrcProc, c.DstProc)
		for _, id := range v.ids {
			v.hold(id, iv, fill)
		}
	}
}

// hold counts or files one occupation of resource id (see occupy).
//
//caft:zeroalloc
func (v *Validator) hold(id int32, iv timeline.Interval, fill bool) {
	if fill {
		v.ivs[v.ivNext[id]] = iv
	}
	v.ivNext[id]++
}

// replica returns the first replica recorded as (t, copy), or nil, by
// the offset table Validate fills.
//
//caft:zeroalloc
func (v *Validator) replica(s *Schedule, t dag.TaskID, copy int) *Replica {
	if t < 0 || int(t) >= len(s.Reps) || copy < 0 || int32(copy) >= v.repOff[t+1]-v.repOff[t] {
		return nil
	}
	i := v.repPtr[int(v.repOff[t])+copy]
	if i < 0 {
		return nil
	}
	return &s.Reps[t][i]
}

// nonOverlap sorts one resource bucket by start time in place and
// reports the first adjacent overlap.
//
//caft:zeroalloc
func (v *Validator) nonOverlap(ivs []timeline.Interval) error {
	v.sorter.ivs = ivs
	sort.Sort(&v.sorter) //caft:alloc-ok pointer sorter; sort.Sort itself does not allocate
	v.sorter.ivs = nil
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start < ivs[i-1].End-Eps {
			return fmt.Errorf("intervals [%v,%v) and [%v,%v) overlap", //caft:alloc-ok rejection path; the accept path allocates nothing
				ivs[i-1].Start, ivs[i-1].End, ivs[i].Start, ivs[i].End)
		}
	}
	return nil
}

// intervalsByStart sorts a bucket by interval start; a pointer receiver
// keeps sort.Sort allocation-free.
type intervalsByStart struct{ ivs []timeline.Interval }

func (s *intervalsByStart) Len() int           { return len(s.ivs) }
func (s *intervalsByStart) Less(i, j int) bool { return s.ivs[i].Start < s.ivs[j].Start }
func (s *intervalsByStart) Swap(i, j int)      { s.ivs[i], s.ivs[j] = s.ivs[j], s.ivs[i] }

// grow returns a slice of the requested length, reusing the given
// backing array when it is large enough.
//
//caft:zeroalloc
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n) //caft:alloc-ok scratch warm-up; reused afterwards
}
