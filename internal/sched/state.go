package sched

import (
	"fmt"
	"math"

	"caft/internal/dag"
	"caft/internal/timeline"
)

// State is the mutable resource state a scheduler builds a schedule in:
// per-processor compute, send-port and receive-port timelines plus one
// timeline per shared network link. Schedulers simulate candidate
// placements with ProbeReplica and commit the best one with
// PlaceReplica.
//
// Timelines are stored in one flat slice indexed by the problem's
// Layout: [0,m) compute, [m,2m) send ports, [2m,3m) receive ports,
// [3m,3m+S) the S shared links. Every other link, each clique link
// among them, is port-implied and gets no timeline.
//
// Probes are transactional: ProbeReplica (and the multi-step Speculate)
// run the real placement code on the real state while a journal records
// every timeline reservation, replica/communication record and sequence
// number, and the journal is rolled back before returning — no state is
// cloned. Under the Append policy single-shot probes take an even
// cheaper special case: a timeline's whole state under Append is its
// ready time, so the probe runs on a flat overlay of 3m+S ready times.
// Tests check every probe against PlaceReplica on a copy of the state
// rebuilt from its snapshot with StateOf.
//
//caft:confined
type State struct {
	P     *Problem
	lay   Layout
	tls   []timeline.Timeline
	Reps  [][]Replica
	Comms []Comm
	seq   int32

	// Append-policy probe overlay: earliest/reserve consult ready[id]
	// instead of the (shared, untouched) timelines, and placements are
	// not recorded in Reps/Comms.
	overlay bool
	ready   []float64

	// Speculation journal (see Speculate): while spec > 0, reserve and
	// the Cancel* methods log every timeline mutation into tlog and
	// every Reps mutation into rlog; rollback undoes both in reverse
	// and truncates Comms. Each log replays its own mutations in exact
	// reverse order, which keeps interleaved additions and removals of
	// the same task's replicas (a reactive replica placed at one crash
	// and cancelled at a later one) consistent.
	spec int
	tlog []tlUndo
	rlog []repUndo

	// floor is the online-rescheduling time floor: while positive, no
	// new reservation may start before it (see SetFloor).
	floor float64

	// Reusable scratch, never shared between states. probeScratch is the
	// lazily built overlay state reused by Append-policy probes.
	probeScratch *State
	arrival      []float64
	pending      []pendingComm
	commIDs      []int32
	slotCur      []timeline.Cursor

	// Bounded-probe scratch (see Candidates): the lazily built OFT
	// table ranking processors per task, the candidate id/score pair
	// under construction, and the frozen all-processors list returned
	// when probing is unbounded.
	oft      [][]float64
	cands    []int
	candSc   []float64
	allProcs []int
}

// tlUndo is one journaled timeline mutation: a reservation to UndoAdd,
// or (removed) a cancelled reservation to re-Add. Re-adding restores
// the ready time exactly: at rollback the timeline is in its
// immediately-post-Remove state, whose ready time r (the latest
// remaining end) satisfies max(r, start+dur) == the pre-Remove ready
// time.
type tlUndo struct {
	id      int32
	start   float64
	prevMax float64
	dur     float64
	owner   int32
	removed bool
}

// repUndo is one journaled Reps mutation: an appended replica to
// truncate, or (removed) a cancelled replica to re-insert at idx.
type repUndo struct {
	task    dag.TaskID
	idx     int
	rep     Replica
	removed bool
}

// probeMark captures the journal position a rollback returns to.
type probeMark struct {
	tlog, rlog, comms int
	seq               int32
}

// NewState returns an empty state for the problem.
func NewState(p *Problem) *State {
	lay := NewLayout(p)
	st := &State{
		P:    p,
		lay:  lay,
		tls:  make([]timeline.Timeline, lay.Size()),
		Reps: make([][]Replica, p.G.NumTasks()),
	}
	st.setMinDurs()
	return st
}

// setMinDurs declares on every timeline the shortest reservation the
// problem can ask it for (timeline.SetMinDur), so gap indexes skip the
// gaps no reservation fits. Compute timeline q gets the smallest
// Exec[t][q]. Ports and shared links get the smallest Dur(a, b, vmin)
// over processor pairs a != b, vmin the smallest edge volume; this
// bounds every transfer because Network.Dur is monotone in the volume.
// Under Append no query reads the gap index, so every timeline gets
// +Inf and skips its upkeep.
func (st *State) setMinDurs() {
	p := st.P
	inf := math.Inf(1)
	if p.Policy == timeline.Append {
		for i := range st.tls {
			st.tls[i].SetMinDur(inf)
		}
		return
	}
	m := st.lay.Procs()
	for q := 0; q < m; q++ {
		d := inf
		for t := range p.Exec {
			d = min(d, p.Exec[t][q])
		}
		st.tls[st.lay.Compute(q)].SetMinDur(d)
	}
	vmin := inf
	for t := 0; t < p.G.NumTasks(); t++ {
		for _, e := range p.G.Pred(dag.TaskID(t)) {
			vmin = min(vmin, e.Volume)
		}
	}
	comm := inf
	if vmin < inf {
		net := st.lay.Network()
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				if a != b {
					comm = min(comm, net.Dur(a, b, vmin))
				}
			}
		}
	}
	for i := m; i < len(st.tls); i++ {
		st.tls[i].SetMinDur(comm)
	}
}

// overlayForProbe returns the reusable Append-policy probe overlay: a
// state sharing this one's timelines and records read-only, with
// earliest/reserve redirected to a private copy of the ready times.
//
//caft:zeroalloc
func (st *State) overlayForProbe() *State {
	ps := st.probeScratch
	if ps == nil {
		ps = &State{overlay: true, ready: make([]float64, len(st.tls))} //caft:alloc-ok probe overlay built once per State and reused across probes
		st.probeScratch = ps
	}
	ps.P, ps.lay, ps.tls, ps.Reps, ps.seq = st.P, st.lay, st.tls, st.Reps, st.seq
	ps.floor = st.floor
	if st.overlay {
		copy(ps.ready, st.ready)
	} else {
		for i := range st.tls {
			ps.ready[i] = st.tls[i].Ready()
		}
	}
	return ps
}

// begin opens a speculation scope and returns its rollback mark.
//
//caft:zeroalloc
func (st *State) begin() probeMark {
	st.spec++
	return probeMark{tlog: len(st.tlog), rlog: len(st.rlog), comms: len(st.Comms), seq: st.seq}
}

// rollback undoes everything journaled since mark: timeline mutations
// in reverse order (restoring each timeline's ready time), replica
// record mutations, communication records and the sequence counter.
//
//caft:zeroalloc
func (st *State) rollback(m probeMark) {
	for i := len(st.tlog) - 1; i >= m.tlog; i-- {
		u := st.tlog[i]
		if u.removed {
			st.tls[u.id].MustAdd(u.start, u.dur, u.owner)
		} else {
			st.tls[u.id].UndoAdd(u.start, u.owner, u.prevMax)
		}
	}
	st.tlog = st.tlog[:m.tlog]
	for i := len(st.rlog) - 1; i >= m.rlog; i-- {
		u := st.rlog[i]
		reps := st.Reps[u.task]
		if u.removed {
			reps = append(reps, Replica{})
			copy(reps[u.idx+1:], reps[u.idx:])
			reps[u.idx] = u.rep
			st.Reps[u.task] = reps
		} else {
			st.Reps[u.task] = reps[:len(reps)-1]
		}
	}
	st.rlog = st.rlog[:m.rlog]
	st.Comms = st.Comms[:m.comms]
	st.seq = m.seq
	st.spec--
}

// Speculate runs fn inside a speculative transaction on the real state:
// placements made by fn are fully visible to later placements within
// the same fn — including their Reps and Comms records, so multi-step
// what-ifs (place a duplicate, then place the replica that benefits)
// compose — and every effect is rolled back before Speculate returns,
// whether fn succeeds or fails. fn's error is returned verbatim.
// Speculations nest. It must not be called on probe-overlay states
// (which external callers never observe).
//
//caft:zeroalloc
func (st *State) Speculate(fn func() error) error {
	if st.overlay {
		panic("sched: Speculate on a probe overlay")
	}
	m := st.begin()
	err := fn() //caft:alloc-ok fn is the speculated body; its own allocations are accounted at their sites
	st.rollback(m)
	return err
}

// earliest returns the earliest start >= ready for a reservation of dur
// on timeline id, respecting the rescheduling floor.
//
//caft:zeroalloc
func (st *State) earliest(id int32, ready, dur float64) float64 {
	var cur timeline.Cursor
	return st.slot(id, ready, dur, &cur)
}

// slot is earliest resuming timeline id's gap scan at cur (see
// timeline.Cursor).
//
//caft:zeroalloc
func (st *State) slot(id int32, ready, dur float64, cur *timeline.Cursor) float64 {
	if ready < st.floor {
		ready = st.floor
	}
	if st.overlay {
		if r := st.ready[id]; r > ready {
			return r
		}
		return ready
	}
	return st.tls[id].EarliestSlotFrom(ready, dur, st.P.Policy, cur)
}

// reserve books [start, start+dur) on timeline id, journaling the
// reservation when a speculation scope is open.
//
//caft:zeroalloc
func (st *State) reserve(id int32, start, dur float64, owner int32) {
	if st.overlay {
		if end := start + dur; end > st.ready[id] {
			st.ready[id] = end
		}
		return
	}
	if st.spec > 0 {
		st.tlog = append(st.tlog, tlUndo{id: id, start: start, prevMax: st.tls[id].Ready(), owner: owner})
	}
	st.tls[id].MustAdd(start, dur, owner)
}

// Snapshot freezes the state into an immutable Schedule.
func (st *State) Snapshot() *Schedule {
	s := &Schedule{P: st.P, Reps: make([][]Replica, len(st.Reps))}
	for t := range st.Reps {
		s.Reps[t] = append([]Replica(nil), st.Reps[t]...)
	}
	s.Comms = append([]Comm(nil), st.Comms...)
	return s
}

// Candidates returns the processors a scheduler should probe for the
// next replica of t, in ascending processor order. With
// Problem.ProbeWidth <= 0 (the default) that is every processor —
// exactly the 0..m-1 loop it replaces. With a positive width k, it is
// the max(k, min) processors with the smallest optimistic finish time
// OFT[t][p] (ties to the smaller processor ID): the cheapest lower
// bound on what any placement through p can achieve, so the dropped
// processors are the ones least likely to win a probe. min lets callers
// that must place several replicas on distinct processors (eps+1
// copies) keep at least that many candidates.
//
// The OFT table is built lazily on first bounded use and reused for the
// lifetime of the state; it assumes an acyclic graph (Problem.Validate
// has run) and panics otherwise.
//
// Aliasing contract: the returned slice is scratch owned by the state —
// the next Candidates call on the same state overwrites it in place, so
// it must be consumed (iterated, probed against) before any further
// Candidates call and never retained.
//
//caft:scratch
//caft:zeroalloc
func (st *State) Candidates(t dag.TaskID, min int) []int {
	m := st.lay.Procs()
	k := st.P.ProbeWidth
	if k > 0 && k < min {
		k = min
	}
	if k <= 0 {
		if st.allProcs == nil {
			st.allProcs = make([]int, m) //caft:alloc-ok all-processors list built once per State, then reused
			for p := range st.allProcs {
				st.allProcs[p] = p
			}
		}
		return st.allProcs
	}
	if k > m {
		k = m
	}
	if st.oft == nil {
		oft, err := OFT(st.P) //caft:alloc-ok OFT ranking table built once per State on the first bounded probe, then reused
		if err != nil {
			panic(err)
		}
		st.oft = oft
		st.cands = make([]int, 0, m)      //caft:alloc-ok candidate scratch sized once per State, then reused
		st.candSc = make([]float64, 0, m) //caft:alloc-ok candidate scratch sized once per State, then reused
	}
	// Keep the k best (score, proc) pairs in ascending score order via
	// bounded insertion; scanning processors in ascending ID order makes
	// the tie break (first wins) deterministic.
	cands := st.cands[:0]
	scores := st.candSc[:0]
	row := st.oft[t]
	for proc := 0; proc < m; proc++ {
		sc := row[proc]
		if len(cands) == k {
			if sc >= scores[k-1] {
				continue
			}
			cands, scores = cands[:k-1], scores[:k-1]
		}
		i := len(cands)
		cands = append(cands, 0)
		scores = append(scores, 0)
		for ; i > 0 && scores[i-1] > sc; i-- {
			cands[i], scores[i] = cands[i-1], scores[i-1]
		}
		cands[i], scores[i] = proc, sc
	}
	// Probe order is ascending processor ID, matching the full loop, so
	// bounding the set never reorders probes (k = m is bit-identical to
	// unbounded).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j] < cands[j-1]; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	st.cands, st.candSc = cands, scores
	return cands
}

// SourceSet names, for one predecessor edge of the task being placed,
// the replicas allowed to send the edge's data.
//
// By default a co-located source suppresses all other transfers of the
// set (the paper's §6 rule: if a replica of the predecessor lives on the
// target processor, no other copy needs to send there). AllSend disables
// the suppression: the co-located replica still provides a free intra
// transfer but every remote source sends as well. CAFT needs this when
// the co-located replica's survival depends on more than its own
// processor — it can die while the target processor lives, so remote
// backups must still be scheduled.
type SourceSet struct {
	Pred    dag.TaskID
	Volume  float64
	Sources []Replica
	AllSend bool
}

// FullSources returns one SourceSet per predecessor of t containing all
// currently placed replicas of that predecessor — the FTSA/FTBAR
// replication pattern in which every replica of a predecessor
// communicates with every replica of its successors.
func (st *State) FullSources(t dag.TaskID) []SourceSet {
	preds := st.P.G.Pred(t)
	out := make([]SourceSet, len(preds))
	for i, e := range preds {
		out[i] = SourceSet{Pred: e.From, Volume: e.Volume, Sources: st.Reps[e.From]}
	}
	return out
}

// commonSlot finds the earliest start >= ready at which an interval of
// length dur fits simultaneously in all the given timelines, under the
// state's reservation policy. It asks the timelines in turn for their
// earliest slot from the candidate until all of them in a row leave it
// unchanged. Each answer is the least feasible start on its timeline,
// so the candidate never passes the least common one, and each change
// moves it past a busy interval, so the loop terminates. The candidate
// only grows, so each timeline resumes its gap scan at its own cursor.
//
//caft:zeroalloc
func (st *State) commonSlot(ready, dur float64, ids []int32) float64 {
	cur := st.slotCur[:0]
	for range ids {
		cur = append(cur, 0)
	}
	st.slotCur = cur
	s, agree := ready, 0
	for k := 0; agree < len(ids); k = (k + 1) % len(ids) {
		if next := st.slot(ids[k], s, dur, &cur[k]); next != s {
			s, agree = next, 1
		} else {
			agree++
		}
	}
	return s
}

// commResources returns the timeline IDs a transfer src->dst occupies
// (see Layout.AppendComm). The returned slice is scratch reused by the
// next call.
//
//caft:scratch
//caft:zeroalloc
func (st *State) commResources(src, dst int) []int32 {
	st.commIDs = st.lay.AppendComm(st.commIDs[:0], src, dst)
	return st.commIDs
}

// ProbeComm returns the earliest (start, finish) of a transfer of volume
// units from src (data ready at readyAt) to dst, without reserving
// anything. Under the macro-dataflow model the transfer holds no
// resource (see Layout.AppendComm), so it starts exactly at readyAt.
//
//caft:zeroalloc
func (st *State) ProbeComm(src, dst int, readyAt, volume float64) (start, finish float64) {
	if src == dst {
		return readyAt, readyAt
	}
	dur := st.lay.Network().Dur(src, dst, volume) //caft:alloc-ok cost-model interface call; in-tree models are pure arithmetic
	s := st.commonSlot(readyAt, dur, st.commResources(src, dst))
	return s, s + dur
}

// placeComm reserves the transfer and records it (recording is skipped
// on probe-overlay states). The caller passes the source replica and
// destination task/copy for bookkeeping, and from, where the slot
// search starts: the source's finish or the transfer's probed start
// (see PlaceReplica).
//
//caft:zeroalloc
func (st *State) placeComm(srcRep Replica, to dag.TaskID, dstCopy, dst int, volume, from float64) Comm {
	st.seq++
	c := Comm{
		From: srcRep.Task, To: to,
		SrcCopy: srcRep.Copy, DstCopy: dstCopy,
		SrcProc: srcRep.Proc, DstProc: dst,
		Volume: volume,
		Seq:    st.seq,
	}
	if srcRep.Proc == dst {
		c.Intra = true
		c.Start, c.Finish = srcRep.Finish, srcRep.Finish
	} else {
		c.Dur = st.lay.Network().Dur(srcRep.Proc, dst, volume) //caft:alloc-ok cost-model interface call; in-tree models are pure arithmetic
		ids := st.commResources(srcRep.Proc, dst)
		c.Start = st.commonSlot(from, c.Dur, ids)
		c.Finish = c.Start + c.Dur
		for _, id := range ids {
			st.reserve(id, c.Start, c.Dur, c.Seq)
		}
	}
	if !st.overlay {
		st.Comms = append(st.Comms, c)
	}
	return c
}

// pendingComm is one tentative remote transfer of a PlaceReplica call:
// its probed start and finish.
type pendingComm struct {
	setIdx           int
	src              Replica
	start, tentative float64
}

// PlaceReplica schedules copy `copy` of task t on processor proc,
// placing the communications implied by the source sets, and returns the
// placed replica.
//
// Semantics per predecessor:
//   - if any source replica is co-located with proc, the input is an
//     intra-processor transfer available at that replica's finish time;
//     unless AllSend is set, no other source sends (paper §6 note);
//   - otherwise every replica in the source set sends; transfers are
//     placed in non-decreasing order of their tentative finish time
//     (the sort of eq. (6)) and the input is available at the earliest
//     arrival.
//
// The replica's start time is the earliest slot on the processor's
// compute timeline at or after all inputs are available (eq. (5)).
//
// Each transfer's slot search resumes from its probed start: between
// the probe and the placement the state only gains reservations, so
// the first feasible start at or after the source's finish is the
// first one at or after the probed start.
//
//caft:zeroalloc
func (st *State) PlaceReplica(t dag.TaskID, copy, proc int, sources []SourceSet) (Replica, error) {
	if len(sources) != st.P.G.InDegree(t) {
		return Replica{}, fmt.Errorf("sched: task %d needs %d source sets, got %d", t, st.P.G.InDegree(t), len(sources)) //caft:alloc-ok rejection path; the accept path allocates nothing
	}
	for _, r := range st.Reps[t] {
		if r.Proc == proc {
			return Replica{}, fmt.Errorf("sched: task %d already has a replica on P%d", t, proc) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
	}
	pending := st.pending[:0]
	// arrival[i] is the earliest availability of predecessor i's data.
	arrival := st.arrival[:0]
	for range sources {
		arrival = append(arrival, math.Inf(1))
	}
	for i, set := range sources {
		if len(set.Sources) == 0 {
			st.pending, st.arrival = pending, arrival
			return Replica{}, fmt.Errorf("sched: empty source set for predecessor %d of task %d", set.Pred, t) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		// Co-located source? Use the earliest-finishing one, free.
		intra := -1
		for j, srcRep := range set.Sources {
			if srcRep.Proc == proc && (intra < 0 || srcRep.Finish < set.Sources[intra].Finish) {
				intra = j
			}
		}
		if intra >= 0 {
			srcRep := set.Sources[intra]
			st.placeComm(srcRep, t, copy, proc, set.Volume, srcRep.Finish)
			arrival[i] = srcRep.Finish
			if !set.AllSend {
				continue
			}
		}
		for _, srcRep := range set.Sources {
			if srcRep.Proc == proc {
				continue // intra transfer already recorded
			}
			start, fin := st.ProbeComm(srcRep.Proc, proc, srcRep.Finish, set.Volume)
			pending = append(pending, pendingComm{setIdx: i, src: srcRep, start: start, tentative: fin})
		}
	}
	// Serialize transfers in non-decreasing tentative finish order. The
	// insertion sort is stable (deterministic tie break on order of
	// appearance, as before) and allocation-free.
	for i := 1; i < len(pending); i++ {
		for j := i; j > 0 && pending[j].tentative < pending[j-1].tentative; j-- {
			pending[j], pending[j-1] = pending[j-1], pending[j]
		}
	}
	for _, pc := range pending {
		c := st.placeComm(pc.src, t, copy, proc, sources[pc.setIdx].Volume, pc.start)
		if c.Finish < arrival[pc.setIdx] {
			arrival[pc.setIdx] = c.Finish
		}
	}
	st.pending = pending
	ready := 0.0
	for i := range sources {
		if math.IsInf(arrival[i], 1) {
			st.arrival = arrival
			return Replica{}, fmt.Errorf("sched: no input arrived for predecessor %d of task %d", sources[i].Pred, t) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		if arrival[i] > ready {
			ready = arrival[i]
		}
	}
	st.arrival = arrival
	exec := st.P.Exec[t][proc]
	start := st.earliest(st.lay.Compute(proc), ready, exec)
	st.seq++
	rep := Replica{Task: t, Copy: copy, Proc: proc, Start: start, Finish: start + exec, Seq: st.seq}
	st.reserve(st.lay.Compute(proc), start, exec, rep.Seq)
	if !st.overlay {
		st.Reps[t] = append(st.Reps[t], rep)
		if st.spec > 0 {
			st.rlog = append(st.rlog, repUndo{task: t})
		}
	}
	return rep, nil
}

// FinishLowerBound returns, without probing, a lower bound on the
// finish time PlaceReplica (or ProbeReplica) would give a replica of t
// on proc with the given sources on the current state:
//
//	max(floor, [Append] ready time of proc, max over sets of the earliest arrival) + Exec[t][proc]
//
// A source's arrival is its finish when it is co-located with proc, and
// otherwise max(finish, floor) + the transfer duration — finish +
// duration under the macro-dataflow model, whose transfers ignore the
// floor. Each term is a time PlaceReplica cannot beat: a transfer starts
// no earlier than its source's finish and the floor, the earliest
// arrival over all of a set's sources is no later than the one
// PlaceReplica uses whether or not a co-located source suppresses the
// others, and the replica starts no earlier than its inputs, the floor
// and, under Append, the processor's ready time. A source set without
// sources bounds to +Inf.
//
//caft:zeroalloc
func (st *State) FinishLowerBound(t dag.TaskID, proc int, sources []SourceSet) float64 {
	ready := st.floor
	for _, set := range sources {
		arrival := math.Inf(1)
		for _, src := range set.Sources {
			a := src.Finish
			if src.Proc != proc {
				if a < st.floor && st.P.Model != MacroDataflow {
					a = st.floor
				}
				a += st.lay.Network().Dur(src.Proc, proc, set.Volume) //caft:alloc-ok cost-model interface call; in-tree models are pure arithmetic
			}
			if a < arrival {
				arrival = a
			}
		}
		if arrival > ready {
			ready = arrival
		}
	}
	exec := st.P.Exec[t][proc]
	if st.P.Policy == timeline.Append {
		ready = st.earliest(st.lay.Compute(proc), ready, exec)
	}
	return ready + exec
}

// ProbeReplica simulates PlaceReplica without any lasting mutation of
// the state and returns the resulting replica. The placement runs
// journaled on the real state and is rolled back, with the
// Append-policy ready-time overlay as the cheap special case.
//
//caft:zeroalloc
func (st *State) ProbeReplica(t dag.TaskID, copy, proc int, sources []SourceSet) (Replica, error) {
	if st.P.Policy == timeline.Append || st.overlay {
		return st.overlayForProbe().PlaceReplica(t, copy, proc, sources)
	}
	m := st.begin()
	rep, err := st.PlaceReplica(t, copy, proc, sources)
	st.rollback(m)
	return rep, err
}
