package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

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
// ProbeReplica runs the real placement code on a probe overlay that
// reads the real timelines and records and writes none of them. Under
// Append a timeline's whole state is its ready time, so the overlay
// keeps a copy of the 3m+S ready times; under Insertion it asks the
// real timelines and keeps, per timeline, the sorted spans of the
// probe's own reservations, moving any answer that overlaps one of them
// past it. Probe returns the overlay itself, so a multi-step what-if
// (FTBAR's duplicate, then the replica it feeds) chains placements on
// it: each sees the reservations of the earlier ones. No state is
// cloned. Tests check every probe against PlaceReplica on a copy of the
// state rebuilt from its snapshot with StateOf. CopyFrom restores a
// state from another of the same problem, reusing its buffers; the
// online engine restores its pristine state with it after each replay
// that cancelled or placed work.
//
//caft:confined
type State struct {
	P     *Problem
	lay   Layout
	tls   []timeline.Timeline
	Reps  [][]Replica
	Comms []Comm
	seq   int32

	// Probe overlay (see Probe, slot and reserve): ready is the Append
	// overlay's copy of the ready times, nil under Insertion; own[id]
	// holds the Insertion overlay's reservations on timeline id (see
	// addOwn), and owned the ids whose list is not empty.
	overlay bool
	ready   []float64
	own     [][]ownSpan
	owned   []int32

	// floor is the online-rescheduling time floor: while positive, no
	// new reservation may start before it (see SetFloor).
	floor float64

	// Reusable scratch. probeScratch is the lazily built overlay state
	// reused by every probe; it shares this state's placeScratch, as a
	// probe and a placement never run at once.
	probeScratch *State
	*placeScratch

	// Bounded-probe scratch (see Candidates): the lazily built OFT
	// table ranking processors per task, the candidate id/score pair
	// under construction, and the frozen all-processors list returned
	// when probing is unbounded.
	oft      [][]float64
	cands    []int
	candSc   []float64
	allProcs []int
}

// placeScratch is the reusable scratch of PlaceReplica and the slot
// searches under it.
type placeScratch struct {
	arrival []float64
	pending []pendingComm
	commIDs []int32
	slotCur []timeline.Cursor
}

// ownSpan is a time span [start, end) of positive length that one or
// more back-to-back reservations of a probe occupy on one timeline of
// an Insertion-policy overlay.
type ownSpan struct {
	start, end float64
}

// ownSpanCap is the capacity of each timeline's span list when the
// Insertion overlay is built, all carved from one array; a list that
// outgrows it grows on its own and keeps its capacity. 16 spans hold
// the disjoint transfers of a probe with 16 remote sources on one port,
// so on paper-sized graphs no list grows: at 8, an Insertion build of
// caft allocated six more times (TestSchedulerBuildAllocPin).
const ownSpanCap = 16

// NewState returns an empty state for the problem. Comms starts with
// room for one record per edge: every placed replica records at least
// one communication per input edge, so a complete build records at
// least that many.
func NewState(p *Problem) *State {
	st := newState(p)
	st.Comms = make([]Comm, 0, p.G.NumEdges())
	return st
}

// newState returns an empty state for the problem with no Comms room.
func newState(p *Problem) *State {
	lay := NewLayout(p)
	st := &State{
		P:            p,
		lay:          lay,
		tls:          make([]timeline.Timeline, lay.Size()),
		Reps:         make([][]Replica, p.G.NumTasks()),
		placeScratch: &placeScratch{},
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

// Probe returns the reusable probe overlay, emptied: a state sharing
// this one's timelines and records read-only, holding under Append a
// private copy of the ready times and under Insertion empty lists of
// its own reservations. PlaceReplica on the overlay returns the replica
// PlaceReplica on this state would, and writes neither this state nor
// its records; placements chained on one overlay see each other's
// reservations, but not each other's records, so a later placement
// that reads an earlier one's replica must get it in its source sets.
// The overlay is valid until this state changes, and the next Probe or
// ProbeReplica call empties it again. Probe panics on an overlay.
//
//caft:scratch
//caft:zeroalloc
func (st *State) Probe() *State {
	if st.overlay {
		panic("sched: Probe on a probe overlay")
	}
	ps := st.probeScratch
	if ps == nil {
		ps = &State{overlay: true, placeScratch: st.placeScratch} //caft:alloc-ok probe overlay built once per State and reused across probes
		if st.P.Policy == timeline.Append {
			ps.ready = make([]float64, len(st.tls)) //caft:alloc-ok probe overlay built once per State and reused across probes
		} else {
			ps.own = make([][]ownSpan, len(st.tls))          //caft:alloc-ok probe overlay built once per State and reused across probes
			spans := make([]ownSpan, ownSpanCap*len(st.tls)) //caft:alloc-ok probe overlay built once per State and reused across probes
			for i := range ps.own {
				ps.own[i] = spans[i*ownSpanCap : i*ownSpanCap : (i+1)*ownSpanCap]
			}
		}
		st.probeScratch = ps
	}
	ps.P, ps.lay, ps.tls, ps.Reps, ps.seq = st.P, st.lay, st.tls, st.Reps, st.seq
	ps.floor = st.floor
	if ps.ready != nil {
		for i := range st.tls {
			ps.ready[i] = st.tls[i].Ready()
		}
	}
	for _, id := range ps.owned {
		ps.own[id] = ps.own[id][:0]
	}
	ps.owned = ps.owned[:0]
	return ps
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
// On an Insertion-policy overlay the timeline's answer s may overlap
// one of the probe's own spans [a, b) on id: s < b and either
// s+dur > a or s >= a (half-open, so even a zero-length query inside or
// at the start of it moves on, as in the gap index). Then no start in
// [s, b) fits, and the query repeats from b. The timeline is unchanged
// and the ready time only grows, so the cursor stays valid. Only the
// first span ending after s can overlap: the spans are disjoint and
// sorted, so every later one starts at or after that span's end. The
// first span is binary-searched; after each step the search walks on to
// the first span ending after the new answer. The spans it passes lie
// in free time of the timeline too short for dur, time its gap scan
// would pass as well. A run of back-to-back reservations is one span
// and costs one step.
//
//caft:zeroalloc
func (st *State) slot(id int32, ready, dur float64, cur *timeline.Cursor) float64 {
	if ready < st.floor {
		ready = st.floor
	}
	if st.ready != nil {
		if r := st.ready[id]; r > ready {
			return r
		}
		return ready
	}
	s := st.tls[id].EarliestSlotFrom(ready, dur, st.P.Policy, cur)
	if st.own == nil {
		return s
	}
	own := st.own[id]
	i := sort.Search(len(own), func(k int) bool { return own[k].end > s })
	for i < len(own) && (s+dur > own[i].start || s >= own[i].start) {
		s = st.tls[id].EarliestSlotFrom(own[i].end, dur, st.P.Policy, cur)
		for i++; i < len(own) && own[i].end <= s; i++ {
		}
	}
	return s
}

// reserve books [start, start+dur) on timeline id. A probe overlay writes
// no timeline: under Append it raises its ready time, under Insertion
// it adds the reservation to its own spans (see addOwn), unless
// zero-length (a marker that never conflicts).
//
//caft:zeroalloc
func (st *State) reserve(id int32, start, dur float64, owner int32) {
	if st.overlay {
		end := start + dur
		switch {
		case st.ready != nil:
			if end > st.ready[id] {
				st.ready[id] = end
			}
		case dur > 0:
			st.addOwn(id, start, end)
		}
		return
	}
	st.tls[id].MustAdd(start, dur, owner)
}

// addOwn adds the probe reservation [start, end) to timeline id's spans
// on an Insertion-policy overlay, keeping them sorted by start and
// merging the reservation into a span it touches at either end. A
// probe's reservations on one timeline are disjoint, as each takes a
// slot that slot found clear of the others, so the spans are sorted by
// end as well, and a start inside a merged span overlaps exactly when
// it overlaps one of its parts.
//
//caft:zeroalloc
func (st *State) addOwn(id int32, start, end float64) {
	own := st.own[id]
	if len(own) == 0 {
		st.owned = append(st.owned, id)
	}
	i := sort.Search(len(own), func(k int) bool { return own[k].start > start })
	joinsPrev := i > 0 && own[i-1].end == start
	joinsNext := i < len(own) && own[i].start == end
	switch {
	case joinsPrev && joinsNext:
		own[i-1].end = own[i].end
		own = append(own[:i], own[i+1:]...)
	case joinsPrev:
		own[i-1].end = end
	case joinsNext:
		own[i].start = start
	default:
		own = append(own, ownSpan{})
		copy(own[i+1:], own[i:])
		own[i] = ownSpan{start: start, end: end}
	}
	st.own[id] = own
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
// The ranking key is the state's OFT table (see State.OFT).
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
	if st.cands == nil {
		st.cands = make([]int, 0, m)      //caft:alloc-ok candidate scratch sized once per State, then reused
		st.candSc = make([]float64, 0, m) //caft:alloc-ok candidate scratch sized once per State, then reused
	}
	// Keep the k best (score, proc) pairs in ascending score order via
	// bounded insertion; scanning processors in ascending ID order makes
	// the tie break (first wins) deterministic.
	cands := st.cands[:0]
	scores := st.candSc[:0]
	row := st.OFT()[t]
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

// OFT returns the problem's optimistic finish-time table (see the
// function OFT), built on first use and kept for the lifetime of the
// state, so HOFT's priorities and bounded probing share one build. It
// assumes an acyclic graph (Problem.Validate has run) and panics
// otherwise.
//
//caft:zeroalloc
func (st *State) OFT() [][]float64 {
	if st.oft == nil {
		oft, err := OFT(st.P) //caft:alloc-ok OFT table built once per State, then reused
		if err != nil {
			panic(err)
		}
		st.oft = oft
	}
	return st.oft
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

// byTentative orders pending transfers by tentative finish, the sort
// of eq. (6).
func byTentative(a, b pendingComm) int { return cmp.Compare(a.tentative, b.tentative) }

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
	// sort must be stable: ties keep their order of appearance, which
	// fixes the order of tied transfers on a port
	// (TestTiedTransfersKeepSourceOrder).
	slices.SortStableFunc(pending, byTentative) //caft:alloc-ok in-place insertion sort and symmerge, no buffer; the comparator is a package-level func
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
// the state and returns the resulting replica: it is
// st.Probe().PlaceReplica, one placement on an emptied overlay.
//
//caft:zeroalloc
func (st *State) ProbeReplica(t dag.TaskID, copy, proc int, sources []SourceSet) (Replica, error) {
	return st.Probe().PlaceReplica(t, copy, proc, sources)
}
