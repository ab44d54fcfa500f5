// Package timeline implements exclusive-use resource timelines: sorted
// lists of non-overlapping busy intervals representing the occupation of
// a processor, a communication port or a network link.
//
// Two reservation policies are provided, matching the two classic
// list-scheduling variants:
//
//   - Append: a new reservation may only start at or after the ready time
//     of the resource (the maximum finish time of the reservations already
//     placed). This matches the ready-time formulation of the paper's
//     equations (4)-(6): R(l), SF(P), RF(P) are "the time the resource is
//     free again".
//   - Insertion: a new reservation may fill an idle gap between existing
//     reservations if the gap is long enough (HEFT-style insertion-based
//     policy).
//
// Alongside the interval list the timeline maintains a gap index: the
// sorted list of maximal free intervals between positive-length
// reservations. EarliestSlot under the Insertion policy binary-searches
// that index instead of scanning the full interval list, and the index
// is kept incrementally up to date by Add and Remove. A Cursor
// lets a caller that asks one timeline again with a larger ready time
// resume the scan where the previous call stopped.
//
// SetMinDur declares the shortest duration any Insertion query will ask
// for, so the index holds only the gaps such a query can fill. With an
// infinite minimum the index is not maintained at all, which is what
// Append-only timelines want.
//
// CopyFrom restores a timeline — intervals, ready time and gap index —
// from another one, reusing its buffers: a caller that changes a
// timeline and wants the old one back keeps a copy and copies it back.
//
// The zero value of Timeline is an empty, ready-to-use timeline.
//
//caft:deterministic
package timeline

import (
	"fmt"
	"math"
	"sort"
)

// Policy selects how EarliestSlot searches for a feasible start time.
type Policy int

const (
	// Append schedules strictly after the last existing reservation.
	Append Policy = iota
	// Insertion may fill idle gaps between existing reservations.
	Insertion
)

//caft:zeroalloc
func (p Policy) String() string {
	switch p {
	case Append:
		return "append"
	case Insertion:
		return "insertion"
	default:
		return fmt.Sprintf("Policy(%d)", int(p)) //caft:alloc-ok out-of-range debug rendering; unreachable for the defined policies
	}
}

// Interval is a half-open busy interval [Start, End) tagged with an
// opaque owner ID (task replica index or communication index) used for
// debugging and for validation reports.
type Interval struct {
	Start, End float64
	Owner      int32
}

// gap is a maximal free interval [start, end) between two consecutive
// positive-length reservations (or before the first one, starting at 0).
// Free time after the last positive reservation is represented by posEnd,
// not by a gap.
type gap struct {
	start, end float64
}

// Timeline is a sorted set of non-overlapping busy intervals.
//
//caft:confined
type Timeline struct {
	ivs    []Interval
	maxEnd float64
	// gap index: gaps are sorted and disjoint (both starts and ends are
	// strictly increasing, since positive reservations are disjoint);
	// posEnd is the end of the last positive-length reservation. The
	// index ignores zero-length markers, exactly as the Insertion scan
	// does.
	gaps   []gap
	posEnd float64
	// minDur is the shortest duration an Insertion query may ask for
	// (SetMinDur): the index keeps only gaps g with g.start+minDur <=
	// g.end. +Inf leaves the index unmaintained.
	minDur float64
}

// SetMinDur declares d as the shortest duration any later Insertion
// query asks for, and rebuilds the gap index to hold only the gaps g
// with g.start+d <= g.end. That is the scan's own fit test, so for
// every query with dur >= d the dropped gaps are exactly ones the scan
// would reject, and EarliestSlot answers as without the filter. An
// Insertion query with a dur below d panics. The zero value (d = 0)
// indexes every gap. d = +Inf disallows Insertion queries of any finite
// duration, and Add and Remove then skip index upkeep. It
// panics on a negative or NaN d.
func (tl *Timeline) SetMinDur(d float64) {
	if !(d >= 0) {
		panic("timeline: negative or NaN minimum duration")
	}
	tl.minDur = d
	tl.gaps, tl.posEnd = tl.usableGaps(tl.gaps[:0])
}

// indexed reports whether the gap index is maintained (the minimum
// duration is finite).
//
//caft:zeroalloc
func (tl *Timeline) indexed() bool { return tl.minDur <= math.MaxFloat64 }

// usable reports whether the free interval [s, e) belongs in the gap
// index: a query of the minimum duration fits in it.
//
//caft:zeroalloc
func (tl *Timeline) usable(s, e float64) bool { return s < e && s+tl.minDur <= e }

// usableGaps appends the gaps the index should hold to dst, computed
// from the interval list, and returns them with the end of the last
// positive-length reservation. Positive intervals must not overlap.
func (tl *Timeline) usableGaps(dst []gap) ([]gap, float64) {
	prevEnd := 0.0
	for _, iv := range tl.ivs {
		if iv.End == iv.Start {
			continue
		}
		if tl.usable(prevEnd, iv.Start) {
			dst = append(dst, gap{prevEnd, iv.Start})
		}
		prevEnd = iv.End
	}
	return dst, prevEnd
}

// Len returns the number of reservations.
func (tl *Timeline) Len() int { return len(tl.ivs) }

// Intervals returns the reservations in start order. The returned slice
// aliases internal storage and must not be modified.
//
//caft:scratch safe=IntervalsCopy
func (tl *Timeline) Intervals() []Interval { return tl.ivs }

// IntervalsCopy returns a freshly allocated copy of Intervals, safe to
// retain across Add, Remove and CopyFrom.
func (tl *Timeline) IntervalsCopy() []Interval { return append([]Interval(nil), tl.ivs...) }

// Ready returns the latest reservation end (0 when empty): the
// resource's ready time under the Append policy, i.e. the paper's
// R(l) / SF(P) / RF(P).
//
//caft:zeroalloc
func (tl *Timeline) Ready() float64 {
	return tl.maxEnd
}

// EarliestSlot returns the earliest start >= ready at which a
// reservation of length dur fits under the given policy: the cold,
// cursor-less call of EarliestSlotFrom.
//
// Under Append the answer is max(ready, Ready()), whatever dur. Under
// Insertion it is the earliest s >= ready that lies in a free gap
// between positive-length reservations with s+dur still inside it, or
// else max(ready, end of the last positive reservation). Zero-length
// reservations are ignored. Gaps are half-open, so even with zero dur
// a ready time inside a busy interval, or at its start, moves to the
// next gap or to the tail.
//
//caft:zeroalloc
func (tl *Timeline) EarliestSlot(ready, dur float64, pol Policy) float64 {
	var cur Cursor
	return tl.EarliestSlotFrom(ready, dur, pol, &cur)
}

// Cursor carries an Insertion gap scan from one EarliestSlotFrom call
// to the next. The zero Cursor is cold: the call binary-searches the
// gap index. After a call it names the indexed gap the scan stopped at,
// and a later call on the unchanged timeline with the same dur and a
// ready time no smaller resumes there: every gap before it either ended
// by the earlier ready time or was too short from it, and a larger
// ready time only makes it shorter. Gaps shorter than the minimum
// duration (SetMinDur) are not in the index, so neither scan visits
// them.
type Cursor int

// EarliestSlotFrom is EarliestSlot resuming the Insertion scan at cur,
// which it advances to where the scan stopped. Append ignores cur.
// State.commonSlot's fixpoint carries one cursor per timeline, so only
// its first round binary-searches.
//
//caft:zeroalloc
func (tl *Timeline) EarliestSlotFrom(ready, dur float64, pol Policy, cur *Cursor) float64 {
	if dur < 0 {
		panic("timeline: negative duration")
	}
	if pol == Insertion && dur < tl.minDur {
		panic("timeline: Insertion query below the minimum duration")
	}
	if pol == Append || len(tl.ivs) == 0 {
		if r := tl.Ready(); r > ready {
			return r
		}
		return ready
	}
	// Insertion: gap ends are strictly increasing, so a cold scan
	// binary-searches the first gap that ends after ready and scans
	// from there. Zero-length reservations are ordering markers, occupy
	// no time and are absent from the index, so they neither close gaps
	// nor push the candidate start. A resumed scan may pass gaps that
	// end by ready; s < end rejects them as the binary search would.
	gaps := tl.gaps
	i := int(*cur) - 1
	if i < 0 {
		i = sort.Search(len(gaps), func(i int) bool { return gaps[i].end > ready })
	}
	for ; i < len(gaps); i++ {
		s, end := gaps[i].start, gaps[i].end
		if ready > s {
			s = ready
		}
		if s < end && s+dur <= end {
			*cur = Cursor(i + 1)
			return s
		}
	}
	*cur = Cursor(len(gaps) + 1)
	if ready > tl.posEnd {
		return ready
	}
	return tl.posEnd
}

// Add reserves [start, start+dur) for owner. It returns an error if the
// new interval overlaps an existing reservation (callers must use
// EarliestSlot to find feasible starts). Zero-duration reservations are
// accepted and kept anywhere — they occupy no time and act as ordering
// markers; symmetrically, a positive reservation may span existing
// markers. The symmetry matters for rebuilding a timeline from its
// interval list (sched.StateOf): re-adding intervals in start order
// must accept exactly the states the incremental path can reach.
//
//caft:zeroalloc
func (tl *Timeline) Add(start, dur float64, owner int32) error {
	if dur < 0 {
		return fmt.Errorf("timeline: negative duration %v", dur) //caft:alloc-ok rejection path; the accept path allocates nothing
	}
	end := start + dur
	i := sort.Search(len(tl.ivs), func(i int) bool { return tl.ivs[i].Start >= start })
	// Check overlap against positive-length neighbors; zero-length
	// intervals — existing or being added — are markers and never
	// conflict. Positive intervals are pairwise disjoint and
	// start-sorted, so the nearest positive one on each side decides.
	for j := i - 1; dur > 0 && j >= 0; j-- {
		if tl.ivs[j].End == tl.ivs[j].Start {
			continue
		}
		if tl.ivs[j].End > start {
			return fmt.Errorf("timeline: [%v,%v) overlaps [%v,%v)", start, end, tl.ivs[j].Start, tl.ivs[j].End) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
		break
	}
	for j := i; dur > 0 && j < len(tl.ivs) && tl.ivs[j].Start < end; j++ {
		if tl.ivs[j].End > tl.ivs[j].Start {
			return fmt.Errorf("timeline: [%v,%v) overlaps [%v,%v)", start, end, tl.ivs[j].Start, tl.ivs[j].End) //caft:alloc-ok rejection path; the accept path allocates nothing
		}
	}
	tl.ivs = append(tl.ivs, Interval{})
	copy(tl.ivs[i+1:], tl.ivs[i:])
	tl.ivs[i] = Interval{Start: start, End: end, Owner: owner}
	if end > tl.maxEnd {
		tl.maxEnd = end
	}
	if dur > 0 && tl.indexed() {
		tl.gapsOnAdd(start, end)
	}
	return nil
}

// gapsOnAdd carves the positive reservation [start, end) out of the gap
// index. The reservation is known not to overlap any positive interval.
//
//caft:zeroalloc
func (tl *Timeline) gapsOnAdd(start, end float64) {
	if start >= tl.posEnd {
		// Tail region: a new gap opens between the previous last positive
		// end and the reservation. Its end exceeds every indexed gap's,
		// so appending keeps the index sorted.
		if tl.usable(tl.posEnd, start) {
			tl.gaps = append(tl.gaps, gap{tl.posEnd, start})
		}
		tl.posEnd = end
		return
	}
	// Interior: the reservation lies inside exactly one gap; split it.
	// That gap is unindexed only if it is too short for the minimum
	// duration, and then so is the reservation, and so are the pieces.
	i := sort.Search(len(tl.gaps), func(i int) bool { return tl.gaps[i].end > start })
	if i == len(tl.gaps) || tl.gaps[i].start > start {
		if start+tl.minDur > end && (i == len(tl.gaps) || tl.gaps[i].start >= end) {
			return
		}
		panic(fmt.Sprintf("timeline: gap index lost [%v,%v)", start, end)) //caft:alloc-ok invariant-violation panic, unreachable on consistent state
	}
	g := tl.gaps[i]
	if g.end < end {
		panic(fmt.Sprintf("timeline: gap index lost [%v,%v)", start, end)) //caft:alloc-ok invariant-violation panic, unreachable on consistent state
	}
	left, right := gap{g.start, start}, gap{end, g.end}
	lu, ru := tl.usable(left.start, left.end), tl.usable(right.start, right.end)
	switch {
	case lu && ru:
		tl.gaps = append(tl.gaps, gap{})
		copy(tl.gaps[i+1:], tl.gaps[i:])
		tl.gaps[i], tl.gaps[i+1] = left, right
	case lu:
		tl.gaps[i] = left
	case ru:
		tl.gaps[i] = right
	default:
		tl.gaps = append(tl.gaps[:i], tl.gaps[i+1:]...)
	}
}

// gapsOnRemove re-merges the free space exposed by deleting the positive
// reservation at index i of the interval list (not yet spliced out).
// The merged gap runs between the nearest positive neighbours: the
// pieces on either side of the reservation may be too short to be
// indexed, so the index alone does not know where they start or end.
//
//caft:zeroalloc
func (tl *Timeline) gapsOnRemove(i int) {
	iv := tl.ivs[i]
	// Nearest positive neighbors; zero-length markers in between are
	// transparent to the index.
	prevEnd := 0.0
	for j := i - 1; j >= 0; j-- {
		if tl.ivs[j].End > tl.ivs[j].Start {
			prevEnd = tl.ivs[j].End
			break
		}
	}
	hasNext, nextStart := false, 0.0
	for j := i + 1; j < len(tl.ivs); j++ {
		if tl.ivs[j].End > tl.ivs[j].Start {
			hasNext, nextStart = true, tl.ivs[j].Start
			break
		}
	}
	if !hasNext {
		// iv was the last positive reservation: the gap before it (if
		// any) and the reservation itself dissolve into the tail.
		if n := len(tl.gaps); n > 0 && tl.gaps[n-1].end == iv.Start {
			tl.gaps = tl.gaps[:n-1]
		}
		tl.posEnd = prevEnd
		return
	}
	// gaps[lo:hi] are the indexed pieces on either side of iv; the
	// merged gap replaces them, or they just go if it is unusable too.
	lo := sort.Search(len(tl.gaps), func(j int) bool { return tl.gaps[j].end >= iv.Start })
	hi := lo
	if hi < len(tl.gaps) && tl.gaps[hi].end == iv.Start {
		hi++
	}
	if hi < len(tl.gaps) && tl.gaps[hi].start == iv.End {
		hi++
	}
	if tl.usable(prevEnd, nextStart) {
		if lo == hi {
			tl.gaps = append(tl.gaps, gap{})
			copy(tl.gaps[lo+1:], tl.gaps[lo:])
			hi++
		}
		tl.gaps[lo] = gap{prevEnd, nextStart}
		lo++
	}
	tl.gaps = append(tl.gaps[:lo], tl.gaps[hi:]...)
}

// deleteAt removes the reservation at index i, maintaining the gap
// index. The caller fixes maxEnd.
//
//caft:zeroalloc
func (tl *Timeline) deleteAt(i int) {
	if tl.ivs[i].End > tl.ivs[i].Start && tl.indexed() {
		tl.gapsOnRemove(i)
	}
	tl.ivs = append(tl.ivs[:i], tl.ivs[i+1:]...)
}

// MustAdd is Add that panics on overlap; used where feasibility was just
// established with EarliestSlot.
//
//caft:zeroalloc
func (tl *Timeline) MustAdd(start, dur float64, owner int32) {
	if err := tl.Add(start, dur, owner); err != nil {
		panic(err)
	}
}

// Remove deletes the reservation starting exactly at start with the
// given owner; it reports whether a matching reservation was found. The
// ready time is rescanned only when the removed reservation ended at it.
//
//caft:zeroalloc
func (tl *Timeline) Remove(start float64, owner int32) bool {
	i := sort.Search(len(tl.ivs), func(i int) bool { return tl.ivs[i].Start >= start })
	for ; i < len(tl.ivs) && tl.ivs[i].Start == start; i++ {
		if tl.ivs[i].Owner == owner {
			end := tl.ivs[i].End
			tl.deleteAt(i)
			if end >= tl.maxEnd {
				tl.maxEnd = 0
				for _, iv := range tl.ivs {
					if iv.End > tl.maxEnd {
						tl.maxEnd = iv.End
					}
				}
			}
			return true
		}
	}
	return false
}

// CopyFrom makes tl a copy of src: intervals, ready time, gap index
// and minimum duration. It reuses tl's buffers, so once they have grown
// to src's sizes it allocates nothing, and afterwards tl shares no
// memory with src.
//
//caft:zeroalloc
func (tl *Timeline) CopyFrom(src *Timeline) {
	tl.ivs = append(tl.ivs[:0], src.ivs...)
	tl.gaps = append(tl.gaps[:0], src.gaps...)
	tl.maxEnd, tl.posEnd, tl.minDur = src.maxEnd, src.posEnd, src.minDur
}

// Validate checks ordering and non-overlap among positive-length
// intervals (zero-length markers may sit anywhere), that the ready time
// is the latest reservation end, and that the gap index holds exactly
// the usable gaps of the interval list (none when it is not
// maintained).
func (tl *Timeline) Validate() error {
	prevEnd, maxEnd := 0.0, 0.0
	hasPrev := false
	for i := range tl.ivs {
		if tl.ivs[i].End > maxEnd {
			maxEnd = tl.ivs[i].End
		}
		if tl.ivs[i].End == tl.ivs[i].Start {
			continue
		}
		if hasPrev && tl.ivs[i].Start < prevEnd {
			return fmt.Errorf("timeline: interval %d [%v,%v) overlaps a predecessor ending at %v",
				i, tl.ivs[i].Start, tl.ivs[i].End, prevEnd)
		}
		prevEnd, hasPrev = tl.ivs[i].End, true
	}
	if tl.maxEnd != maxEnd {
		return fmt.Errorf("timeline: ready time %v, want %v", tl.maxEnd, maxEnd)
	}
	wantGaps, _ := tl.usableGaps(nil)
	if tl.indexed() && tl.posEnd != prevEnd {
		return fmt.Errorf("timeline: gap index posEnd %v, want %v", tl.posEnd, prevEnd)
	}
	if len(wantGaps) != len(tl.gaps) {
		return fmt.Errorf("timeline: gap index holds %d gaps, want %d", len(tl.gaps), len(wantGaps))
	}
	for i := range wantGaps {
		if tl.gaps[i] != wantGaps[i] {
			return fmt.Errorf("timeline: gap %d is [%v,%v), want [%v,%v)",
				i, tl.gaps[i].start, tl.gaps[i].end, wantGaps[i].start, wantGaps[i].end)
		}
	}
	return nil
}
