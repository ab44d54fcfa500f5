package timeline

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// rebuild re-adds the timeline's current intervals into a fresh
// Timeline — the from-scratch reference for the incrementally
// maintained gap index. The reference indexes every gap (minimum
// duration 0).
func rebuild(t *testing.T, tl *Timeline) *Timeline {
	t.Helper()
	var fresh Timeline
	for _, iv := range tl.Intervals() {
		if err := fresh.Add(iv.Start, iv.End-iv.Start, iv.Owner); err != nil {
			t.Fatalf("rebuild rejected interval %+v: %v", iv, err)
		}
	}
	return &fresh
}

// crossCheck compares the live timeline against a rebuilt one: the
// ready time and the answers of EarliestSlot under both policies must
// agree at a spread of probe points, interval ends included. Divergence
// means the incremental gap-index maintenance of Add and Remove, or a
// CopyFrom restore, drifted from the interval list. The probe points ascend, and for
// each duration one cursor is carried from point to point: the resumed
// scan must give the cold answer too. Insertion is asked only durations
// at or above the live timeline's minimum (none when it is infinite),
// Append any duration.
func crossCheck(t *testing.T, tl *Timeline) {
	t.Helper()
	fresh := rebuild(t, tl)
	if tl.Ready() != fresh.Ready() {
		t.Fatalf("ready %v, rebuilt %v", tl.Ready(), fresh.Ready())
	}
	readies := []float64{0, 1, 7.5, 33, 100, 250}
	for _, iv := range tl.Intervals() {
		readies = append(readies, iv.Start, iv.End)
	}
	sort.Float64s(readies)
	durs := []float64{0, 1, 5, 31}
	if tl.indexed() {
		durs = append(durs, tl.minDur)
	}
	for _, dur := range durs {
		for _, pol := range []Policy{Append, Insertion} {
			if pol == Insertion && dur < tl.minDur {
				continue
			}
			var cur Cursor
			for _, ready := range readies {
				got := tl.EarliestSlot(ready, dur, pol)
				if want := fresh.EarliestSlot(ready, dur, pol); got != want {
					t.Fatalf("EarliestSlot(%v, %v, %v) = %v, rebuilt timeline says %v", ready, dur, pol, got, want)
				}
				if resumed := tl.EarliestSlotFrom(ready, dur, pol, &cur); resumed != got {
					t.Fatalf("EarliestSlotFrom(%v, %v, %v) resumed at gap cursor %d = %v, cold call says %v", ready, dur, pol, cur, resumed, got)
				}
			}
		}
	}
}

// FuzzTimelineOps drives a Timeline with a fuzzer-chosen sequence of
// EarliestSlot/Add/Remove operations and copy restores (CopyFrom) and
// checks that the interval set never becomes inconsistent, that found
// slots are honored, that a copy owns its memory and restores its
// source exactly, and — the Remove-heavy cross-check — that the
// incrementally maintained gap index always answers exactly like a
// timeline rebuilt from scratch from the surviving intervals, cold or
// resumed from a cursor (crossCheck, after every operation).
//
// The live timeline's minimum duration (SetMinDur) comes from the input
// length: len(data)%3 — the count of trailing bytes no operation reads —
// picks 0, 4 or +Inf. Insertion searches ask for at least the minimum
// and become Append searches under +Inf; the reservations themselves
// keep their drawn durations, so short ones still split and merge gaps.
func FuzzTimelineOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{255, 0, 128, 7, 7, 7})
	f.Add([]byte{0, 10, 8, 1, 0, 16, 2, 0, 0, 0, 20, 4, 2, 0, 1, 3, 0, 2})
	// Three back-to-back reservations; remove the interior one (the
	// ready time stays), then the last one (the ready time falls back).
	f.Add([]byte{0, 0, 10, 0, 0, 12, 0, 0, 5, 2, 0, 1, 2, 0, 1, 4, 0, 0})
	// Reservations [0,10), [12,20) and [25,30): under the minimum 4 the
	// 2-unit gap is unindexed and the 5-unit one indexed. Removing
	// [12,20) merges both into [10,25); an insertion then splits it,
	// and a 3-unit reservation, shorter than the minimum, is added
	// between a copy and its restore. The same operations run again with
	// an infinite minimum.
	minSeed := []byte{0, 0, 10, 0, 12, 8, 0, 25, 5, 2, 0, 1, 1, 0, 4, 3, 0, 3, 4, 0, 0}
	f.Add(append(minSeed[:len(minSeed):len(minSeed)], 0))
	f.Add(append(minSeed[:len(minSeed):len(minSeed)], 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tl Timeline
		tl.SetMinDur([]float64{0, 4, math.Inf(1)}[len(data)%3])
		// query returns the slot an Insertion search (or Append, when
		// Insertion is disallowed) finds for a reservation of dur.
		query := func(ready, dur float64, pol Policy) float64 {
			if pol == Insertion {
				if !tl.indexed() {
					pol = Append
				} else if dur < tl.minDur {
					dur = tl.minDur
				}
			}
			return tl.EarliestSlot(ready, dur, pol)
		}
		var placed []Interval
		nextOwner := int32(0)
		// saved is the copy restores come from; it keeps the previous
		// copy's buffers, often longer than the timeline now is.
		var saved Timeline
		for len(data) >= 3 {
			op := data[0] % 5
			ready := float64(data[1])
			sel := int(binary.LittleEndian.Uint16([]byte{data[2], 0}))
			dur := float64(data[2] % 32)
			data = data[3:]
			pol := Policy(int(op) % 2)
			switch op {
			case 0, 1:
				s := query(ready, dur, pol)
				if s < ready {
					t.Fatalf("slot %v before ready %v", s, ready)
				}
				if err := tl.Add(s, dur, nextOwner); err != nil {
					t.Fatalf("slot from EarliestSlot rejected: %v", err)
				}
				placed = append(placed, Interval{Start: s, End: s + dur, Owner: nextOwner})
				nextOwner++
			case 2:
				if len(placed) > 0 {
					idx := sel % len(placed)
					if tl.Remove(placed[idx].Start, placed[idx].Owner) {
						placed = append(placed[:idx], placed[idx+1:]...)
					}
				}
			case 3:
				// Copy restore: copy the timeline, add a reservation, and
				// copy it back. The Add must leave the copy untouched, and
				// the restore must bring back the timeline before it.
				ivs, prev := tl.IntervalsCopy(), tl.Ready()
				saved.CopyFrom(&tl)
				s := query(ready, dur, Insertion)
				if err := tl.Add(s, dur, nextOwner); err != nil {
					t.Fatalf("add after a copy rejected: %v", err)
				}
				nextOwner++
				if err := tl.Validate(); err != nil {
					t.Fatalf("after an add on a copied timeline: %v", err)
				}
				if !slices.Equal(saved.Intervals(), ivs) {
					t.Fatalf("copy %v changed by an Add on its source, want %v", saved.Intervals(), ivs)
				}
				tl.CopyFrom(&saved)
				if tl.Ready() != prev || !slices.Equal(tl.Intervals(), ivs) {
					t.Fatalf("restored timeline %v ready %v, want %v ready %v", tl.Intervals(), tl.Ready(), ivs, prev)
				}
			case 4:
				// No mutation: only the checks below run.
			}
			if err := tl.Validate(); err != nil {
				t.Fatal(err)
			}
			crossCheck(t, &tl)
		}
		crossCheck(t, &tl)
	})
}
