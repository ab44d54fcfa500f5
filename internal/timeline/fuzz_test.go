package timeline

import (
	"encoding/binary"
	"sort"
	"testing"
)

// rebuild re-adds the timeline's current intervals into a fresh
// Timeline — the from-scratch reference for the incrementally
// maintained gap index.
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
// means the incremental gap-index maintenance of Add/Remove/UndoAdd
// drifted from the interval list. The probe points ascend, and for
// each duration one cursor is carried from point to point: the resumed
// scan must give the cold answer too.
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
	for _, dur := range []float64{0, 1, 5, 31} {
		for _, pol := range []Policy{Append, Insertion} {
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
// EarliestSlot/Add/Remove/UndoAdd operations and checks that the
// interval set never becomes inconsistent, that found slots are
// honored, and — the Remove-heavy cross-check — that the incrementally
// maintained gap index always answers exactly like a timeline rebuilt
// from scratch from the surviving intervals, cold or resumed from a
// cursor (crossCheck, after every operation).
func FuzzTimelineOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{255, 0, 128, 7, 7, 7})
	f.Add([]byte{0, 10, 8, 1, 0, 16, 2, 0, 0, 0, 20, 4, 2, 0, 1, 3, 0, 2})
	// Three back-to-back reservations; remove the interior one (the
	// ready time stays), then the last one (the ready time falls back).
	f.Add([]byte{0, 0, 10, 0, 0, 12, 0, 0, 5, 2, 0, 1, 2, 0, 1, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tl Timeline
		var placed []Interval
		nextOwner := int32(0)
		type journaled struct {
			start   float64
			owner   int32
			prevMax float64
		}
		var journal []journaled
		for len(data) >= 3 {
			op := data[0] % 5
			ready := float64(data[1])
			sel := int(binary.LittleEndian.Uint16([]byte{data[2], 0}))
			dur := float64(data[2] % 32)
			data = data[3:]
			pol := Policy(int(op) % 2)
			switch op {
			case 0, 1:
				s := tl.EarliestSlot(ready, dur, pol)
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
				// Journaled add, undone immediately after a validity probe:
				// UndoAdd must restore intervals, gap index and ready time.
				prev := tl.Ready()
				s := tl.EarliestSlot(ready, dur, Insertion)
				if err := tl.Add(s, dur, nextOwner); err != nil {
					t.Fatalf("journaled add rejected: %v", err)
				}
				journal = append(journal, journaled{start: s, owner: nextOwner, prevMax: prev})
				nextOwner++
				if err := tl.Validate(); err != nil {
					t.Fatalf("after journaled add: %v", err)
				}
				u := journal[len(journal)-1]
				journal = journal[:len(journal)-1]
				tl.UndoAdd(u.start, u.owner, u.prevMax)
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
