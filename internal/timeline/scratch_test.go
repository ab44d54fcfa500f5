package timeline

import (
	"reflect"
	"testing"
)

// TestIntervalsAliasingContract pins the //caft:scratch contract on
// Timeline.Intervals: the returned slice aliases internal storage and
// is invalidated by Add, Remove and CopyFrom, while IntervalsCopy survives
// them. Remove is used as the mutator because it always shifts the
// backing array in place (Add may grow and reallocate it).
func TestIntervalsAliasingContract(t *testing.T) {
	var tl Timeline
	tl.MustAdd(0, 2, 1)  // [0,2)
	tl.MustAdd(4, 2, 3)  // [4,6)
	tl.MustAdd(10, 2, 2) // [10,12)

	aliased := tl.Intervals()
	copied := tl.IntervalsCopy()
	if !reflect.DeepEqual(aliased, copied) {
		t.Fatalf("Intervals = %v, IntervalsCopy = %v; want equal before mutation", aliased, copied)
	}
	want := append([]Interval(nil), copied...)

	if !tl.Remove(4, 3) {
		t.Fatal("Remove(4, 3) failed")
	}

	if !reflect.DeepEqual(copied, want) {
		t.Errorf("IntervalsCopy result changed by Remove: %v, want %v", copied, want)
	}
	// The stale slice keeps its length but Remove shifted the tail left
	// underneath it: index 1 now holds [10,12), not [4,6).
	if reflect.DeepEqual(aliased, want) {
		t.Errorf("stale Intervals slice unchanged by Remove; expected in-place invalidation, got %v", aliased)
	}
	live := tl.Intervals()
	if !reflect.DeepEqual(aliased[:len(live)], live) {
		t.Errorf("stale Intervals slice %v does not alias live view %v", aliased, live)
	}

	// Re-adding restores the original set; a fresh copy matches the
	// pinned snapshot again.
	tl.MustAdd(4, 2, 3)
	if got := tl.IntervalsCopy(); !reflect.DeepEqual(got, want) {
		t.Errorf("IntervalsCopy after re-Add = %v, want %v", got, want)
	}
}
