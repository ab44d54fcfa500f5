package timeline

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEmptyTimeline(t *testing.T) {
	var tl Timeline
	if tl.Ready() != 0 {
		t.Errorf("Ready = %v, want 0", tl.Ready())
	}
	if s := tl.EarliestSlot(5, 3, Append); s != 5 {
		t.Errorf("EarliestSlot = %v, want 5", s)
	}
	if s := tl.EarliestSlot(5, 3, Insertion); s != 5 {
		t.Errorf("EarliestSlot insertion = %v, want 5", s)
	}
}

func TestAppendPolicyIgnoresGaps(t *testing.T) {
	var tl Timeline
	tl.MustAdd(0, 2, 1)
	tl.MustAdd(10, 2, 2)
	// A 3-unit job ready at 0 fits in the [2,10) gap, but Append must
	// place it after 12.
	if s := tl.EarliestSlot(0, 3, Append); s != 12 {
		t.Errorf("append slot = %v, want 12", s)
	}
	if s := tl.EarliestSlot(0, 3, Insertion); s != 2 {
		t.Errorf("insertion slot = %v, want 2", s)
	}
}

func TestInsertionTightGap(t *testing.T) {
	var tl Timeline
	tl.MustAdd(0, 2, 1)
	tl.MustAdd(5, 5, 2)
	// Gap [2,5): a 3-unit job exactly fits.
	if s := tl.EarliestSlot(0, 3, Insertion); s != 2 {
		t.Errorf("slot = %v, want 2", s)
	}
	// A 4-unit job does not fit; must go after 10.
	if s := tl.EarliestSlot(0, 4, Insertion); s != 10 {
		t.Errorf("slot = %v, want 10", s)
	}
	// Ready time inside the gap shrinks it.
	if s := tl.EarliestSlot(3, 3, Insertion); s != 10 {
		t.Errorf("slot = %v, want 10", s)
	}
}

func TestAddRejectsOverlap(t *testing.T) {
	var tl Timeline
	tl.MustAdd(2, 4, 1) // [2,6)
	cases := [][2]float64{{0, 3}, {3, 1}, {5, 10}, {2, 4}}
	for _, c := range cases {
		if err := tl.Add(c[0], c[1], 9); err == nil {
			t.Errorf("Add(%v,%v) accepted overlapping interval", c[0], c[1])
		}
	}
	// Touching boundaries are fine (half-open intervals).
	if err := tl.Add(6, 1, 2); err != nil {
		t.Errorf("Add(6,1) rejected: %v", err)
	}
	if err := tl.Add(0, 2, 3); err != nil {
		t.Errorf("Add(0,2) rejected: %v", err)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroDurationReservation(t *testing.T) {
	var tl Timeline
	tl.MustAdd(3, 0, 1)
	if tl.Len() != 1 {
		t.Fatal("zero-duration reservation dropped")
	}
	if err := tl.Add(3, 0, 2); err != nil {
		t.Errorf("second zero-duration at same point rejected: %v", err)
	}
	if tl.Ready() != 3 {
		t.Errorf("Ready = %v, want 3", tl.Ready())
	}
}

func TestRemove(t *testing.T) {
	var tl Timeline
	tl.MustAdd(0, 2, 1)
	tl.MustAdd(2, 2, 2)
	tl.MustAdd(4, 2, 3)
	if !tl.Remove(2, 2) {
		t.Fatal("Remove(2,2) failed")
	}
	if tl.Remove(2, 2) {
		t.Fatal("Remove(2,2) succeeded twice")
	}
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	if err := tl.Add(2, 2, 9); err != nil {
		t.Errorf("gap not reusable after Remove: %v", err)
	}
}

func TestRemoveDisambiguatesByOwner(t *testing.T) {
	var tl Timeline
	tl.MustAdd(5, 0, 1)
	tl.MustAdd(5, 0, 2)
	if !tl.Remove(5, 2) {
		t.Fatal("Remove by owner failed")
	}
	if tl.Len() != 1 || tl.Intervals()[0].Owner != 1 {
		t.Fatalf("wrong interval removed: %+v", tl.Intervals())
	}
}

func TestNegativeDuration(t *testing.T) {
	var tl Timeline
	if err := tl.Add(0, -1, 1); err == nil {
		t.Error("Add accepted negative duration")
	}
	defer func() {
		if recover() == nil {
			t.Error("EarliestSlot accepted negative duration")
		}
	}()
	tl.EarliestSlot(0, -1, Append)
}

// An Insertion query shorter than the declared minimum duration
// panics, since the gap index may lack the gaps it could fill; with an
// infinite minimum every Insertion query panics. Append queries of any
// duration stay allowed, and a query at the minimum itself is fine.
func TestInsertionBelowMinDurPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var tl Timeline
	tl.MustAdd(0, 2, 1)
	tl.MustAdd(3, 2, 2) // [2,3) is too short for the minimum of 1.5
	tl.MustAdd(8, 2, 3)
	tl.SetMinDur(1.5)
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := tl.EarliestSlot(0, 1.5, Insertion); s != 5 {
		t.Errorf("slot at the minimum = %v, want 5", s)
	}
	if s := tl.EarliestSlot(0, 0.5, Append); s != 10 {
		t.Errorf("append slot below the minimum = %v, want 10", s)
	}
	mustPanic("Insertion below the minimum", func() { tl.EarliestSlot(0, 1, Insertion) })
	// A reservation placed directly into the unindexed gap, then the
	// removal of its right neighbour, which merges [2.75,8) into the
	// index.
	tl.MustAdd(2.25, 0.5, 4)
	if !tl.Remove(3, 2) {
		t.Fatal("Remove missed [3,5)")
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := tl.EarliestSlot(0, 1.5, Insertion); s != 2.75 {
		t.Errorf("slot after the merge = %v, want 2.75", s)
	}
	tl.SetMinDur(math.Inf(1))
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := tl.EarliestSlot(0, 1, Append); s != 10 {
		t.Errorf("append slot under an infinite minimum = %v, want 10", s)
	}
	mustPanic("Insertion under an infinite minimum", func() { tl.EarliestSlot(0, 5, Insertion) })
	mustPanic("negative minimum", func() { tl.SetMinDur(-1) })
}

func TestPolicyString(t *testing.T) {
	if Append.String() != "append" || Insertion.String() != "insertion" {
		t.Error("Policy.String broken")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still stringify")
	}
}

// Property: any sequence of EarliestSlot+Add under either policy keeps
// the timeline valid, and the returned slots never precede the ready
// argument.
func TestQuickReservationsStayValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tl Timeline
		pol := Policy(rng.Intn(2))
		for i := 0; i < 60; i++ {
			ready := rng.Float64() * 50
			dur := rng.Float64() * 10
			s := tl.EarliestSlot(ready, dur, pol)
			if s < ready {
				return false
			}
			if err := tl.Add(s, dur, int32(i)); err != nil {
				return false
			}
		}
		return tl.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// referenceEarliestInsertion is the pre-gap-index Insertion scan over
// the full interval list, kept as the oracle for the indexed search.
func referenceEarliestInsertion(tl *Timeline, ready, dur float64) float64 {
	start := ready
	for _, iv := range tl.Intervals() {
		if iv.End == iv.Start || iv.End <= start {
			continue
		}
		if start+dur <= iv.Start {
			return start
		}
		start = iv.End
	}
	return start
}

// randomTimeline grows a timeline with a mix of feasible reservations
// and zero-length markers.
func randomTimeline(rng *rand.Rand, n int) *Timeline {
	var tl Timeline
	for i := 0; i < n; i++ {
		ready := rng.Float64() * 80
		dur := rng.Float64() * 6
		if rng.Intn(5) == 0 {
			dur = 0
		}
		pol := Policy(rng.Intn(2))
		tl.MustAdd(tl.EarliestSlot(ready, dur, pol), dur, int32(i))
	}
	return &tl
}

// Property: the gap-indexed Insertion search returns exactly what the
// full interval scan returns, on timelines that mix policies and
// zero-length markers.
func TestQuickGapIndexMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := randomTimeline(rng, 40)
		if err := tl.Validate(); err != nil {
			t.Log(err)
			return false
		}
		for i := 0; i < 40; i++ {
			ready := rng.Float64() * 120
			dur := rng.Float64() * 10
			if got, want := tl.EarliestSlot(ready, dur, Insertion), referenceEarliestInsertion(tl, ready, dur); got != want {
				t.Logf("EarliestSlot(%v,%v) = %v, reference scan %v", ready, dur, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: CopyFrom into a timeline with different, longer contents
// and another minimum duration makes an exact copy — intervals, ready
// time, gap index and minimum — that owns its memory: later Adds on the
// copy leave the source as it was.
func TestQuickCopyFromCopiesExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomTimeline(rng, 25)
		dst := randomTimeline(rng, 40)
		dst.SetMinDur(2)
		ivs, gaps, ready := src.IntervalsCopy(), slices.Clone(src.gaps), src.Ready()
		dst.CopyFrom(src)
		if err := dst.Validate(); err != nil {
			t.Log(err)
			return false
		}
		if dst.Ready() != ready || !slices.Equal(dst.Intervals(), ivs) || !slices.Equal(dst.gaps, gaps) ||
			dst.posEnd != src.posEnd || dst.minDur != src.minDur {
			t.Logf("seed %d: copy differs from its source", seed)
			return false
		}
		for i := 0; i < 15; i++ {
			ready := rng.Float64() * 100
			dur := rng.Float64() * 8
			if rng.Intn(6) == 0 {
				dur = 0
			}
			dst.MustAdd(dst.EarliestSlot(ready, dur, Policy(rng.Intn(2))), dur, 1000+int32(i))
		}
		if err := src.Validate(); err != nil {
			t.Log(err)
			return false
		}
		return src.Ready() == ready && slices.Equal(src.Intervals(), ivs) && slices.Equal(src.gaps, gaps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: insertion policy never yields a later slot than append.
func TestQuickInsertionNoWorseThanAppend(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tl Timeline
		for i := 0; i < 30; i++ {
			s := tl.EarliestSlot(rng.Float64()*100, rng.Float64()*5, Append)
			tl.MustAdd(s, rng.Float64()*5, int32(i))
		}
		for i := 0; i < 20; i++ {
			ready := rng.Float64() * 100
			dur := rng.Float64() * 8
			ins := tl.EarliestSlot(ready, dur, Insertion)
			app := tl.EarliestSlot(ready, dur, Append)
			if ins > app {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
