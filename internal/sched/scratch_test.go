package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"caft/internal/dag"
	"caft/internal/gen"
)

// TestFreeAliasingContract pins the //caft:scratch contract on
// Lister.Free: the returned slice aliases internal storage and is
// invalidated by Pop/Take/MarkScheduled; a caller that needs a stable
// snapshot copies it.
func TestFreeAliasingContract(t *testing.T) {
	// Join(4): three roots feeding one sink, so three tasks start free.
	g := gen.Join(4, 10)
	p := prob(g, 2, 1)
	l := NewLister(p, rand.New(rand.NewSource(1)))

	aliased := l.Free()
	want := append([]dag.TaskID(nil), aliased...)

	popped, ok := l.Pop()
	if !ok {
		t.Fatal("Pop on a non-empty free list failed")
	}
	l.MarkScheduled(popped, 1)

	// The aliased slice still has its original length but its contents
	// were shifted in place by Pop's delete; equality with the snapshot
	// would only hold by coincidence of which task was popped. Verify it
	// genuinely aliases: the lister's live view must be a prefix of it.
	live := l.Free()
	if len(aliased) != len(want) {
		t.Fatalf("aliased slice length changed: %d, want %d", len(aliased), len(want))
	}
	if !reflect.DeepEqual(aliased[:len(live)], live) {
		t.Errorf("stale Free slice %v does not alias live view %v", aliased, live)
	}

	// The new free set differs from the snapshot by exactly the popped
	// task.
	rest := append(append([]dag.TaskID(nil), live...), popped)
	sortTasks(rest)
	sortTasks(want)
	if !reflect.DeepEqual(rest, want) {
		t.Errorf("free set after Pop = %v + popped %d, want %v", live, popped, want)
	}
}

func sortTasks(ts []dag.TaskID) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}
