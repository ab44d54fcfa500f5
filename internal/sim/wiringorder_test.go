package sim_test

import (
	"cmp"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/sim/simtest"
	"caft/internal/timeline"
)

// FuzzWiringOrder permutes the placement sequences (Seq) of a CAFT
// schedule's records from the fuzz bytes and checks NewWiring's order
// contract on the result. The first byte seeds the problem and the
// schedule, the second picks the timeline policy, and each later byte
// b swaps the Seqs of two records adjacent in Seq order: the
// b mod (records-1)-th and the next. NewWiring must return
// ErrPlacementOrder exactly when some transfer is not placed between
// its source replica and its destination replica, by (Seq, schedule
// position), with replicas before transfers at equal Seq; the test
// decides that on the records alone. Otherwise the fault-free replay
// must equal simtest.EventReplay's, which hands every resource along
// its members in Seq order without reading the wiring's op order.
func FuzzWiringOrder(f *testing.F) {
	f.Add([]byte{1, 0})
	f.Add([]byte{2, 1, 0, 1})
	f.Add([]byte{3, 0, 5, 9, 40})
	f.Add([]byte{4, 1, 200, 17, 3, 3, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		params := gen.RandomParams{MinTasks: 6, MaxTasks: 14, MinDegree: 1, MaxDegree: 3, MinVolume: 5, MaxVolume: 15}
		g := gen.RandomLayered(rng, params)
		plat := platform.NewRandom(rng, 4, 0.5, 1.0)
		exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Policy(data[1] % 2)}
		s, err := core.Schedule(p, 1, rng)
		if err != nil {
			t.Fatal(err)
		}

		var seqs []*int32 // every record's Seq, in Seq order
		for task := range s.Reps {
			for k := range s.Reps[task] {
				seqs = append(seqs, &s.Reps[task][k].Seq)
			}
		}
		for i := range s.Comms {
			seqs = append(seqs, &s.Comms[i].Seq)
		}
		slices.SortStableFunc(seqs, func(a, b *int32) int { return cmp.Compare(*a, *b) })
		for _, b := range data[2:] {
			k := int(b) % (len(seqs) - 1)
			*seqs[k], *seqs[k+1] = *seqs[k+1], *seqs[k]
			seqs[k], seqs[k+1] = seqs[k+1], seqs[k]
		}

		ordered := true
		repSeq := func(task dag.TaskID, copy int) int32 {
			for _, r := range s.Reps[task] {
				if r.Copy == copy {
					return r.Seq
				}
			}
			t.Fatalf("no replica (%d,%d)", task, copy)
			return 0
		}
		for _, c := range s.Comms {
			if repSeq(c.From, c.SrcCopy) > c.Seq || c.Seq >= repSeq(c.To, c.DstCopy) {
				ordered = false
			}
		}
		rep, err := sim.NewReplayer(s)
		if !ordered {
			if !errors.Is(err, sim.ErrPlacementOrder) {
				t.Fatalf("a transfer is placed outside its endpoints, yet NewReplayer = %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("every transfer is placed between its endpoints, yet NewReplayer = %v", err)
		}
		got := rep.Replay(nil)
		want, err := simtest.EventReplay(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		want.Crashes, want.Events = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fault-free replay\n%+v\nevent replay\n%+v", got, want)
		}
	})
}
