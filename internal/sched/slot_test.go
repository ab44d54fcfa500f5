package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"caft/internal/dag"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// ringWithLeaf is a 5-processor topology: the ring 0-1-2-3 plus
// processor 4 hanging off 0. Its shortest-hop routes make three ring
// links shared (0->1, 1->0 and 2->1 each carry transfers from several
// senders to several receivers). Every other link is port-implied, the
// leaf's two access links among them.
func ringWithLeaf(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.New(5, []topology.Edge{{A: 0, B: 1, Delay: 1}, {A: 1, B: 2, Delay: 1}, {A: 2, B: 3, Delay: 1}, {A: 3, B: 0, Delay: 1}, {A: 4, B: 0, Delay: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A State keeps a timeline for each port and each shared link only: 3m
// on the clique, 3m plus the shared links on a topology.
func TestNumTimelines(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 5, timeline.Insertion)
	if got := NewState(p).NumTimelines(); got != 15 {
		t.Errorf("clique: %d timelines, want 3m = 15", got)
	}
	p.Net = ringWithLeaf(t)
	if got := NewState(p).NumTimelines(); got != 15+3 {
		t.Errorf("ring with leaf: %d timelines, want 3m + 3 shared links = 18", got)
	}
}

// refCommSlot is the reference slot of a transfer src->dst of length
// dur whose data is ready at ready. It rebuilds, from the live records
// among comms, the send port of src, the receive port of dst and every
// link of the route, port-implied or not, and runs the plain fixpoint
// of timeline.EarliestSlot over all of them from max(ready, floor).
func refCommSlot(t *testing.T, st *State, comms []Comm, dead map[int32]bool, src, dst int, ready, dur float64) float64 {
	t.Helper()
	net := st.P.Network()
	route := net.Route(src, dst)
	res := make([]timeline.Timeline, 2+len(route))
	add := func(tl *timeline.Timeline, c Comm) {
		if err := tl.Add(c.Start, c.Dur, c.Seq); err != nil {
			t.Fatalf("rebuild comm seq %d: %v", c.Seq, err)
		}
	}
	for _, c := range comms {
		if c.Intra || dead[c.Seq] {
			continue
		}
		if c.SrcProc == src {
			add(&res[0], c)
		}
		if c.DstProc == dst {
			add(&res[1], c)
		}
		for k, l := range route {
			if slices.Contains(net.Route(c.SrcProc, c.DstProc), l) {
				add(&res[2+k], c)
			}
		}
	}
	s := max(ready, st.floor)
	for {
		next := s
		for i := range res {
			next = res[i].EarliestSlot(next, dur, st.P.Policy)
		}
		if next == s {
			return s
		}
		s = next
	}
}

// finishOf returns the finish time of the replica (task, copy).
func finishOf(t *testing.T, st *State, task dag.TaskID, copy int) float64 {
	t.Helper()
	for _, r := range st.Reps[task] {
		if r.Copy == copy {
			return r.Finish
		}
	}
	t.Fatalf("no replica (%d,%d)", task, copy)
	return 0
}

// TestCommSlotsMatchReference grows random states on the clique and on
// ringWithLeaf, under both policies, and checks every transfer slot
// against refCommSlot: each ProbeComm from every source to every other
// processor before a task is placed, and each Comm PlaceReplica
// records, against the records placed before it. Every probed replica
// must also equal the replica then placed. Halfway through, a third of
// the states raise a time floor, and another third cancel the work of
// a crash and raise the floor to its instant, as the online
// rescheduler does.
func TestCommSlotsMatchReference(t *testing.T) {
	ring := ringWithLeaf(t)
	checked := 0
	for _, net := range []Network{nil, ring} {
		for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := randomProblem(rng, 5, pol)
				p.Net = net
				st := NewState(p)
				label := fmt.Sprintf("net %T pol %v seed %d", net, pol, seed)
				dead := map[int32]bool{}
				n := p.G.NumTasks()
				for task := 0; task < n; task++ {
					if task == n/2 {
						tau := st.Snapshot().MakespanAll() / 2
						switch seed % 3 {
						case 1:
							st.SetFloor(tau)
						case 2:
							dead = cancelAfter(t, st, rng.Intn(p.Plat.M), tau)
						}
					}
					tid := dag.TaskID(task)
					sources := st.FullSources(tid)
					for _, set := range sources {
						for _, src := range set.Sources {
							for dst := 0; dst < p.Plat.M; dst++ {
								if dst == src.Proc {
									continue
								}
								start, _ := st.ProbeComm(src.Proc, dst, src.Finish, set.Volume)
								want := refCommSlot(t, st, st.Comms, dead, src.Proc, dst, src.Finish, st.lay.Network().Dur(src.Proc, dst, set.Volume))
								if start != want {
									t.Fatalf("%s: ProbeComm P%d->P%d of task %d's input = %v, reference %v", label, src.Proc, dst, task, start, want)
								}
								checked++
							}
						}
					}
					type cand struct {
						proc   int
						finish float64
					}
					var cands []cand
					for proc := 0; proc < p.Plat.M; proc++ {
						rep, err := st.ProbeReplica(tid, 0, proc, sources)
						if err != nil {
							t.Fatalf("%s: probe task %d on P%d: %v", label, task, proc, err)
						}
						cands = append(cands, cand{proc, rep.Finish})
					}
					sort.SliceStable(cands, func(i, j int) bool { return cands[i].finish < cands[j].finish })
					for k := 0; k < 2; k++ {
						probed, err := st.ProbeReplica(tid, k, cands[k].proc, sources)
						if err != nil {
							t.Fatalf("%s: probe task %d copy %d: %v", label, task, k, err)
						}
						n0 := len(st.Comms)
						rep, err := st.PlaceReplica(tid, k, cands[k].proc, sources)
						if err != nil {
							t.Fatalf("%s: place task %d copy %d: %v", label, task, k, err)
						}
						if rep != probed {
							t.Fatalf("%s: task %d copy %d probed as %+v, placed as %+v", label, task, k, probed, rep)
						}
						for i := n0; i < len(st.Comms); i++ {
							c := st.Comms[i]
							if c.Intra {
								continue
							}
							want := refCommSlot(t, st, st.Comms[:i], dead, c.SrcProc, c.DstProc, finishOf(t, st, c.From, c.SrcCopy), c.Dur)
							if c.Start != want {
								t.Fatalf("%s: comm %d->%d (P%d->P%d) placed at %v, reference %v", label, c.From, c.To, c.SrcProc, c.DstProc, c.Start, want)
							}
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d transfer slots checked", checked)
}
