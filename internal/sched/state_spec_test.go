package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/timeline"
)

// fingerprint captures everything a probe must leave untouched: every
// timeline's interval list and ready time, the replica and
// communication records, and the sequence counter.
type stateFP struct {
	ivs   [][]timeline.Interval
	ready []float64
	reps  [][]Replica
	comms []Comm
	seq   int32
}

func fingerprint(st *State) stateFP {
	fp := stateFP{seq: st.seq}
	for i := range st.tls {
		fp.ivs = append(fp.ivs, append([]timeline.Interval(nil), st.tls[i].Intervals()...))
		fp.ready = append(fp.ready, st.tls[i].Ready())
	}
	for t := range st.Reps {
		fp.reps = append(fp.reps, append([]Replica(nil), st.Reps[t]...))
	}
	fp.comms = append([]Comm(nil), st.Comms...)
	return fp
}

// randomProblem builds a small random instance under the given policy.
func randomProblem(rng *rand.Rand, m int, pol timeline.Policy) *Problem {
	params := gen.RandomParams{MinTasks: 15, MaxTasks: 25, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &Problem{G: g, Plat: plat, Exec: exec, Model: OnePort, Policy: pol}
}

// growState schedules every task FTSA-style (eps+1 replicas on the
// processors with the earliest probed finish), returning the state.
// Task IDs of generated graphs are topologically ordered, so a plain
// sweep respects precedence.
func growState(t *testing.T, st *State, eps int, probe func(tid dag.TaskID, sources []SourceSet)) {
	t.Helper()
	m := st.P.Plat.M
	for task := 0; task < st.P.G.NumTasks(); task++ {
		tid := dag.TaskID(task)
		sources := st.FullSources(tid)
		if probe != nil {
			probe(tid, sources)
		}
		type cand struct {
			proc   int
			finish float64
		}
		var cands []cand
		for proc := 0; proc < m; proc++ {
			rep, err := st.ProbeReplica(tid, 0, proc, sources)
			if err != nil {
				t.Fatalf("probe task %d on P%d: %v", task, proc, err)
			}
			cands = append(cands, cand{proc, rep.Finish})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].finish != cands[j].finish {
				return cands[i].finish < cands[j].finish
			}
			return cands[i].proc < cands[j].proc
		})
		for k := 0; k <= eps; k++ {
			if _, err := st.PlaceReplica(tid, k, cands[k].proc, sources); err != nil {
				t.Fatalf("place task %d copy %d: %v", task, k, err)
			}
		}
	}
}

// rebuild returns an independent copy of st to place a reference
// replica on: every reservation of st's snapshot is re-added through
// StateOf, except the transfers in cancelled, whose records stay in
// Comms after CancelCommPorts freed their resources. The sequence counter
// and the time floor are copied from st.
func rebuild(t *testing.T, st *State, cancelled map[int32]bool) *State {
	t.Helper()
	s := st.Snapshot()
	kept := s.Comms[:0]
	for _, c := range s.Comms {
		if !cancelled[c.Seq] {
			kept = append(kept, c)
		}
	}
	s.Comms = kept
	ref, err := StateOf(s)
	if err != nil {
		t.Fatal(err)
	}
	ref.seq, ref.floor = st.seq, st.floor
	return ref
}

// checkProbes probes tid on every processor and checks each probe
// against PlaceReplica on a copy of the state rebuilt from its
// reservations (see rebuild): the same replica or the same failure,
// and no trace left on the state — intervals, gap indexes, ready
// times, records or sequence numbers.
func checkProbes(t *testing.T, label string, st *State, cancelled map[int32]bool, tid dag.TaskID, copy int, sources []SourceSet) bool {
	t.Helper()
	before := fingerprint(st)
	for proc := 0; proc < st.P.Plat.M; proc++ {
		rep, err := st.ProbeReplica(tid, copy, proc, sources)
		if !reflect.DeepEqual(before, fingerprint(st)) {
			t.Logf("%s: probe of task %d on P%d mutated the state", label, tid, proc)
			return false
		}
		ref := rebuild(t, st, cancelled)
		refRep, refErr := ref.PlaceReplica(tid, copy, proc, sources)
		if (err != nil) != (refErr != nil) || rep != refRep {
			t.Logf("%s: probe of task %d on P%d = (%+v, %v), rebuilt reference (%+v, %v)",
				label, tid, proc, rep, err, refRep, refErr)
			return false
		}
	}
	for i := range st.tls {
		if err := st.tls[i].Validate(); err != nil {
			t.Logf("%s: timeline %d after probes: %v", label, i, err)
			return false
		}
	}
	return true
}

// cancelAfter turns a grown state into the one the online rescheduler
// probes after processor victim crashes at tau: every replica on victim
// starting at or after tau and every transfer touching victim starting
// at or after tau is cancelled, then the floor is raised to tau. It
// returns the Seq of every cancelled transfer.
func cancelAfter(t *testing.T, st *State, victim int, tau float64) map[int32]bool {
	t.Helper()
	dead := map[int32]bool{}
	for task := range st.Reps {
		for _, r := range append([]Replica(nil), st.Reps[task]...) {
			if r.Proc == victim && r.Start >= tau {
				if err := st.CancelReplica(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range st.Comms {
		if (c.SrcProc == victim || c.DstProc == victim) && c.Start >= tau {
			if err := st.CancelCommPorts(c, true, true); err != nil {
				t.Fatal(err)
			}
			dead[c.Seq] = true
		}
	}
	st.SetFloor(tau)
	return dead
}

// Property: under both policies, a speculative probe returns exactly
// what PlaceReplica on a rebuilt copy of the state returns, and leaves
// no trace on the state. The inputs are every probe while a state grows and, per seed,
// every task's probe on the grown state after the cancellations and
// time floor of a mid-schedule crash.
func TestQuickProbeMatchesCloneReference(t *testing.T) {
	f := func(seed int64) bool {
		for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
			rng := rand.New(rand.NewSource(seed))
			p := randomProblem(rng, 4, pol)
			st := NewState(p)
			ok := true
			growState(t, st, 1, func(tid dag.TaskID, sources []SourceSet) {
				if ok {
					ok = checkProbes(t, "pol "+pol.String(), st, nil, tid, 0, sources)
				}
			})
			if !ok {
				return false
			}
			tau := st.Snapshot().MakespanAll() / 2
			cancelled := cancelAfter(t, st, rng.Intn(p.Plat.M), tau)
			for task := 0; task < p.G.NumTasks(); task++ {
				tid := dag.TaskID(task)
				if !checkProbes(t, "pol "+pol.String()+" after cancel", st, cancelled, tid, len(st.Reps[tid]), st.FullSources(tid)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The Insertion overlay's slots equal those of a real timeline that
// holds the same reservations. Integer times make the overlay's
// reservations land back to back with each other on either side, so
// every merge case of addOwn occurs.
func TestOverlaySlotsMatchTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	exec := platform.NewExecMatrix(n, 1)
	for task := range exec {
		exec[task][0] = float64(1 + rng.Intn(4))
	}
	p := &Problem{G: dag.New(n), Plat: platform.New(1, 0), Exec: exec, Model: OnePort, Policy: timeline.Insertion}
	for round := 0; round < 200; round++ {
		st, ref := NewState(p), NewState(p)
		id := st.lay.Compute(0)
		owner := int32(0)
		for k := rng.Intn(6); k > 0; k-- {
			owner++
			dur := exec[rng.Intn(n)][0]
			s := st.earliest(id, float64(rng.Intn(30)), dur)
			st.reserve(id, s, dur, owner)
			ref.reserve(id, s, dur, owner)
		}
		ov := st.Probe()
		for q := 0; q < 20; q++ {
			ready, dur := float64(rng.Intn(40)), exec[rng.Intn(n)][0]
			got, want := ov.earliest(id, ready, dur), ref.earliest(id, ready, dur)
			if got != want {
				t.Fatalf("round %d query %d: overlay slot(%v, %v) = %v, timeline %v; spans %v, timeline %v",
					round, q, ready, dur, got, want, ov.own[id], ref.tls[id].Intervals())
			}
			if rng.Intn(2) == 0 {
				owner++
				ov.reserve(id, got, dur, owner)
				ref.reserve(id, want, dur, owner)
			}
		}
	}
}

// joinProblem is gen.Join(n) on m random processors: n sources
// feeding one sink, whose receive port takes a transfer from every
// source replica a remote sink replica does not share a processor with.
func joinProblem(n, m int, pol timeline.Policy) *Problem {
	rng := rand.New(rand.NewSource(5))
	g := gen.Join(n, 100)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &Problem{G: g, Plat: plat, Exec: exec, Model: OnePort, Policy: pol}
}

// A large fan-in sink, under both policies: 300 sources with two
// replicas each send up to 600 transfers into a probed sink replica's
// receive port, back to back, so the Insertion overlay merges most of
// them into one span. Every probe of the sink's first copy, of a third
// copy (whose transfers share the send ports with the two placed ones)
// and of a re-placement after a crash cut must match the rebuilt
// reference.
func TestLargeSinkProbeMatchesReference(t *testing.T) {
	const n = 300
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		p := joinProblem(n, 6, pol)
		st := NewState(p)
		sink := dag.TaskID(n)
		label := "pol " + pol.String()
		growState(t, st, 1, func(tid dag.TaskID, sources []SourceSet) {
			if tid == sink && !checkProbes(t, label, st, nil, tid, 0, sources) {
				t.FailNow()
			}
		})
		if !checkProbes(t, label+" third copy", st, nil, sink, 2, st.FullSources(sink)) {
			t.FailNow()
		}
		victim := st.Reps[sink][0].Proc
		cancelled := cancelAfter(t, st, victim, st.Reps[sink][0].Start)
		if !checkProbes(t, label+" after cancel", st, cancelled, sink, len(st.Reps[sink]), st.FullSources(sink)) {
			t.FailNow()
		}
	}
}

// BenchmarkProbeFanIn probes the second copy of a join(1000) sink
// under Insertion: up to 2000 transfers per probe into one receive
// port, sharing their send ports with the placed first copy's. It is
// the profile recipe for high fan-in probes.
func BenchmarkProbeFanIn(b *testing.B) {
	const n, m = 1000, 10
	p := joinProblem(n, m, timeline.Insertion)
	st := NewState(p)
	for task := 0; task < n; task++ {
		for k := 0; k < 2; k++ {
			if _, err := st.PlaceReplica(dag.TaskID(task), k, (task+k)%m, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	sink := dag.TaskID(n)
	sources := st.FullSources(sink)
	if _, err := st.PlaceReplica(sink, 0, 0, sources); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.ProbeReplica(sink, 1, 1+i%(m-1), sources); err != nil {
			b.Fatal(err)
		}
	}
}

// The acceptance pin of clone-free probing: an Insertion-policy probe
// on the probe overlay must allocate at least 5x less than a placement
// on a copy of the state rebuilt from its snapshot, the reference the
// probe tests use (in practice the probe is allocation-free in steady
// state).
func TestInsertionProbeAllocPin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 6, timeline.Insertion)
	st := NewState(p)
	last := dag.TaskID(p.G.NumTasks() - 1)
	for task := 0; task < int(last); task++ {
		tid := dag.TaskID(task)
		sources := st.FullSources(tid)
		for k, proc := 0, 0; k < 2; k, proc = k+1, proc+1 {
			if _, err := st.PlaceReplica(tid, k, proc+int(tid)%3, sources); err != nil {
				t.Fatal(err)
			}
		}
	}
	sources := st.FullSources(last)
	if _, err := st.ProbeReplica(last, 0, 0, sources); err != nil { // warm up the overlay and its scratch
		t.Fatal(err)
	}
	spec := testing.AllocsPerRun(100, func() {
		if _, err := st.ProbeReplica(last, 0, 0, sources); err != nil {
			t.Fatal(err)
		}
	})
	rebuilt := testing.AllocsPerRun(100, func() {
		ref := rebuild(t, st, nil)
		if _, err := ref.PlaceReplica(last, 0, 0, sources); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/probe: speculative %.1f, rebuilt reference %.1f", spec, rebuilt)
	if spec > 2 {
		t.Errorf("speculative probe allocates %.1f per call, want ~0", spec)
	}
	if 5*spec > rebuilt {
		t.Errorf("speculative probe (%.1f allocs) is not >=5x leaner than rebuild plus place (%.1f allocs)", spec, rebuilt)
	}
}
