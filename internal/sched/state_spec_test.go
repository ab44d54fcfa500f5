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
// Comms after CancelComm freed their resources. The sequence counter
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
			if err := st.CancelComm(c); err != nil {
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

// Speculate must roll back multi-step placements exactly, on success,
// on error, and when nested.
func TestSpeculateRollsBackExactly(t *testing.T) {
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		rng := rand.New(rand.NewSource(7))
		p := randomProblem(rng, 4, pol)
		st := NewState(p)
		growState(t, st, 1, nil)
		before := fingerprint(st)

		// Two dependent placements: an extra replica of an entry task,
		// then an extra replica of one of its successors fed by it. Find
		// a task with a free processor.
		var tid dag.TaskID = 2
		free := -1
		hosting := st.ProcsOf(tid)
		for proc, h := range hosting {
			if !h {
				free = proc
				break
			}
		}
		if free < 0 {
			t.Fatalf("pol %v: no free processor for task %d", pol, tid)
		}
		err := st.Speculate(func() error {
			rep, err := st.PlaceReplica(tid, len(st.Reps[tid]), free, st.FullSources(tid))
			if err != nil {
				return err
			}
			if got := len(st.Reps[tid]); got < 3 {
				t.Errorf("pol %v: speculative replica not visible inside Speculate (len %d)", pol, got)
			}
			// Nested speculation sees and then loses its own placements.
			inner := st.Speculate(func() error {
				_, err := st.PlaceReplica(rep.Task, len(st.Reps[rep.Task]), (free+1)%p.Plat.M, st.FullSources(rep.Task))
				return err
			})
			// The inner placement targets a processor that may already
			// host the task; either way the outer state must be intact.
			_ = inner
			return nil
		})
		if err != nil {
			t.Fatalf("pol %v: %v", pol, err)
		}
		if !reflect.DeepEqual(before, fingerprint(st)) {
			t.Fatalf("pol %v: Speculate left residue", pol)
		}
		// Error path: a failing placement inside Speculate still rolls
		// back whatever was reserved before the failure.
		spErr := st.Speculate(func() error {
			if _, err := st.PlaceReplica(tid, len(st.Reps[tid]), free, st.FullSources(tid)); err != nil {
				return err
			}
			_, err := st.PlaceReplica(tid, len(st.Reps[tid]), free, st.FullSources(tid)) // same proc: rejected
			return err
		})
		if spErr == nil {
			t.Fatalf("pol %v: duplicate-processor placement accepted", pol)
		}
		if !reflect.DeepEqual(before, fingerprint(st)) {
			t.Fatalf("pol %v: failing Speculate left residue", pol)
		}
	}
}

// ProcsOf must report exactly the hosting processors and reuse its
// scratch without allocating.
func TestProcsOfScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, 5, timeline.Append)
	st := NewState(p)
	growState(t, st, 1, nil)
	for task := 0; task < p.G.NumTasks(); task++ {
		hosting := st.ProcsOf(dag.TaskID(task))
		if len(hosting) != p.Plat.M {
			t.Fatalf("ProcsOf length %d, want %d", len(hosting), p.Plat.M)
		}
		want := map[int]bool{}
		for _, r := range st.Reps[task] {
			want[r.Proc] = true
		}
		for proc, h := range hosting {
			if h != want[proc] {
				t.Fatalf("task %d: ProcsOf[%d] = %v, want %v", task, proc, h, want[proc])
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() { st.ProcsOf(3) })
	if allocs > 0 {
		t.Errorf("ProcsOf allocates %.1f per call after warm-up", allocs)
	}
}

// Pin the ProcsOf aliasing contract: the returned bitset is scratch, so
// a second call on the same state overwrites the first result in place.
// A caller retaining the slice across calls observes silent mutation —
// that is exactly what this regression documents — and ProcsOfCopy is
// the retention-safe variant.
func TestProcsOfSecondCallInvalidatesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomProblem(rng, 5, timeline.Append)
	st := NewState(p)
	growState(t, st, 1, nil)

	// Find two tasks with different hosting sets; with ε+1 = 2 replicas
	// over 5 processors some pair must differ.
	var t1, t2 dag.TaskID = -1, -1
	for a := 0; a < p.G.NumTasks() && t1 < 0; a++ {
		for b := a + 1; b < p.G.NumTasks(); b++ {
			if !reflect.DeepEqual(st.ProcsOfCopy(dag.TaskID(a)), st.ProcsOfCopy(dag.TaskID(b))) {
				t1, t2 = dag.TaskID(a), dag.TaskID(b)
				break
			}
		}
	}
	if t1 < 0 {
		t.Fatal("no two tasks with distinct hosting sets in the fixture")
	}

	first := st.ProcsOf(t1)
	snapshot := append([]bool(nil), first...)
	copied := st.ProcsOfCopy(t1)
	second := st.ProcsOf(t2)

	if &first[0] != &second[0] {
		t.Fatal("ProcsOf returned distinct backing arrays; scratch reuse contract changed")
	}
	if reflect.DeepEqual(snapshot, first) {
		t.Fatal("second ProcsOf call left the first result intact; expected in-place overwrite")
	}
	if !reflect.DeepEqual(copied, snapshot) {
		t.Error("ProcsOfCopy result mutated by a later ProcsOf call")
	}
	if !reflect.DeepEqual([]bool(second), append([]bool(nil), st.ProcsOfCopy(t2)...)) {
		t.Error("ProcsOf disagrees with ProcsOfCopy for the same task")
	}
}

// The acceptance pin of the speculative-probe refactor: an
// Insertion-policy probe through the journal must allocate at least 5x
// less than a placement on a copy of the state rebuilt from its
// snapshot, the reference the probe tests use (in practice the probe is
// allocation-free in steady state).
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
	if _, err := st.ProbeReplica(last, 0, 0, sources); err != nil { // warm up scratch + journal
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
