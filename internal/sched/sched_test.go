package sched

import (
	"math"
	"math/rand"
	"testing"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/timeline"
)

// prob builds a problem over g with m processors, homogeneous unit
// delays and all execution times equal to exec.
func prob(g *dag.DAG, m int, exec float64) *Problem {
	p := platform.New(m, 1)
	e := platform.NewExecMatrix(g.NumTasks(), m)
	for t := range e {
		for k := range e[t] {
			e[t][k] = exec
		}
	}
	return &Problem{G: g, Plat: p, Exec: e, Model: OnePort, Policy: timeline.Append}
}

func TestCliqueNetwork(t *testing.T) {
	p := platform.New(3, 0.5)
	c := Clique{Plat: p}
	if c.NumLinks() != 9 {
		t.Errorf("NumLinks = %d, want 9", c.NumLinks())
	}
	if r := c.Route(1, 2); len(r) != 1 || r[0] != 5 {
		t.Errorf("Route(1,2) = %v, want [5]", r)
	}
	if r := c.Route(1, 1); r != nil {
		t.Errorf("Route(1,1) = %v, want nil", r)
	}
	if d := c.Dur(0, 1, 10); d != 5 {
		t.Errorf("Dur = %v, want 5", d)
	}
	if c.MeanUnitDelay() != 0.5 {
		t.Errorf("MeanUnitDelay = %v", c.MeanUnitDelay())
	}
}

func TestProblemValidate(t *testing.T) {
	g := gen.Chain(3, 10)
	p := prob(g, 2, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Exec = platform.NewExecMatrix(2, 2) // wrong rows + zero entries
	if bad.Validate() == nil {
		t.Error("accepted malformed exec matrix")
	}
	if (&Problem{}).Validate() == nil {
		t.Error("accepted nil graph")
	}
}

// A NaN or infinite execution time, delay or volume must be rejected
// up front: a NaN execution time makes commonSlot's timelines never
// agree, so the schedulers would spin forever on it.
func TestProblemValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			name    string
			corrupt func(p *Problem)
		}{
			{"exec", func(p *Problem) { p.Exec[1][0] = v }},
			{"delay", func(p *Problem) { p.Plat.Delay[0][1] = v }},
			{"volume", func(p *Problem) { p.G.AddEdge(0, 2, v) }},
		} {
			p := prob(gen.Chain(3, 10), 2, 1)
			c.corrupt(p)
			if err := p.Validate(); err == nil {
				t.Errorf("accepted %s %v", c.name, v)
			}
		}
	}
}

func TestPlaceEntryReplica(t *testing.T) {
	g := gen.Chain(2, 5)
	p := prob(g, 2, 2)
	st := NewState(p)
	rep, err := st.PlaceReplica(0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Start != 0 || rep.Finish != 2 {
		t.Fatalf("entry replica at [%v,%v), want [0,2)", rep.Start, rep.Finish)
	}
	// Same processor again must be rejected (space exclusion).
	if _, err := st.PlaceReplica(0, 1, 0, nil); err == nil {
		t.Fatal("two replicas of one task accepted on the same processor")
	}
}

func TestChainCommTiming(t *testing.T) {
	g := gen.Chain(2, 5) // volume 5, delay 1 => W = 5
	p := prob(g, 2, 2)
	st := NewState(p)
	r0, _ := st.PlaceReplica(0, 0, 0, nil)
	r1, err := st.PlaceReplica(1, 0, 1, st.FullSources(1))
	if err != nil {
		t.Fatal(err)
	}
	if r0.Finish != 2 {
		t.Fatalf("r0 finish %v", r0.Finish)
	}
	// Comm [2,7), t1 starts at 7, finishes 9.
	if r1.Start != 7 || r1.Finish != 9 {
		t.Fatalf("r1 at [%v,%v), want [7,9)", r1.Start, r1.Finish)
	}
	if len(st.Comms) != 1 || st.Comms[0].Start != 2 || st.Comms[0].Finish != 7 {
		t.Fatalf("comm = %+v", st.Comms)
	}
}

func TestSendPortSerialization(t *testing.T) {
	g := gen.Fork(2, 4) // t0 -> t1, t2; W = 4
	p := prob(g, 3, 1)
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil) // [0,1)
	r1, _ := st.PlaceReplica(1, 0, 1, st.FullSources(1))
	r2, _ := st.PlaceReplica(2, 0, 2, st.FullSources(2))
	if r1.Start != 5 { // comm [1,5)
		t.Fatalf("r1 start = %v, want 5", r1.Start)
	}
	// Second comm serialized on P0's send port: [5,9).
	if r2.Start != 9 {
		t.Fatalf("r2 start = %v, want 9 (send port contention)", r2.Start)
	}
}

func TestMacroDataflowNoContention(t *testing.T) {
	g := gen.Fork(2, 4)
	p := prob(g, 3, 1)
	p.Model = MacroDataflow
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil)
	r1, _ := st.PlaceReplica(1, 0, 1, st.FullSources(1))
	r2, _ := st.PlaceReplica(2, 0, 2, st.FullSources(2))
	if r1.Start != 5 || r2.Start != 5 {
		t.Fatalf("starts = %v, %v; want 5, 5 under macro-dataflow", r1.Start, r2.Start)
	}
}

func TestRecvPortSerialization(t *testing.T) {
	g := gen.Join(2, 4) // t0, t1 -> t2; W = 4
	p := prob(g, 3, 1)
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil) // [0,1)
	st.PlaceReplica(1, 0, 1, nil) // [0,1)
	r2, err := st.PlaceReplica(2, 0, 2, st.FullSources(2))
	if err != nil {
		t.Fatal(err)
	}
	// Both messages tentatively finish at 5; they serialize at P2's
	// receive port: arrivals 5 and 9; t2 starts at 9.
	if r2.Start != 9 {
		t.Fatalf("r2 start = %v, want 9 (recv port contention)", r2.Start)
	}
}

func TestDisjointPairsOverlap(t *testing.T) {
	// t0 on P0 -> t2 on P1, t1 on P2 -> t3 on P3: disjoint pairs, the
	// two messages must run in parallel.
	g := dag.New(4)
	g.AddEdge(0, 2, 4)
	g.AddEdge(1, 3, 4)
	p := prob(g, 4, 1)
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil)
	st.PlaceReplica(1, 0, 2, nil)
	r2, _ := st.PlaceReplica(2, 0, 1, st.FullSources(2))
	r3, _ := st.PlaceReplica(3, 0, 3, st.FullSources(3))
	if r2.Start != 5 || r3.Start != 5 {
		t.Fatalf("starts = %v, %v; want 5, 5 (disjoint pairs)", r2.Start, r3.Start)
	}
}

func TestIntraProcessorSuppressesOtherSources(t *testing.T) {
	g := gen.Chain(2, 5)
	p := prob(g, 3, 2)
	st := NewState(p)
	// Two replicas of t0, on P0 and P1.
	st.PlaceReplica(0, 0, 0, nil)
	st.PlaceReplica(0, 1, 1, nil)
	// t1 on P0: co-located with t0 copy 0 => free input at its finish.
	r1, err := st.PlaceReplica(1, 0, 0, st.FullSources(1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Start != 2 {
		t.Fatalf("r1 start = %v, want 2 (intra input)", r1.Start)
	}
	intra, inter := 0, 0
	for _, c := range st.Comms {
		if c.Intra {
			intra++
		} else {
			inter++
		}
	}
	if intra != 1 || inter != 0 {
		t.Fatalf("comms intra=%d inter=%d, want 1, 0", intra, inter)
	}
}

func TestMinArrivalAcrossReplicaSources(t *testing.T) {
	// t0 replicated on P0 and P1 with different finishes; t1 on P2
	// receives from both and starts at the earliest arrival.
	g := gen.Chain(2, 3) // W = 3
	p := prob(g, 3, 1)
	p.Exec[0][1] = 5 // slow copy on P1
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil) // [0,1)
	st.PlaceReplica(0, 1, 1, nil) // [0,5)
	r1, _ := st.PlaceReplica(1, 0, 2, st.FullSources(1))
	// Fast comm [1,4); slow comm [5,8) — serialized at P2 recv anyway.
	// First-arrival start = 4.
	if r1.Start != 4 {
		t.Fatalf("r1 start = %v, want 4", r1.Start)
	}
	if len(st.Comms) != 2 {
		t.Fatalf("want both sources to send, got %d comms", len(st.Comms))
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	g := gen.Chain(2, 5)
	p := prob(g, 2, 2)
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil)
	before := len(st.Comms)
	if _, err := st.ProbeReplica(1, 0, 1, st.FullSources(1)); err != nil {
		t.Fatal(err)
	}
	if len(st.Comms) != before || len(st.Reps[1]) != 0 {
		t.Fatal("ProbeReplica mutated the state")
	}
}

func TestPlaceReplicaErrors(t *testing.T) {
	g := gen.Join(2, 4)
	p := prob(g, 3, 1)
	st := NewState(p)
	if _, err := st.PlaceReplica(2, 0, 0, nil); err == nil {
		t.Error("accepted missing source sets")
	}
	st.PlaceReplica(0, 0, 0, nil)
	bad := []SourceSet{
		{Pred: 0, Volume: 4, Sources: st.Reps[0]},
		{Pred: 1, Volume: 4, Sources: nil},
	}
	if _, err := st.PlaceReplica(2, 0, 1, bad); err == nil {
		t.Error("accepted empty source set")
	}
}

func TestSnapshotValidate(t *testing.T) {
	g := gen.Join(2, 4)
	p := prob(g, 3, 1)
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil)
	st.PlaceReplica(1, 0, 1, nil)
	st.PlaceReplica(2, 0, 2, st.FullSources(2))
	s := st.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.MessageCount() != 2 {
		t.Errorf("MessageCount = %d, want 2", s.MessageCount())
	}
	if s.ReplicaCount() != 3 {
		t.Errorf("ReplicaCount = %d, want 3", s.ReplicaCount())
	}
	lat := s.ScheduledLatency()
	if lat != 10 { // t2 starts 9, exec 1
		t.Errorf("ScheduledLatency = %v, want 10", lat)
	}
	if s.MakespanAll() != 10 {
		t.Errorf("MakespanAll = %v", s.MakespanAll())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := gen.Chain(2, 5)
	p := prob(g, 2, 2)
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil)
	st.PlaceReplica(1, 0, 1, st.FullSources(1))
	s := st.Snapshot()
	s.Reps[1][0].Start = 0 // starts before its input arrives
	s.Reps[1][0].Finish = 2
	if s.Validate() == nil {
		t.Error("validation missed precedence violation")
	}
	s2 := st.Snapshot()
	s2.Comms[0].Start = 0 // comm before source finish
	s2.Comms[0].Finish = 5
	if s2.Validate() == nil {
		t.Error("validation missed comm-before-source")
	}
	s3 := st.Snapshot()
	s3.Reps[0] = nil
	if s3.Validate() == nil {
		t.Error("validation missed missing replica")
	}
}

func TestInsertionPolicyFillsGap(t *testing.T) {
	// Occupy P0 with [0,1) and a later task, leaving a gap that an
	// insertion-policy placement can fill but append cannot.
	g := dag.New(3) // three independent tasks
	p := prob(g, 1, 1)
	p.Exec[1][0] = 10
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil) // [0,1)
	st.PlaceReplica(1, 0, 0, nil) // [1,11)
	r, _ := st.PlaceReplica(2, 0, 0, nil)
	if r.Start != 11 {
		t.Fatalf("append placed at %v, want 11", r.Start)
	}

	p2 := prob(g, 1, 1)
	p2.Exec[1][0] = 10
	p2.Policy = timeline.Insertion
	st2 := NewState(p2)
	// Force a gap: reserve [5,15) first, then [0,1); the third task
	// fits at 1.
	st2.PlaceReplica(1, 0, 0, nil) // [0,10) — no gap yet
	st2.PlaceReplica(0, 0, 0, nil) // appended [10,11)? insertion: [10,11)
	r2, _ := st2.PlaceReplica(2, 0, 0, nil)
	if r2.Start != 11 {
		t.Fatalf("insertion placed at %v, want 11 (no gap available)", r2.Start)
	}
}

func TestLister(t *testing.T) {
	g := diamondGraph()
	p := prob(g, 2, 1)
	rng := rand.New(rand.NewSource(1))
	l := NewLister(p, rng)
	if l.Remaining() != 4 {
		t.Fatalf("Remaining = %d", l.Remaining())
	}
	t0, ok := l.Pop()
	if !ok || t0 != 0 {
		t.Fatalf("first pop = %v, %v", t0, ok)
	}
	if _, ok := l.Pop(); ok {
		t.Fatal("popped a non-free task")
	}
	l.MarkScheduled(0, 1)
	// Now 1 and 2 free. Their priorities are equal by symmetry except
	// volume differences; both must come out before 3.
	a, _ := l.Pop()
	l.MarkScheduled(a, 2)
	b, _ := l.Pop()
	l.MarkScheduled(b, 2)
	if a == b || a == 3 || b == 3 {
		t.Fatalf("middle pops = %v, %v", a, b)
	}
	c, _ := l.Pop()
	if c != 3 {
		t.Fatalf("last pop = %v, want 3", c)
	}
	l.MarkScheduled(3, 4)
	if l.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", l.Remaining())
	}
}

func diamondGraph() *dag.DAG {
	g := dag.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	return g
}

func TestListerTake(t *testing.T) {
	g := gen.Fork(3, 1)
	p := prob(g, 2, 1)
	l := NewLister(p, rand.New(rand.NewSource(1)))
	l.MarkScheduled(mustPop(t, l), 1)
	free := append([]dag.TaskID(nil), l.Free()...)
	if len(free) != 3 {
		t.Fatalf("free = %v", free)
	}
	if !l.Take(free[1]) {
		t.Fatal("Take failed")
	}
	if l.Take(free[1]) {
		t.Fatal("Take succeeded twice")
	}
	if len(l.Free()) != 2 {
		t.Fatalf("free after take = %v", l.Free())
	}
}

func mustPop(t *testing.T, l *Lister) dag.TaskID {
	t.Helper()
	id, ok := l.Pop()
	if !ok {
		t.Fatal("Pop failed")
	}
	return id
}

func TestListerDynamicTopLevels(t *testing.T) {
	g := gen.Chain(3, 10)
	p := prob(g, 2, 1)
	l := NewLister(p, rand.New(rand.NewSource(1)))
	before := l.Priority(1)
	l.MarkScheduled(mustPop(t, l), 100) // huge actual finish
	if l.Priority(1) <= before {
		t.Fatalf("priority of successor not updated: %v -> %v", before, l.Priority(1))
	}
}

func TestScheduledLatencyMissingTask(t *testing.T) {
	g := gen.Chain(2, 1)
	p := prob(g, 2, 1)
	s := &Schedule{P: p, Reps: make([][]Replica, 2)}
	if !math.IsInf(s.ScheduledLatency(), 1) {
		t.Fatal("latency of incomplete schedule must be +Inf")
	}
}

func TestModelString(t *testing.T) {
	if OnePort.String() != "one-port" || MacroDataflow.String() != "macro-dataflow" {
		t.Error("Model.String broken")
	}
	if Model(7).String() == "" {
		t.Error("unknown model should stringify")
	}
}

// TestTiedTransfersKeepSourceOrder pins the stable order of transfers
// whose tentative finishes tie. Twenty-six sources on as many
// processors of a homogeneous platform send equal volumes to a sink on
// one more processor; the even sources finish at 2 and the odd ones at
// 3, so their transfers probe two tentative finishes, thirteen
// transfers each. PlaceReplica must serialize them on the sink's
// receive port by tentative finish and, within a tie, in source order.
// An unstable sort reorders ties in an unsorted input of more than 12
// elements (pdqsort past its insertion-sort cutoff).
func TestTiedTransfersKeepSourceOrder(t *testing.T) {
	const n = 26
	for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
		p := prob(gen.Join(n, 4), n+1, 2)
		p.Policy = pol
		for task := 1; task < n; task += 2 {
			p.Exec[task][task] = 3
		}
		st := NewState(p)
		for task := 0; task < n; task++ {
			if _, err := st.PlaceReplica(dag.TaskID(task), 0, task, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.PlaceReplica(n, 0, n, st.FullSources(n)); err != nil {
			t.Fatal(err)
		}
		if len(st.Comms) != n {
			t.Fatalf("%v: %d transfers, want %d", pol, len(st.Comms), n)
		}
		// Stable order: the even sources in order, then the odd ones.
		for k, c := range st.Comms {
			want := dag.TaskID(2 * k)
			if k >= n/2 {
				want = dag.TaskID(2*(k-n/2) + 1)
			}
			if c.From != want || k > 0 && c.Start <= st.Comms[k-1].Start {
				t.Fatalf("%v: transfer %d is from task %d at %v, want from task %d after %v", pol, k, c.From, c.Start, want, st.Comms[max(k-1, 0)].Start)
			}
		}
	}
}
