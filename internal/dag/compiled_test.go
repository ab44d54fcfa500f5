package dag

import (
	"math/rand"
	"testing"
)

func TestCompiledMatchesDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomDAG(rng, 200)
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTasks() != g.NumTasks() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: compiled %d/%d vs %d/%d", c.NumTasks(), c.NumEdges(), g.NumTasks(), g.NumEdges())
	}
	order, _ := g.TopoOrder()
	topo := c.Topo()
	for i, tid := range order {
		if TaskID(topo[i]) != tid {
			t.Fatalf("topo[%d] = %d, want %d", i, topo[i], tid)
		}
	}
	for task := 0; task < g.NumTasks(); task++ {
		tid := TaskID(task)
		sTo, sVol := c.Succ(tid)
		if len(sTo) != g.OutDegree(tid) || c.OutDegree(tid) != g.OutDegree(tid) {
			t.Fatalf("task %d: succ row length %d, want %d", task, len(sTo), g.OutDegree(tid))
		}
		for k, e := range g.Succ(tid) {
			if TaskID(sTo[k]) != e.To || sVol[k] != e.Volume {
				t.Fatalf("task %d succ[%d]: got (%d, %g), want (%d, %g)", task, k, sTo[k], sVol[k], e.To, e.Volume)
			}
		}
		pFrom, pVol := c.Pred(tid)
		if len(pFrom) != g.InDegree(tid) || c.InDegree(tid) != g.InDegree(tid) {
			t.Fatalf("task %d: pred row length %d, want %d", task, len(pFrom), g.InDegree(tid))
		}
		for k, e := range g.Pred(tid) {
			if TaskID(pFrom[k]) != e.From || pVol[k] != e.Volume {
				t.Fatalf("task %d pred[%d]: got (%d, %g), want (%d, %g)", task, k, pFrom[k], pVol[k], e.From, e.Volume)
			}
		}
	}
}

func TestCompiledLevelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomDAG(rng, 300)
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	comp := make([]float64, g.NumTasks())
	for i := range comp {
		comp[i] = 1 + rng.Float64()*20
	}
	const unit = 0.37
	comm := func(e Edge) float64 { return e.Volume * unit }

	wantTL := g.TopLevels(comp, comm)
	gotTL := c.TopLevelsInto(make([]float64, g.NumTasks()), comp, unit)
	wantBL := g.BottomLevels(comp, comm)
	gotBL := c.BottomLevelsInto(make([]float64, g.NumTasks()), comp, unit)
	for i := range wantTL {
		if gotTL[i] != wantTL[i] {
			t.Fatalf("top level of %d: got %v, want %v (must be bit-identical)", i, gotTL[i], wantTL[i])
		}
		if gotBL[i] != wantBL[i] {
			t.Fatalf("bottom level of %d: got %v, want %v (must be bit-identical)", i, gotBL[i], wantBL[i])
		}
	}
}

func TestCompileCaching(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c1, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := g.Compile()
	if c1 != c2 {
		t.Fatal("second Compile on an unchanged graph should return the cached view")
	}
	g.AddEdge(1, 2, 1)
	c3, _ := g.Compile()
	if c3 == c1 {
		t.Fatal("Compile after AddEdge should rebuild the view")
	}
	if c3.NumEdges() != 2 {
		t.Fatalf("rebuilt view has %d edges, want 2", c3.NumEdges())
	}
	g.AddTask("x")
	c4, _ := g.Compile()
	if c4 == c3 || c4.NumTasks() != 4 {
		t.Fatal("Compile after AddTask should rebuild the view")
	}
}

func TestCompileCyclic(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	if _, err := g.Compile(); err != ErrCycle {
		t.Fatalf("Compile on a cyclic graph: got %v, want ErrCycle", err)
	}
}

func TestLazyNames(t *testing.T) {
	g := New(3)
	for i, want := range []string{"t0", "t1", "t2"} {
		if got := g.Name(TaskID(i)); got != want {
			t.Fatalf("Name(%d) = %q, want %q", i, got, want)
		}
	}
	id := g.AddTask("extra")
	if got := g.Name(id); got != "extra" {
		t.Fatalf("explicit name: got %q, want %q", got, "extra")
	}
	if got := g.Name(1); got != "t1" {
		t.Fatalf("generated name after AddTask: got %q, want %q", got, "t1")
	}
	if g.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d, want 4", g.NumTasks())
	}
}

func TestLazyNameConstructionAllocs(t *testing.T) {
	// New must not pay one string allocation per task: the whole point
	// of lazy names. 4 allocs = DAG struct + succ + pred (+ slack).
	allocs := testing.AllocsPerRun(10, func() {
		g := New(100000)
		_ = g
	})
	if allocs > 4 {
		t.Fatalf("New(1e5) costs %v allocs; generated names must be lazy", allocs)
	}
}

// compileAllocs bounds one Compile of a random 10⁴-task DAG,
// measured when the pin was set: the compiled view is a fixed number of
// flat arrays, independent of the task count.
const compileAllocs = 26

// TestCompileAllocPin pins Compile's allocation count on a random
// 10⁴-task DAG.
func TestCompileAllocPin(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(41)), 10000)
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		g.compiled = nil
		_, err = g.Compile()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > compileAllocs {
		t.Errorf("Compile allocates %.0f/op, want <= %d", allocs, compileAllocs)
	}
}
