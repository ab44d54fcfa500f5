package dag

// Compiled is the frozen, cache-friendly view of a DAG: a CSR
// (compressed sparse row) encoding of both adjacency directions as
// dense int32 index arrays with parallel float64 volume arrays, plus
// the deterministic topological order and its inverse. It is built
// once per graph by DAG.Compile and shared by every read-hot consumer
// (sched.Lister, sim.Replayer, online.Engine, schedule validation)
// instead of walking [][]Edge slices of 24-byte Edge structs.
//
// A Compiled view is immutable after construction: every accessor
// returns read-only views of the frozen arrays, which remain valid (and
// may be aliased freely, including across goroutines) for the lifetime
// of the view. Callers must not modify them. Mutating the source DAG
// invalidates its cached view — DAG.Compile then builds a fresh one —
// but a previously obtained *Compiled stays internally consistent; it
// just describes the graph as it was.
type Compiled struct {
	n     int
	edges int

	// Successor CSR: the successors of task t are succTo[succOff[t] :
	// succOff[t+1]], with succVol holding the parallel edge volumes.
	// Row order is AddEdge insertion order, matching DAG.Succ.
	succOff []int32
	succTo  []int32
	succVol []float64

	// Predecessor CSR, mirroring DAG.Pred the same way.
	predOff  []int32
	predFrom []int32
	predVol  []float64

	topo []int32 // DAG.TopoOrder as dense int32s
}

// Compile returns the frozen CSR view of the graph, building it on
// first use and caching it until the next mutation (AddTask or
// AddEdge). It fails exactly when the graph is cyclic.
func (g *DAG) Compile() (*Compiled, error) {
	if g.compiled != nil {
		return g.compiled, nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.NumTasks()
	c := &Compiled{
		n:        n,
		edges:    g.edges,
		succOff:  make([]int32, n+1),
		succTo:   make([]int32, g.edges),
		succVol:  make([]float64, g.edges),
		predOff:  make([]int32, n+1),
		predFrom: make([]int32, g.edges),
		predVol:  make([]float64, g.edges),
		topo:     make([]int32, n),
	}
	for i, t := range order {
		c.topo[i] = int32(t)
	}
	var sk, pk int32
	for t := 0; t < n; t++ {
		c.succOff[t] = sk
		for _, e := range g.succ[t] {
			c.succTo[sk] = int32(e.To)
			c.succVol[sk] = e.Volume
			sk++
		}
		c.predOff[t] = pk
		for _, e := range g.pred[t] {
			c.predFrom[pk] = int32(e.From)
			c.predVol[pk] = e.Volume
			pk++
		}
	}
	c.succOff[n] = sk
	c.predOff[n] = pk
	g.compiled = c
	return c, nil
}

// NumTasks returns v = |V|.
//
//caft:zeroalloc
func (c *Compiled) NumTasks() int { return c.n }

// NumEdges returns e = |E|.
//
//caft:zeroalloc
func (c *Compiled) NumEdges() int { return c.edges }

// Topo returns the tasks in the same deterministic topological order as
// DAG.TopoOrder. The returned slice is frozen; callers must not modify
// it.
//
//caft:zeroalloc
func (c *Compiled) Topo() []int32 { return c.topo }

// Succ returns the successor row of t: parallel slices of successor
// task IDs and edge volumes, in the same order as DAG.Succ. Frozen;
// must not be modified.
//
//caft:zeroalloc
func (c *Compiled) Succ(t TaskID) (to []int32, vol []float64) {
	lo, hi := c.succOff[t], c.succOff[t+1]
	return c.succTo[lo:hi], c.succVol[lo:hi]
}

// Pred returns the predecessor row of t: parallel slices of predecessor
// task IDs and edge volumes, in the same order as DAG.Pred. Frozen;
// must not be modified.
//
//caft:zeroalloc
func (c *Compiled) Pred(t TaskID) (from []int32, vol []float64) {
	lo, hi := c.predOff[t], c.predOff[t+1]
	return c.predFrom[lo:hi], c.predVol[lo:hi]
}

// InDegree returns |Γ−(t)|.
//
//caft:zeroalloc
func (c *Compiled) InDegree(t TaskID) int { return int(c.predOff[t+1] - c.predOff[t]) }

// OutDegree returns |Γ+(t)|.
//
//caft:zeroalloc
func (c *Compiled) OutDegree(t TaskID) int { return int(c.succOff[t+1] - c.succOff[t]) }

// TopLevelsInto computes tℓ(t) for every task into dst (which must have
// length NumTasks) and returns it, with edge costs volume*unitDelay. It
// replays DAG.TopLevels exactly — same traversal order, same float
// arithmetic — so results are bit-identical to the [][]Edge path; it
// just allocates nothing.
//
//caft:zeroalloc
func (c *Compiled) TopLevelsInto(dst, comp []float64, unitDelay float64) []float64 {
	for _, t := range c.topo {
		tl := 0.0
		for k := c.predOff[t]; k < c.predOff[t+1]; k++ {
			f := c.predFrom[k]
			cand := dst[f] + comp[f] + c.predVol[k]*unitDelay
			if cand > tl {
				tl = cand
			}
		}
		dst[t] = tl
	}
	return dst
}

// BottomLevelsInto computes bℓ(t) for every task into dst (which must
// have length NumTasks) and returns it, with edge costs
// volume*unitDelay. Bit-identical to DAG.BottomLevels, allocation-free.
//
//caft:zeroalloc
func (c *Compiled) BottomLevelsInto(dst, comp []float64, unitDelay float64) []float64 {
	for i := c.n - 1; i >= 0; i-- {
		t := c.topo[i]
		bl := comp[t]
		for k := c.succOff[t]; k < c.succOff[t+1]; k++ {
			cand := comp[t] + c.succVol[k]*unitDelay + dst[c.succTo[k]]
			if cand > bl {
				bl = cand
			}
		}
		dst[t] = bl
	}
	return dst
}
