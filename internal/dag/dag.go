// Package dag implements the weighted directed acyclic task-graph model
// used throughout the CAFT scheduler: tasks (nodes) connected by
// precedence edges carrying data volumes, together with the structural
// quantities the scheduling heuristics need — topological order, top and
// bottom levels, graph width and granularity.
//
// The model follows Section 2 of Benoit, Hakem, Robert, "Realistic Models
// and Efficient Algorithms for Fault Tolerant Scheduling on Heterogeneous
// Platforms" (INRIA RR-6606, 2008): G = (V, E) with an edge cost function
// V(ti, tj) giving the volume of data ti sends to tj.
//
//caft:deterministic
package dag

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// TaskID identifies a task within a DAG. IDs are dense: 0 .. NumTasks()-1.
type TaskID int

// Edge is a precedence constraint From -> To carrying Volume units of data.
type Edge struct {
	From   TaskID
	To     TaskID
	Volume float64
}

// DAG is a weighted directed acyclic task graph. The zero value is an
// empty graph ready for AddTask / AddEdge.
type DAG struct {
	n     int      // number of tasks
	auto  int      // tasks [0, auto) are auto-named "t<id>" lazily by Name
	names []string // explicit names for tasks [auto, n)
	succ  [][]Edge // outgoing edges per task
	pred  [][]Edge // incoming edges per task
	edges int

	compiled *Compiled // cached frozen view; nil after any mutation
}

// New returns a DAG with n generated-name tasks ("t0".."t<n-1>") and no
// edges. Names are materialized lazily by Name, so construction costs
// no per-task string allocations.
func New(n int) *DAG {
	return &DAG{
		n:    n,
		auto: n,
		succ: make([][]Edge, n),
		pred: make([][]Edge, n),
	}
}

// AddTask appends a task with the given name and returns its ID.
func (g *DAG) AddTask(name string) TaskID {
	g.names = append(g.names, name)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	g.n++
	g.compiled = nil
	return TaskID(g.n - 1)
}

// AddEdge adds a precedence edge from -> to with the given data volume.
// It panics if either endpoint is out of range or from == to; cycles are
// detected by Validate, not here.
func (g *DAG) AddEdge(from, to TaskID, volume float64) {
	if !g.valid(from) || !g.valid(to) {
		panic(fmt.Sprintf("dag: edge endpoint out of range: %d -> %d (n=%d)", from, to, g.NumTasks()))
	}
	if from == to {
		panic(fmt.Sprintf("dag: self-loop on task %d", from))
	}
	e := Edge{From: from, To: to, Volume: volume}
	g.succ[from] = append(g.succ[from], e)
	g.pred[to] = append(g.pred[to], e)
	g.edges++
	g.compiled = nil
}

func (g *DAG) valid(t TaskID) bool { return t >= 0 && int(t) < g.n }

// NumTasks returns v = |V|.
//
//caft:zeroalloc
func (g *DAG) NumTasks() int { return g.n }

// NumEdges returns e = |E|.
//
//caft:zeroalloc
func (g *DAG) NumEdges() int { return g.edges }

// Name returns the task's name. Generated names ("t<id>" from New) are
// materialized here, not stored, so they cost one allocation per call
// but none at construction time. Allocation-sensitive callers can test
// GeneratedName first and format "t<id>" themselves.
func (g *DAG) Name(t TaskID) string {
	if int(t) < g.auto {
		return "t" + strconv.Itoa(int(t))
	}
	return g.names[int(t)-g.auto]
}

// GeneratedName reports whether t carries a generated name — i.e. Name
// would materialize "t<id>" rather than return a stored string.
//
//caft:zeroalloc
func (g *DAG) GeneratedName(t TaskID) bool { return int(t) < g.auto }

// Succ returns the outgoing edges of t (Γ+(t)). The slice must not be
// modified by the caller.
//
//caft:zeroalloc
func (g *DAG) Succ(t TaskID) []Edge { return g.succ[t] }

// Pred returns the incoming edges of t (Γ−(t)). The slice must not be
// modified by the caller.
//
//caft:zeroalloc
func (g *DAG) Pred(t TaskID) []Edge { return g.pred[t] }

// InDegree returns |Γ−(t)|.
//
//caft:zeroalloc
func (g *DAG) InDegree(t TaskID) int { return len(g.pred[t]) }

// OutDegree returns |Γ+(t)|.
//
//caft:zeroalloc
func (g *DAG) OutDegree(t TaskID) int { return len(g.succ[t]) }

// Entries returns the entry tasks (no predecessors) in ID order.
func (g *DAG) Entries() []TaskID {
	var out []TaskID
	for t := 0; t < g.NumTasks(); t++ {
		if len(g.pred[t]) == 0 {
			out = append(out, TaskID(t))
		}
	}
	return out
}

// Exits returns the exit tasks (no successors) in ID order.
func (g *DAG) Exits() []TaskID {
	var out []TaskID
	for t := 0; t < g.NumTasks(); t++ {
		if len(g.succ[t]) == 0 {
			out = append(out, TaskID(t))
		}
	}
	return out
}

// ErrCycle is reported by Validate and TopoOrder when the graph is cyclic.
var ErrCycle = errors.New("dag: graph contains a cycle")

// TopoOrder returns the tasks in a deterministic topological order
// (Kahn's algorithm with a smallest-ID tie break), or ErrCycle.
func (g *DAG) TopoOrder() ([]TaskID, error) {
	n := g.NumTasks()
	indeg := make([]int, n)
	for t := 0; t < n; t++ {
		indeg[t] = len(g.pred[t])
	}
	// Min-ID ready set kept sorted for determinism.
	var ready []TaskID
	for t := n - 1; t >= 0; t-- {
		if indeg[t] == 0 {
			ready = append(ready, TaskID(t))
		}
	}
	// ready is in descending ID order; pop from the back for ascending.
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		t := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, t)
		for _, e := range g.succ[t] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				// Insert keeping descending order.
				i := sort.Search(len(ready), func(i int) bool { return ready[i] < e.To })
				ready = append(ready, 0)
				copy(ready[i+1:], ready[i:])
				ready[i] = e.To
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate checks structural invariants: acyclicity, consistent adjacency,
// and non-negative finite volumes.
func (g *DAG) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for t := 0; t < g.NumTasks(); t++ {
		for _, e := range g.succ[t] {
			if e.From != TaskID(t) {
				return fmt.Errorf("dag: succ list of %d holds edge %d->%d", t, e.From, e.To)
			}
			if e.Volume < 0 || math.IsNaN(e.Volume) || math.IsInf(e.Volume, 1) {
				return fmt.Errorf("dag: volume %v on edge %d->%d is not non-negative and finite", e.Volume, e.From, e.To)
			}
		}
		for _, e := range g.pred[t] {
			if e.To != TaskID(t) {
				return fmt.Errorf("dag: pred list of %d holds edge %d->%d", t, e.From, e.To)
			}
		}
	}
	return nil
}

// Width returns ω, the maximum number of pairwise independent tasks,
// approximated as the maximum antichain size computed level-wise: tasks
// are grouped by their precedence depth and the largest group is
// returned. (The exact maximum antichain requires bipartite matching;
// the level-width is the standard quantity used by the paper's
// complexity analysis for list-scheduler queue sizing and is an upper
// bound on the ready-queue length for level-ordered traversals.)
func (g *DAG) Width() int {
	depth := g.Depths()
	count := map[int]int{}
	w := 0
	for _, d := range depth {
		count[d]++
		if count[d] > w {
			w = count[d]
		}
	}
	return w
}

// Depths returns, for each task, its precedence depth: entry tasks have
// depth 0 and every other task is one more than its deepest predecessor.
func (g *DAG) Depths() []int {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	depth := make([]int, g.NumTasks())
	for _, t := range order {
		for _, e := range g.pred[t] {
			if depth[e.From]+1 > depth[t] {
				depth[t] = depth[e.From] + 1
			}
		}
	}
	return depth
}

// CriticalPathLen returns the length of the longest path through the
// graph where each task t costs comp[t] and each edge (i,j) costs
// comm(i,j). Used for lower bounds and priority computations.
func (g *DAG) CriticalPathLen(comp []float64, comm func(Edge) float64) float64 {
	bl := g.BottomLevels(comp, comm)
	best := 0.0
	for _, v := range bl {
		if v > best {
			best = v
		}
	}
	return best
}

// TopLevels returns tℓ(t) for every task: the length of the longest path
// from an entry node to t, excluding t's own cost (paper §5). Entry
// tasks have top level 0.
func (g *DAG) TopLevels(comp []float64, comm func(Edge) float64) []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	tl := make([]float64, g.NumTasks())
	for _, t := range order {
		for _, e := range g.pred[t] {
			cand := tl[e.From] + comp[e.From] + comm(e)
			if cand > tl[t] {
				tl[t] = cand
			}
		}
	}
	return tl
}

// BottomLevels returns bℓ(t) for every task: the length of the longest
// path from t to an exit node, including t's own cost (paper §5). Exit
// tasks have bottom level equal to their cost.
func (g *DAG) BottomLevels(comp []float64, comm func(Edge) float64) []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	bl := make([]float64, g.NumTasks())
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		bl[t] = comp[t]
		for _, e := range g.succ[t] {
			cand := comp[t] + comm(e) + bl[e.To]
			if cand > bl[t] {
				bl[t] = cand
			}
		}
	}
	return bl
}

// Edges returns all edges in (From, To) lexicographic order.
func (g *DAG) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for t := 0; t < g.NumTasks(); t++ {
		out = append(out, g.succ[t]...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// TotalVolume returns the sum of all edge volumes.
func (g *DAG) TotalVolume() float64 {
	s := 0.0
	for t := 0; t < g.NumTasks(); t++ {
		for _, e := range g.succ[t] {
			s += e.Volume
		}
	}
	return s
}

// Granularity returns g(G,P) per the paper: the ratio of the sum of the
// slowest computation time of each task to the sum of the slowest
// communication time along each edge. slowestComp[t] must be
// max_P E(t,P); maxDelay is max over links of the unit delay d.
// A graph with granularity >= 1 is coarse grain.
func (g *DAG) Granularity(slowestComp []float64, maxDelay float64) float64 {
	num := 0.0
	for _, c := range slowestComp {
		num += c
	}
	den := g.TotalVolume() * maxDelay
	if den == 0 {
		return 0
	}
	return num / den
}
