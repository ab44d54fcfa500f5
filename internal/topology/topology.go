// Package topology implements the sparse-interconnect extension the
// paper sketches in its conclusion: "an easy extension of CAFT would be
// to adapt it to sparse interconnection graphs (while we had a clique in
// this paper). On such platforms, each processor is provided with a
// routing table which indicates the route to be used to communicate with
// another processor. To achieve contention awareness, at most one
// message can circulate on a given link at a given time-step."
//
// A Graph is a set of processors connected by bidirectional links (two
// directed links per edge). Routing tables are built with breadth-first
// shortest paths (fewest hops, deterministic lowest-neighbor tie
// breaking). A message from Pi to Pj occupies every directed link of the
// route for the whole transfer — circuit-switched occupation, the
// natural generalization of the paper's one-link-at-a-time rule — and
// its duration is the volume times the sum of the per-link unit delays
// along the route.
//
// Graph implements sched.Network, so every scheduler in this repository
// runs unchanged on rings, stars, meshes, tori, hypercubes and random
// connected networks.
//
//caft:deterministic
package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Edge is an undirected connection between two processors with a unit
// message delay per direction.
type Edge struct {
	A, B  int
	Delay float64
}

// Graph is a sparse interconnect with precomputed routing tables. It
// implements sched.Network.
type Graph struct {
	m      int
	from   []int // directed link endpoints
	to     []int
	delay  []float64 // per directed link
	routes [][][]int // routes[src][dst] = directed link IDs in order
	dur    [][]float64
}

// New builds a graph over m processors from undirected edges and
// computes all-pairs shortest-hop routes. It returns an error if the
// graph is disconnected or an edge is invalid.
func New(m int, edges []Edge) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("topology: need at least one processor")
	}
	g := &Graph{m: m}
	adj := make([][]int, m) // adjacent directed link IDs per source
	addDirected := func(a, b int, d float64) {
		id := len(g.from)
		g.from = append(g.from, a)
		g.to = append(g.to, b)
		g.delay = append(g.delay, d)
		adj[a] = append(adj[a], id)
	}
	for _, e := range edges {
		if e.A < 0 || e.A >= m || e.B < 0 || e.B >= m || e.A == e.B {
			return nil, fmt.Errorf("topology: invalid edge %d-%d", e.A, e.B)
		}
		if e.Delay <= 0 {
			return nil, fmt.Errorf("topology: non-positive delay on edge %d-%d", e.A, e.B)
		}
		addDirected(e.A, e.B, e.Delay)
		addDirected(e.B, e.A, e.Delay)
	}
	// BFS from every source. Tie break: neighbors are visited in link
	// insertion order, which is deterministic.
	g.routes = make([][][]int, m)
	g.dur = make([][]float64, m)
	for src := 0; src < m; src++ {
		parentLink := make([]int, m)
		for i := range parentLink {
			parentLink[i] = -1
		}
		visited := make([]bool, m)
		visited[src] = true
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, id := range adj[u] {
				v := g.to[id]
				if !visited[v] {
					visited[v] = true
					parentLink[v] = id
					queue = append(queue, v)
				}
			}
		}
		g.routes[src] = make([][]int, m)
		g.dur[src] = make([]float64, m)
		for dst := 0; dst < m; dst++ {
			if dst == src {
				continue
			}
			if !visited[dst] {
				return nil, fmt.Errorf("topology: processors %d and %d are disconnected", src, dst)
			}
			var rev []int
			total := 0.0
			for v := dst; v != src; {
				id := parentLink[v]
				rev = append(rev, id)
				total += g.delay[id]
				v = g.from[id]
			}
			route := make([]int, len(rev))
			for i := range rev {
				route[i] = rev[len(rev)-1-i]
			}
			g.routes[src][dst] = route
			g.dur[src][dst] = total
		}
	}
	return g, nil
}

// NumProcs returns the number of processors.
func (g *Graph) NumProcs() int { return g.m }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.from) }

// Route returns the directed link IDs a message src->dst crosses.
func (g *Graph) Route(src, dst int) []int {
	if src == dst {
		return nil
	}
	return g.routes[src][dst]
}

// Dur returns the transfer duration of volume units from src to dst:
// volume times the summed unit delays of the route.
func (g *Graph) Dur(src, dst int, volume float64) float64 {
	if src == dst {
		return 0
	}
	return volume * g.dur[src][dst]
}

// MeanUnitDelay returns the average effective unit delay over distinct
// processor pairs.
func (g *Graph) MeanUnitDelay() float64 {
	if g.m < 2 {
		return 0
	}
	s := 0.0
	for src := 0; src < g.m; src++ {
		for dst := 0; dst < g.m; dst++ {
			if src != dst {
				s += g.dur[src][dst]
			}
		}
	}
	return s / float64(g.m*(g.m-1))
}

// Racks partitions the processors into k groups of interconnect
// neighbors: the BFS visit order from processor 0 (deterministic, by
// link insertion order) is cut into k contiguous chunks, so processors
// that are close in the interconnect land in the same group. On a mesh
// or torus the chunks are spatial blocks; on a ring they are arcs. The
// partition feeds the correlated failure model (failure.Rack), which
// crashes a whole group at its common-mode failure instant. k is
// clamped to [1, m]; the first m mod k racks get the extra processor.
func (g *Graph) Racks(k int) [][]int {
	if k < 1 {
		k = 1
	}
	if k > g.m {
		k = g.m
	}
	// BFS from 0 over directed links in insertion order.
	order := make([]int, 0, g.m)
	visited := make([]bool, g.m)
	visited[0] = true
	queue := []int{0}
	adj := make([][]int, g.m)
	for id, a := range g.from {
		adj[a] = append(adj[a], id)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, id := range adj[u] {
			if v := g.to[id]; !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	racks := make([][]int, k)
	base, extra := g.m/k, g.m%k
	at := 0
	for i := range racks {
		n := base
		if i < extra {
			n++
		}
		racks[i] = append([]int(nil), order[at:at+n]...)
		at += n
	}
	return racks
}

// Diameter returns the maximum route length in hops.
func (g *Graph) Diameter() int {
	d := 0
	for src := range g.routes {
		for dst := range g.routes[src] {
			if n := len(g.routes[src][dst]); n > d {
				d = n
			}
		}
	}
	return d
}

// Ring connects m (>= 2) processors in a cycle.
func Ring(m int, delay float64) (*Graph, error) {
	if m < 2 {
		return nil, fmt.Errorf("topology: ring needs at least 2 processors, got %d", m)
	}
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{A: i, B: (i + 1) % m, Delay: delay})
	}
	if m == 2 {
		edges = edges[:1]
	}
	return New(m, edges)
}

// Star connects every processor to processor 0 (the hub); m must be at
// least 2.
func Star(m int, delay float64) (*Graph, error) {
	if m < 2 {
		return nil, fmt.Errorf("topology: star needs at least 2 processors, got %d", m)
	}
	edges := make([]Edge, 0, m-1)
	for i := 1; i < m; i++ {
		edges = append(edges, Edge{A: 0, B: i, Delay: delay})
	}
	return New(m, edges)
}

// checkGrid rejects a rows x cols grid unless both dimensions are
// positive and the grid holds at least 2 and at most math.MaxInt
// processors.
func checkGrid(shape string, rows, cols int) error {
	if rows < 1 || cols < 1 || rows > math.MaxInt/cols || rows*cols < 2 {
		return fmt.Errorf("topology: invalid %dx%d %s", rows, cols, shape)
	}
	return nil
}

// Mesh2D builds a rows x cols grid (see checkGrid for the sizes it
// accepts).
func Mesh2D(rows, cols int, delay float64) (*Graph, error) {
	if err := checkGrid("mesh", rows, cols); err != nil {
		return nil, err
	}
	id := func(r, c int) int { return r*cols + c }
	var edges []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{A: id(r, c), B: id(r, c+1), Delay: delay})
			}
			if r+1 < rows {
				edges = append(edges, Edge{A: id(r, c), B: id(r+1, c), Delay: delay})
			}
		}
	}
	return New(rows*cols, edges)
}

// Torus2D builds a rows x cols grid with wraparound links (see
// checkGrid for the sizes it accepts).
func Torus2D(rows, cols int, delay float64) (*Graph, error) {
	if err := checkGrid("torus", rows, cols); err != nil {
		return nil, err
	}
	id := func(r, c int) int { return r*cols + c }
	seen := map[[2]int]bool{}
	var edges []Edge
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		k := [2]int{min(a, b), max(a, b)}
		if !seen[k] {
			seen[k] = true
			edges = append(edges, Edge{A: a, B: b, Delay: delay})
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			addEdge(id(r, c), id(r, (c+1)%cols))
			addEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return New(rows*cols, edges)
}

// Hypercube builds a k-dimensional hypercube over 2^k processors;
// k must be in [1, 20] (2 to ~1M processors).
func Hypercube(k int, delay float64) (*Graph, error) {
	if k < 1 || k > 20 {
		return nil, fmt.Errorf("topology: hypercube dimension %d outside [1, 20]", k)
	}
	m := 1 << k
	var edges []Edge
	for i := 0; i < m; i++ {
		for b := 0; b < k; b++ {
			j := i ^ (1 << b)
			if i < j {
				edges = append(edges, Edge{A: i, B: j, Delay: delay})
			}
		}
	}
	return New(m, edges)
}

// RandomConnected builds a random connected graph over m (>= 2)
// processors: a random spanning tree plus up to extra random edges,
// with delays drawn from [lo, hi] (0 < lo <= hi).
func RandomConnected(rng *rand.Rand, m, extra int, lo, hi float64) (*Graph, error) {
	if m < 2 {
		return nil, fmt.Errorf("topology: random graph needs at least 2 processors, got %d", m)
	}
	if extra < 0 {
		return nil, fmt.Errorf("topology: negative extra edge count %d", extra)
	}
	if lo <= 0 || hi < lo {
		return nil, fmt.Errorf("topology: invalid delay range [%v, %v]", lo, hi)
	}
	var edges []Edge
	seen := map[[2]int]bool{}
	addEdge := func(a, b int, d float64) bool {
		if a == b {
			return false
		}
		k := [2]int{min(a, b), max(a, b)}
		if seen[k] {
			return false
		}
		seen[k] = true
		edges = append(edges, Edge{A: a, B: b, Delay: d})
		return true
	}
	perm := rng.Perm(m)
	for i := 1; i < m; i++ {
		addEdge(perm[i], perm[rng.Intn(i)], lo+rng.Float64()*(hi-lo))
	}
	// At most m(m-1)/2 - (m-1) extra edges exist beyond the spanning
	// tree; cap both the target and the number of attempts.
	if room := m*(m-1)/2 - (m - 1); extra > room {
		extra = room
	}
	for added, attempts := 0, 0; added < extra && attempts < 100*m*m; attempts++ {
		if addEdge(rng.Intn(m), rng.Intn(m), lo+rng.Float64()*(hi-lo)) {
			added++
		}
	}
	return New(m, edges)
}
