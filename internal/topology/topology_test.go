package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// must unwraps a convenience-constructor result for the statically
// valid shapes used across these tests.
func must(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// The convenience constructors must reject invalid sizes with an error
// — like New — instead of panicking (they used to panic on the error
// path of New, and nonsense sizes like Ring(1) only surfaced there).
func TestConstructorsRejectInvalidSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		shape string
		build func() (*Graph, error)
	}{
		{"ring", func() (*Graph, error) { return Ring(1, 1) }},
		{"star", func() (*Graph, error) { return Star(1, 1) }},
		{"mesh", func() (*Graph, error) { return Mesh2D(0, 4, 1) }},
		{"torus", func() (*Graph, error) { return Torus2D(2, 0, 1) }},
		// (2^62+1) x 4 wraps to 4 processors in int arithmetic.
		{"mesh-overflow", func() (*Graph, error) { return Mesh2D(1<<62+1, 4, 1) }},
		{"torus-overflow", func() (*Graph, error) { return Torus2D(4, 1<<62+1, 1) }},
		{"hypercube", func() (*Graph, error) { return Hypercube(0, 1) }},
		{"random", func() (*Graph, error) { return RandomConnected(rng, 1, 2, 0.5, 1.0) }},
		{"random-delay", func() (*Graph, error) { return RandomConnected(rng, 4, 2, 0, 1.0) }},
	}
	for _, c := range cases {
		g, err := c.build()
		if err == nil {
			t.Errorf("%s: invalid size accepted (got %d-proc graph)", c.shape, g.NumProcs())
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("accepted zero processors")
	}
	if _, err := New(3, []Edge{{A: 0, B: 3, Delay: 1}}); err == nil {
		t.Error("accepted out-of-range edge")
	}
	if _, err := New(3, []Edge{{A: 1, B: 1, Delay: 1}}); err == nil {
		t.Error("accepted self edge")
	}
	if _, err := New(3, []Edge{{A: 0, B: 1, Delay: 0}}); err == nil {
		t.Error("accepted zero delay")
	}
	if _, err := New(3, []Edge{{A: 0, B: 1, Delay: 1}}); err == nil {
		t.Error("accepted disconnected graph")
	}
}

func TestRingRoutes(t *testing.T) {
	g := must(Ring(6, 1))
	if g.NumLinks() != 12 {
		t.Fatalf("ring(6) links = %d, want 12", g.NumLinks())
	}
	// 0 -> 3 is 3 hops either way.
	if len(g.Route(0, 3)) != 3 {
		t.Errorf("route 0->3 = %d hops, want 3", len(g.Route(0, 3)))
	}
	if g.Dur(0, 3, 10) != 30 {
		t.Errorf("Dur(0,3,10) = %v, want 30", g.Dur(0, 3, 10))
	}
	if g.Route(2, 2) != nil {
		t.Error("self route not nil")
	}
	if g.Diameter() != 3 {
		t.Errorf("ring(6) diameter = %d, want 3", g.Diameter())
	}
}

func TestRingTwoProcs(t *testing.T) {
	g := must(Ring(2, 1))
	if g.NumLinks() != 2 {
		t.Fatalf("ring(2) links = %d, want 2 (no double edge)", g.NumLinks())
	}
}

func TestStar(t *testing.T) {
	g := must(Star(5, 0.5))
	// Leaf to leaf: 2 hops through the hub.
	if len(g.Route(1, 4)) != 2 {
		t.Errorf("route 1->4 = %d hops, want 2", len(g.Route(1, 4)))
	}
	if g.Dur(1, 4, 10) != 10 {
		t.Errorf("Dur = %v, want 10", g.Dur(1, 4, 10))
	}
	if len(g.Route(0, 3)) != 1 {
		t.Errorf("hub route = %d hops, want 1", len(g.Route(0, 3)))
	}
	if g.Diameter() != 2 {
		t.Errorf("star diameter = %d, want 2", g.Diameter())
	}
}

func TestMeshAndTorus(t *testing.T) {
	mesh := must(Mesh2D(3, 3, 1))
	if mesh.NumProcs() != 9 {
		t.Fatalf("mesh procs = %d", mesh.NumProcs())
	}
	// Corner to corner: 4 hops.
	if len(mesh.Route(0, 8)) != 4 {
		t.Errorf("mesh corner route = %d hops, want 4", len(mesh.Route(0, 8)))
	}
	torus := must(Torus2D(3, 3, 1))
	// Wraparound shortens: 0 to 8 is 2 hops ((0,0)->(2,0)->(2,2)).
	if len(torus.Route(0, 8)) != 2 {
		t.Errorf("torus corner route = %d hops, want 2", len(torus.Route(0, 8)))
	}
	if torus.Diameter() >= mesh.Diameter() {
		t.Errorf("torus diameter %d should beat mesh %d", torus.Diameter(), mesh.Diameter())
	}
}

func TestHypercube(t *testing.T) {
	g := must(Hypercube(3, 1))
	if g.NumProcs() != 8 {
		t.Fatalf("procs = %d", g.NumProcs())
	}
	if g.NumLinks() != 8*3 { // 12 undirected edges = 24 directed... 8*3=24
		t.Fatalf("links = %d, want 24", g.NumLinks())
	}
	// 000 -> 111 is 3 hops.
	if len(g.Route(0, 7)) != 3 {
		t.Errorf("route 0->7 = %d hops, want 3", len(g.Route(0, 7)))
	}
	if g.Diameter() != 3 {
		t.Errorf("diameter = %d, want 3", g.Diameter())
	}
}

func TestRandomConnectedProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(12)
		g := must(RandomConnected(rng, m, rng.Intn(6), 0.5, 1.0))
		// Connectivity: every pair has a route; durations positive and
		// symmetric-ish in hop count.
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				if a == b {
					continue
				}
				r := g.Route(a, b)
				if len(r) == 0 {
					return false
				}
				if g.Dur(a, b, 1) <= 0 {
					return false
				}
				// Routes are consistent: consecutive links chain.
				prev := a
				for _, id := range r {
					if g.from[id] != prev {
						return false
					}
					prev = g.to[id]
				}
				if prev != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanUnitDelay(t *testing.T) {
	g := must(Ring(4, 1))
	// Ring(4): distances 1,2,1 from each node; mean = 4/3.
	want := 4.0 / 3.0
	if got := g.MeanUnitDelay(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("MeanUnitDelay = %v, want %v", got, want)
	}
	single, err := New(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if single.MeanUnitDelay() != 0 {
		t.Error("single-proc mean delay should be 0")
	}
}

// Scheduling on a sparse network: CAFT schedules validate under the
// route-aware one-port model and remain crash-resilient.
func TestCAFTOnSparseTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topos := map[string]*Graph{
		"ring":      must(Ring(8, 0.75)),
		"star":      must(Star(8, 0.75)),
		"mesh":      must(Mesh2D(2, 4, 0.75)),
		"hypercube": must(Hypercube(3, 0.75)),
	}
	for name, net := range topos {
		m := net.NumProcs()
		graph := gen.RandomLayered(rng, gen.RandomParams{MinTasks: 25, MaxTasks: 30, MinDegree: 1, MaxDegree: 3, MinVolume: 5, MaxVolume: 15})
		plat := platform.New(m, 0.75) // delays unused when Net is set
		exec := platform.GenExecForGranularity(rng, graph, plat, 1.0, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: graph, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append, Net: net}
		s, err := core.Schedule(p, 1, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: invalid schedule: %v", name, err)
		}
		rep, err := sim.NewReplayer(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for proc := 0; proc < m; proc++ {
			if _, err := rep.CrashLatency(map[int]bool{proc: true}); err != nil {
				t.Fatalf("%s: crash P%d: %v", name, proc, err)
			}
		}
	}
}

// Shared links must serialize: on a star, two simultaneous leaf-to-leaf
// transfers that share the hub's links cannot overlap.
func TestStarLinkContention(t *testing.T) {
	net := must(Star(5, 1))
	g := gen.Join(2, 4) // t0, t1 -> t2; W = 4 per hop => 8 leaf-to-leaf
	plat := platform.New(5, 1)
	exec := platform.NewExecMatrix(3, 5)
	for ti := range exec {
		for k := range exec[ti] {
			exec[ti][k] = 1
		}
	}
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append, Net: net}
	st := sched.NewState(p)
	st.PlaceReplica(0, 0, 1, nil) // leaf P1, [0,1)
	st.PlaceReplica(1, 0, 2, nil) // leaf P2, [0,1)
	rep, err := st.PlaceReplica(2, 0, 3, st.FullSources(2))
	if err != nil {
		t.Fatal(err)
	}
	// Each transfer takes 8 (2 hops x delay 1 x volume 4). Both route
	// through the hub's link 0->3 segment, and both end at P3's receive
	// port, so they serialize: arrivals 9 and 17; t2 starts at 17.
	if rep.Start != 17 {
		t.Fatalf("t2 start = %v, want 17 (link serialization through hub)", rep.Start)
	}
}

// Racks must partition the processors into proximity groups: every
// processor in exactly one rack, rack sizes balanced, and on a mesh the
// two racks split into spatially contiguous halves.
func TestRacksPartition(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
		k    int
	}{
		{"ring", must(Ring(8, 1)), 3},
		{"mesh", must(Mesh2D(2, 3, 1)), 2},
		{"hypercube", must(Hypercube(3, 1)), 4},
		{"star-clamped", must(Star(4, 1)), 9}, // k > m clamps to m
	} {
		racks := tc.g.Racks(tc.k)
		m := tc.g.NumProcs()
		k := tc.k
		if k > m {
			k = m
		}
		if len(racks) != k {
			t.Fatalf("%s: %d racks, want %d", tc.name, len(racks), k)
		}
		seen := make([]bool, m)
		for _, r := range racks {
			if len(r) < m/k || len(r) > m/k+1 {
				t.Fatalf("%s: rack size %d unbalanced for m=%d k=%d", tc.name, len(r), m, k)
			}
			for _, p := range r {
				if seen[p] {
					t.Fatalf("%s: P%d in two racks", tc.name, p)
				}
				seen[p] = true
			}
		}
		for p, ok := range seen {
			if !ok {
				t.Fatalf("%s: P%d in no rack", tc.name, p)
			}
		}
	}
}

func TestRacksDeterministic(t *testing.T) {
	g := must(Torus2D(3, 3, 1))
	a, b := g.Racks(3), g.Racks(3)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("Racks is not deterministic")
			}
		}
	}
}
