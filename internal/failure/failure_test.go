package failure

import (
	"math"
	"math/rand"
	"testing"

	"caft/internal/topology"
)

func TestExponentialMeanAndSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := &Exponential{MTBF: []float64{2.0, 0, math.Inf(1), 0.5}}
	sum0, sum3 := 0.0, 0.0
	const n = 20000
	scratch := map[int]float64{}
	for i := 0; i < n; i++ {
		s := e.Sample(rng, scratch)
		if len(s) != 2 {
			t.Fatalf("sample has %d entries, want 2 (P1 and P2 never fail)", len(s))
		}
		if _, ok := s[1]; ok {
			t.Fatal("MTBF 0 processor failed")
		}
		if _, ok := s[2]; ok {
			t.Fatal("infinite-MTBF processor failed")
		}
		sum0 += s[0]
		sum3 += s[3]
	}
	if m := sum0 / n; math.Abs(m-2.0) > 0.05 {
		t.Errorf("P0 mean lifetime %v, want ~2.0", m)
	}
	if m := sum3 / n; math.Abs(m-0.5) > 0.02 {
		t.Errorf("P3 mean lifetime %v, want ~0.5", m)
	}
}

func TestWeibullMTBFCalibration(t *testing.T) {
	// WeibullWithMTBF picks scales so the mean lifetime equals the target
	// regardless of shape; shape 1 must match Exponential's mean too.
	for _, shape := range []float64{0.7, 1.0, 2.0} {
		rng := rand.New(rand.NewSource(2))
		w := WeibullWithMTBF(shape, []float64{3.0})
		sum := 0.0
		const n = 40000
		scratch := map[int]float64{}
		for i := 0; i < n; i++ {
			sum += w.Sample(rng, scratch)[0]
		}
		if m := sum / n; math.Abs(m-3.0) > 0.15 {
			t.Errorf("shape %v: mean lifetime %v, want ~3.0", shape, m)
		}
	}
}

func TestWeibullSkipsNonFailing(t *testing.T) {
	w := &Weibull{Shape: []float64{2, 2}, Scale: []float64{0, math.Inf(1)}}
	s := w.Sample(rand.New(rand.NewSource(3)), nil)
	if len(s) != 0 {
		t.Fatalf("non-failing processors produced %d crash entries", len(s))
	}
}

func TestTraceCyclesDeterministically(t *testing.T) {
	tr := &Trace{Scenarios: []map[int]float64{
		{0: 1.5},
		{1: 2.5, 2: 0.5},
	}}
	scratch := map[int]float64{}
	for round := 0; round < 3; round++ {
		s := tr.Sample(nil, scratch)
		if len(s) != 1 || s[0] != 1.5 {
			t.Fatalf("round %d scenario 0: got %v", round, s)
		}
		s = tr.Sample(nil, scratch)
		if len(s) != 2 || s[1] != 2.5 || s[2] != 0.5 {
			t.Fatalf("round %d scenario 1: got %v", round, s)
		}
	}
	var empty Trace
	if s := empty.Sample(nil, nil); len(s) != 0 {
		t.Fatalf("empty trace produced %v", s)
	}
}

func TestRackCorrelation(t *testing.T) {
	// Racks only (no individual failures): all members of a rack must
	// share one crash instant, and distinct racks must (almost surely)
	// differ.
	mesh, err := topology.Mesh2D(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := mesh.Racks(2)
	r := &Rack{Groups: groups, RackMTBF: 1.0}
	if err := r.Validate(6); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	scratch := map[int]float64{}
	for i := 0; i < 100; i++ {
		s := r.Sample(rng, scratch)
		if len(s) != 6 {
			t.Fatalf("rack sample covers %d of 6 processors", len(s))
		}
		for _, g := range groups {
			for _, p := range g[1:] {
				if s[p] != s[g[0]] {
					t.Fatalf("rack %v not correlated: P%d at %v, P%d at %v", g, g[0], s[g[0]], p, s[p])
				}
			}
		}
		if s[groups[0][0]] == s[groups[1][0]] {
			t.Fatal("two racks crashed at the identical instant")
		}
	}
}

func TestRackLayersIndividualFailures(t *testing.T) {
	// With an individual model layered in, the effective crash time is
	// the min of the rack's and the processor's own.
	groups := [][]int{{0, 1}}
	r := &Rack{Groups: groups, RackMTBF: 5, Proc: &Exponential{MTBF: []float64{5, 5}}}
	rng := rand.New(rand.NewSource(5))
	diverged := false
	scratch := map[int]float64{}
	for i := 0; i < 200; i++ {
		s := r.Sample(rng, scratch)
		if s[0] != s[1] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("individual failures never diverged within a rack")
	}
}

func TestRackValidateRejectsBadPartitions(t *testing.T) {
	cases := []struct {
		name   string
		groups [][]int
	}{
		{"missing", [][]int{{0, 1}}},
		{"duplicate", [][]int{{0, 1}, {1, 2}}},
		{"out-of-range", [][]int{{0, 1, 2}, {3}}},
	}
	for _, c := range cases {
		r := &Rack{Groups: c.groups, RackMTBF: 1}
		if err := r.Validate(3); err == nil {
			t.Errorf("%s: invalid partition accepted", c.name)
		}
	}
}

func TestUniformMTBFRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := UniformMTBF(rng, 50, 2, 4)
	if len(v) != 50 {
		t.Fatalf("got %d values", len(v))
	}
	for _, m := range v {
		if m < 2 || m > 4 {
			t.Fatalf("MTBF %v outside [2,4]", m)
		}
	}
}

func TestSampleReusesScratch(t *testing.T) {
	e := &Exponential{MTBF: []float64{1, 1, 1}}
	rng := rand.New(rand.NewSource(7))
	scratch := map[int]float64{99: 1}
	s := e.Sample(rng, scratch)
	if _, ok := s[99]; ok {
		t.Fatal("scratch not cleared before sampling")
	}
	if len(s) != 3 {
		t.Fatalf("sample has %d entries, want 3", len(s))
	}
}
