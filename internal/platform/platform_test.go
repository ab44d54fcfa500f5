package platform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"caft/internal/dag"
	"caft/internal/gen"
)

func TestNewHomogeneous(t *testing.T) {
	p := New(4, 0.75)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		for h := 0; h < 4; h++ {
			want := 0.75
			if h == k {
				want = 0
			}
			if p.Delay[k][h] != want {
				t.Fatalf("Delay[%d][%d] = %v, want %v", k, h, p.Delay[k][h], want)
			}
		}
	}
	if p.MaxDelay() != 0.75 {
		t.Errorf("MaxDelay = %v", p.MaxDelay())
	}
	if p.MeanDelay() != 0.75 {
		t.Errorf("MeanDelay = %v", p.MeanDelay())
	}
}

func TestNewRandomBoundsAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewRandom(rng, 10, 0.5, 1.0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < p.M; k++ {
		for h := 0; h < p.M; h++ {
			d := p.Delay[k][h]
			if k == h {
				if d != 0 {
					t.Fatalf("self delay P%d = %v", k, d)
				}
				continue
			}
			if d < 0.5 || d > 1.0 {
				t.Fatalf("delay P%d->P%d = %v outside [0.5,1]", k, h, d)
			}
			if p.Delay[h][k] != d {
				t.Fatalf("asymmetric delay %d<->%d", k, h)
			}
		}
	}
}

func TestValidateRejectsBadMatrices(t *testing.T) {
	p := New(3, 1)
	p.Delay[1][1] = 0.5
	if p.Validate() == nil {
		t.Error("accepted non-zero diagonal")
	}
	p = New(3, 1)
	p.Delay[0][2] = -1
	if p.Validate() == nil {
		t.Error("accepted negative delay")
	}
	p = New(3, 1)
	p.Delay = p.Delay[:2]
	if p.Validate() == nil {
		t.Error("accepted wrong row count")
	}
}

func TestMeanDelaySingleProcessor(t *testing.T) {
	p := New(1, 0)
	if p.MeanDelay() != 0 {
		t.Errorf("MeanDelay on 1 proc = %v", p.MeanDelay())
	}
}

func TestExecMatrixShapeAndValidate(t *testing.T) {
	g := gen.Chain(5, 10)
	p := New(3, 1)
	e := NewExecMatrix(5, 3)
	if err := e.Validate(g, p); err == nil {
		t.Error("accepted zero execution times")
	}
	for t2 := range e {
		for k := range e[t2] {
			e[t2][k] = 1
		}
	}
	if err := e.Validate(g, p); err != nil {
		t.Fatal(err)
	}
}

func TestExecStatistics(t *testing.T) {
	e := ExecMatrix{{1, 3}, {2, 2}}
	slow := e.Slowest()
	if slow[0] != 3 || slow[1] != 2 {
		t.Errorf("Slowest = %v", slow)
	}
	mean := e.Mean()
	if mean[0] != 2 || mean[1] != 2 {
		t.Errorf("Mean = %v", mean)
	}
}

func TestGenExecHitsTargetGranularity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomLayered(rng, gen.DefaultParams)
		p := NewRandom(rng, 10, 0.5, 1.0)
		for _, target := range []float64{0.2, 1.0, 5.0} {
			e := GenExecForGranularity(rng, g, p, target, DefaultHeterogeneity)
			if e.Validate(g, p) != nil {
				return false
			}
			got := g.Granularity(e.Slowest(), p.MaxDelay())
			if math.Abs(got-target) > 1e-9*target {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestGenExecHeterogeneitySpread(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.RandomLayered(rng, gen.DefaultParams)
	p := NewRandom(rng, 10, 0.5, 1.0)
	e := GenExecForGranularity(rng, g, p, 1.0, DefaultHeterogeneity)
	// With het in [0.5,1], per-task ratio max/min must stay within 2x.
	for ti := range e {
		lo, hi := math.Inf(1), 0.0
		for _, c := range e[ti] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi/lo > 2.0+1e-9 {
			t.Fatalf("task %d spread %v exceeds heterogeneity bound", ti, hi/lo)
		}
	}
}

func TestGenExecZeroEdgeGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := dag.New(3) // no edges: granularity undefined, matrix still valid
	p := New(2, 1)
	e := GenExecForGranularity(rng, g, p, 1.0, DefaultHeterogeneity)
	if err := e.Validate(g, p); err != nil {
		t.Fatal(err)
	}
}
