package simtest_test

import (
	"math/rand"
	"testing"

	"caft/internal/gen"
	"caft/internal/online"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
	"caft/internal/sim/simtest"
	"caft/internal/timeline"
)

// TestValidateRejectsMisroutedTransfers mutates the delivered transfers
// of a fault-free online run of an FTSA schedule one at a time: every
// redirection of a transfer to a processor other than its destination
// replica's, and every flip of its Intra flag, must be rejected, even
// where the mutated transfer overlaps nothing.
func TestValidateRejectsMisroutedTransfers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	params := gen.RandomParams{MinTasks: 30, MaxTasks: 30, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, 5, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	s, err := ftsa.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	e, err := online.NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(nil, online.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := simtest.Validate(p, res, nil); err != nil {
		t.Fatalf("unmutated run: %v", err)
	}
	redirected := 0
	for i := range res.Comms {
		c := &res.Comms[i].Comm
		if !res.Comms[i].Alive {
			continue
		}
		c.Intra = !c.Intra
		if simtest.Validate(p, res, nil) == nil {
			t.Errorf("comm %d (P%d->P%d) with Intra flipped to %v accepted", i, c.SrcProc, c.DstProc, c.Intra)
		}
		c.Intra = !c.Intra
		if c.Intra {
			continue
		}
		dst := c.DstProc
		for q := 0; q < p.Plat.M; q++ {
			if q == dst {
				continue
			}
			c.DstProc = q
			if simtest.Validate(p, res, nil) == nil {
				t.Errorf("comm %d to replica (%d,%d) on P%d redirected to P%d accepted", i, c.To, c.DstCopy, dst, q)
			}
			redirected++
		}
		c.DstProc = dst
	}
	if redirected == 0 {
		t.Fatal("the run delivered no inter-processor transfer to redirect")
	}
}
