// Package platform models the target heterogeneous system of the paper:
// a finite set of fully connected processors P = {P1..Pm} where the link
// between Pk and Ph has a unit message delay d(Pk, Ph), and every task t
// has a processor-dependent execution time E(t, Pk).
//
// The communication time of edge (ti, tj) with ti on Pk and tj on Ph is
// W(ti,tj) = V(ti,tj) * d(Pk,Ph), with d(Pk,Pk) = 0 (intra-processor data
// movement is free).
//
//caft:deterministic
package platform

import (
	"fmt"
	"math"
	"math/rand"
)

// Platform describes m processors and the pairwise unit delays of the
// dedicated links between them. Delay is an m x m matrix with zero
// diagonal; Delay[k][h] is the time to ship one unit of data from Pk to
// Ph.
type Platform struct {
	M     int
	Delay [][]float64
}

// New returns a platform of m processors with all inter-processor unit
// delays set to delay (homogeneous network) and a zero diagonal.
func New(m int, delay float64) *Platform {
	p := &Platform{M: m, Delay: make([][]float64, m)}
	for k := 0; k < m; k++ {
		p.Delay[k] = make([]float64, m)
		for h := 0; h < m; h++ {
			if h != k {
				p.Delay[k][h] = delay
			}
		}
	}
	return p
}

// NewRandom returns a platform whose unit delays are drawn uniformly
// from [lo, hi], the paper's [0.5, 1] by default. Links are symmetric
// (d(Pk,Ph) = d(Ph,Pk)); the diagonal is zero.
func NewRandom(rng *rand.Rand, m int, lo, hi float64) *Platform {
	p := New(m, 0)
	for k := 0; k < m; k++ {
		for h := k + 1; h < m; h++ {
			d := lo + rng.Float64()*(hi-lo)
			p.Delay[k][h] = d
			p.Delay[h][k] = d
		}
	}
	return p
}

// Validate checks matrix shape, zero diagonal and non-negative finite
// delays.
func (p *Platform) Validate() error {
	if len(p.Delay) != p.M {
		return fmt.Errorf("platform: delay matrix has %d rows, want %d", len(p.Delay), p.M)
	}
	for k := range p.Delay {
		if len(p.Delay[k]) != p.M {
			return fmt.Errorf("platform: delay row %d has %d cols, want %d", k, len(p.Delay[k]), p.M)
		}
		if p.Delay[k][k] != 0 {
			return fmt.Errorf("platform: non-zero self delay on P%d", k)
		}
		for h, d := range p.Delay[k] {
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 1) {
				return fmt.Errorf("platform: delay P%d->P%d = %v is not non-negative and finite", k, h, d)
			}
		}
	}
	return nil
}

// MaxDelay returns the largest unit delay over all links (the "slowest
// communication" rate used by the granularity definition).
func (p *Platform) MaxDelay() float64 {
	max := 0.0
	for k := range p.Delay {
		for _, d := range p.Delay[k] {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// MeanDelay returns the average unit delay over the m(m-1) directed
// inter-processor links. Used by the average-cost path lengths that
// drive list-scheduling priorities (paper §5, citing HEFT).
func (p *Platform) MeanDelay() float64 {
	if p.M < 2 {
		return 0
	}
	sum := 0.0
	for k := range p.Delay {
		for h, d := range p.Delay[k] {
			if h != k {
				sum += d
			}
		}
	}
	return sum / float64(p.M*(p.M-1))
}
