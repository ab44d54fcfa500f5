// Package failure provides stochastic models of processor failures for
// the timed fail-stop replay (sim.Replayer.ReplayTimed). A Model
// samples crash scenarios — maps from processor index to the instant
// the processor permanently stops — from per-processor lifetime
// distributions.
//
// The paper evaluates schedules against static crash subsets; related
// work (Benoit et al., arXiv:0711.1231; Tekawade & Banerjee,
// arXiv:2212.09274) scores mappings under explicit reliability models
// with exponential fault arrivals. This package supplies those models:
// exponential and Weibull lifetimes with heterogeneous per-processor
// MTBF, deterministic trace playback, and a correlated "rack" model in
// which processors grouped by interconnect proximity (see
// topology.Racks) share a common failure mode. Crash instants beyond a
// schedule's makespan are harmless under the timed replay semantics, so
// models may return them freely.
//
// Monte-Carlo estimation of unreliability (the probability that a
// schedule loses a task) and of expected latency over sampled scenarios
// lives in package expt (RunReliability); see DESIGN.md S4.
//
//caft:deterministic
package failure

import (
	"fmt"
	"math"
	"math/rand"
)

// Model samples crash scenarios. Implementations must be deterministic
// functions of the rng stream, so experiment units that derive their
// seeds up front stay reproducible for any worker count.
type Model interface {
	// Sample draws one scenario into dst and returns it. dst is cleared
	// first; a nil dst allocates a fresh map. Processors absent from the
	// result never fail.
	Sample(rng *rand.Rand, dst map[int]float64) map[int]float64
}

func reset(dst map[int]float64) map[int]float64 {
	if dst == nil {
		return map[int]float64{}
	}
	clear(dst)
	return dst
}

// Exponential models independent memoryless lifetimes: processor p
// fails at an Exp(1/MTBF[p]) instant. A non-positive or infinite MTBF
// marks a processor that never fails.
type Exponential struct {
	MTBF []float64 // mean time between failures per processor
}

// Sample implements Model.
func (e *Exponential) Sample(rng *rand.Rand, dst map[int]float64) map[int]float64 {
	dst = reset(dst)
	for p, m := range e.MTBF {
		if m > 0 && !math.IsInf(m, 1) {
			dst[p] = rng.ExpFloat64() * m
		}
	}
	return dst
}

func (e *Exponential) String() string { return "exponential" }

// Weibull models lifetimes with shape-dependent hazard rates: processor
// p fails at Scale[p] * (-ln U)^(1/Shape[p]). Shape < 1 yields infant
// mortality (decreasing hazard), shape > 1 wear-out (increasing
// hazard), shape = 1 reduces to Exponential with MTBF = Scale. As with
// Exponential, a non-positive or infinite scale never fails.
type Weibull struct {
	Shape []float64 // per processor, must be > 0 where Scale is finite
	Scale []float64 // per processor
}

// WeibullWithMTBF builds a Weibull model with a uniform shape whose
// per-processor scales are chosen so that the mean lifetime equals
// mtbf[p]: scale = mtbf / Γ(1 + 1/shape).
func WeibullWithMTBF(shape float64, mtbf []float64) *Weibull {
	w := &Weibull{Shape: make([]float64, len(mtbf)), Scale: make([]float64, len(mtbf))}
	g := math.Gamma(1 + 1/shape)
	for p, m := range mtbf {
		w.Shape[p] = shape
		w.Scale[p] = m / g
	}
	return w
}

// Sample implements Model.
func (w *Weibull) Sample(rng *rand.Rand, dst map[int]float64) map[int]float64 {
	dst = reset(dst)
	for p, scale := range w.Scale {
		if scale <= 0 || math.IsInf(scale, 1) {
			continue
		}
		// Inverse transform: U in [0,1) makes 1-U in (0,1], so the log is
		// finite and the lifetime non-negative.
		u := rng.Float64()
		dst[p] = scale * math.Pow(-math.Log(1-u), 1/w.Shape[p])
	}
	return dst
}

func (w *Weibull) String() string { return "weibull" }

// Trace plays back predetermined scenarios in order, cycling once
// exhausted — deterministic replay of recorded failure logs or
// hand-built worst cases. The rng is unused. A Trace is stateful and
// not safe for concurrent use; experiment units must each own one.
type Trace struct {
	Scenarios []map[int]float64
	next      int
}

// Sample implements Model by copying the next scenario.
func (t *Trace) Sample(_ *rand.Rand, dst map[int]float64) map[int]float64 {
	dst = reset(dst)
	if len(t.Scenarios) == 0 {
		return dst
	}
	s := t.Scenarios[t.next%len(t.Scenarios)]
	t.next++
	for p, tau := range s { //caft:unordered-ok map-to-map copy is order-insensitive
		dst[p] = tau
	}
	return dst
}

func (t *Trace) String() string { return "trace" }

// Rack correlates failures within processor groups: every rack has an
// exponential common-mode lifetime with mean RackMTBF (a power feed, a
// top-of-rack switch) that takes down all its members at once, layered
// over an optional per-processor model Proc. A processor's crash
// instant is the earlier of its rack's failure and its individual one.
// Groups is a partition of the processors, typically derived from the
// interconnect with topology.Racks.
type Rack struct {
	Groups   [][]int
	RackMTBF float64
	Proc     Model // individual failures; nil means racks only
}

// Validate checks that Groups forms a partition of 0..m-1.
func (r *Rack) Validate(m int) error {
	seen := make([]bool, m)
	for _, g := range r.Groups {
		for _, p := range g {
			if p < 0 || p >= m {
				return fmt.Errorf("failure: rack member P%d outside platform of %d", p, m)
			}
			if seen[p] {
				return fmt.Errorf("failure: P%d appears in two racks", p)
			}
			seen[p] = true
		}
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("failure: P%d belongs to no rack", p)
		}
	}
	return nil
}

// Sample implements Model. The individual draws (Proc) consume the rng
// first, then one rack draw per group in Groups order — a fixed stream
// layout, so scenarios are reproducible from the rng seed.
func (r *Rack) Sample(rng *rand.Rand, dst map[int]float64) map[int]float64 {
	if r.Proc != nil {
		dst = r.Proc.Sample(rng, dst)
	} else {
		dst = reset(dst)
	}
	for _, g := range r.Groups {
		if r.RackMTBF <= 0 || math.IsInf(r.RackMTBF, 1) {
			continue
		}
		tau := rng.ExpFloat64() * r.RackMTBF
		for _, p := range g {
			if own, ok := dst[p]; !ok || tau < own {
				dst[p] = tau
			}
		}
	}
	return dst
}

func (r *Rack) String() string { return fmt.Sprintf("racks-%d", len(r.Groups)) }

// UniformMTBF draws a heterogeneous MTBF vector: m values uniform in
// [lo, hi]. Scaling [lo, hi] against a schedule's fault-free latency
// puts the failure window in a chosen relation to the execution window
// (the knob RunReliability sweeps).
func UniformMTBF(rng *rand.Rand, m int, lo, hi float64) []float64 {
	out := make([]float64, m)
	for p := range out {
		out[p] = lo + rng.Float64()*(hi-lo)
	}
	return out
}
