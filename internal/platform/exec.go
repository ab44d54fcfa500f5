package platform

import (
	"fmt"
	"math"
	"math/rand"

	"caft/internal/dag"
)

// ExecMatrix holds E(t, Pk): the execution time of each task on each
// processor. Rows are tasks, columns processors.
type ExecMatrix [][]float64

// NewExecMatrix allocates a v x m matrix of zeros.
func NewExecMatrix(v, m int) ExecMatrix {
	e := make(ExecMatrix, v)
	cells := make([]float64, v*m)
	for t := range e {
		e[t], cells = cells[:m], cells[m:]
	}
	return e
}

// Validate checks the matrix shape against a DAG and platform and that
// all execution times are strictly positive and finite.
func (e ExecMatrix) Validate(g *dag.DAG, p *Platform) error {
	if len(e) != g.NumTasks() {
		return fmt.Errorf("exec: %d rows, want %d tasks", len(e), g.NumTasks())
	}
	for t := range e {
		if len(e[t]) != p.M {
			return fmt.Errorf("exec: row %d has %d cols, want %d", t, len(e[t]), p.M)
		}
		for k, c := range e[t] {
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 1) {
				return fmt.Errorf("exec: E(t%d, P%d) = %v is not positive and finite", t, k, c)
			}
		}
	}
	return nil
}

// Slowest returns max_P E(t,P) for each task (the numerator terms of the
// granularity definition).
func (e ExecMatrix) Slowest() []float64 {
	out := make([]float64, len(e))
	for t := range e {
		m := 0.0
		for _, c := range e[t] {
			if c > m {
				m = c
			}
		}
		out[t] = m
	}
	return out
}

// Mean returns the average execution time of each task over all
// processors, the cost model used for priority path lengths.
func (e ExecMatrix) Mean() []float64 {
	out := make([]float64, len(e))
	for t := range e {
		s := 0.0
		for _, c := range e[t] {
			s += c
		}
		out[t] = s / float64(len(e[t]))
	}
	return out
}

// HeterogeneityRange bounds the per-processor spread of execution times
// around a task's base cost when generating matrices: each E(t,P) is
// base(t) * u with u uniform in [Lo, Hi]. The paper does not fix the
// computation heterogeneity model, so we use the standard range-based
// method (Ali et al.) with a moderate default spread.
type HeterogeneityRange struct {
	Lo, Hi float64
}

// DefaultHeterogeneity is the spread used by the paper-parameterized
// experiments.
var DefaultHeterogeneity = HeterogeneityRange{Lo: 0.5, Hi: 1.0}

// GenExecForGranularity builds an execution matrix whose granularity
// g(G,P) — sum of slowest computations over sum of slowest edge
// communications — equals the requested target exactly.
//
// Per-task base costs are drawn uniformly from [0.5, 1.5] and each
// E(t,P) = base(t)*u(t,P) with u drawn from het; the whole matrix is then
// rescaled so that sum_t max_P E(t,P) = target * sum_e V(e) * maxDelay.
func GenExecForGranularity(rng *rand.Rand, g *dag.DAG, p *Platform, target float64, het HeterogeneityRange) ExecMatrix {
	v := g.NumTasks()
	e := NewExecMatrix(v, p.M)
	for t := 0; t < v; t++ {
		base := 0.5 + rng.Float64()
		for k := 0; k < p.M; k++ {
			u := het.Lo + rng.Float64()*(het.Hi-het.Lo)
			e[t][k] = base * u
		}
	}
	den := g.TotalVolume() * p.MaxDelay()
	if den == 0 || target <= 0 {
		return e
	}
	cur := 0.0
	for _, s := range e.Slowest() {
		cur += s
	}
	scale := target * den / cur
	for t := range e {
		for k := range e[t] {
			e[t][k] *= scale
		}
	}
	return e
}
