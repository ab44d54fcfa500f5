// Package caft is the public API of the CAFT library: contention-aware
// fault-tolerant scheduling of precedence task graphs on heterogeneous
// platforms under the bidirectional one-port communication model, after
// Benoit, Hakem, Robert (INRIA RR-6606 / ICPP 2008).
//
// The implementation lives in internal packages; this facade re-exports
// the types and entry points a downstream user needs:
//
//	g := caft.NewDAG(4)
//	g.AddEdge(0, 1, 40)                       // edge volumes
//	plat := caft.NewRandomPlatform(rng, 4, 0.5, 1.0)
//	exec := caft.GenExecForGranularity(rng, g, plat, 1.0)
//	p := &caft.Problem{G: g, Plat: plat, Exec: exec}
//	s, err := caft.ScheduleCAFT(p, 1, rng)    // tolerate 1 failure
//	rep, _ := caft.NewReplayer(s)
//	lb, _ := rep.LowerBound()
//	lat, _ := rep.CrashLatency(map[int]bool{2: true})
//
// A zero Problem.Model is the one-port model and a zero Problem.Policy
// is the paper's append reservation policy; set Problem.Net to a
// topology.Graph for sparse interconnects.
package caft

import (
	"math"
	"math/rand"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/expt"
	"caft/internal/failure"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftbar"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/sched/hoft"
	"caft/internal/sim"
)

// Re-exported model types.
type (
	// DAG is a weighted directed acyclic task graph.
	DAG = dag.DAG
	// TaskID identifies a task in a DAG.
	TaskID = dag.TaskID
	// Edge is a precedence constraint carrying a data volume.
	Edge = dag.Edge
	// Platform is a set of processors with pairwise unit link delays.
	Platform = platform.Platform
	// ExecMatrix holds E(t, P), the execution time of each task on each
	// processor.
	ExecMatrix = platform.ExecMatrix
	// Problem bundles a DAG, a platform, an execution matrix and the
	// communication model.
	Problem = sched.Problem
	// Schedule is an immutable fault-tolerant schedule: replicas and
	// communications with their resource reservations.
	Schedule = sched.Schedule
	// Replica is one scheduled copy of a task.
	Replica = sched.Replica
	// Comm is one scheduled data transfer.
	Comm = sched.Comm
	// Metrics summarizes a schedule's resource usage.
	Metrics = sched.Metrics
	// Network abstracts the interconnect (clique by default).
	Network = sched.Network
	// CAFTOptions tunes the CAFT variants (locking mode, greedy or
	// replicated-only placement).
	CAFTOptions = core.Options
	// Replayer replays one schedule against fault scenarios, reusing
	// its tables across calls: LowerBound (no failure), UpperBound (the
	// latency guaranteed even when eps processors fail), CrashLatency
	// (fail-stop processors) and CrashLatencyAt (timed crashes). Crashes
	// beyond the schedule's tolerance that lose a task return an error.
	// A Replayer is not safe for concurrent use.
	Replayer = sim.Replayer
	// ReplayResult holds the replayed times of every replica and
	// communication after fault injection.
	ReplayResult = sim.Result
	// FailureModel samples per-processor crash-time scenarios for the
	// timed fail-stop replay.
	FailureModel = failure.Model
	// ExponentialFailures draws independent memoryless lifetimes with
	// heterogeneous per-processor MTBF.
	ExponentialFailures = failure.Exponential
	// WeibullFailures draws Weibull lifetimes (shape < 1 infant
	// mortality, > 1 wear-out).
	WeibullFailures = failure.Weibull
	// TraceFailures plays back predetermined crash scenarios.
	TraceFailures = failure.Trace
	// RackFailures correlates failures within processor groups (e.g.
	// topology.Racks proximity groups).
	RackFailures = failure.Rack
)

// NewDAG returns a DAG with n unnamed tasks and no edges.
func NewDAG(n int) *DAG { return dag.New(n) }

// NewPlatform returns m fully connected processors with a homogeneous
// unit link delay.
func NewPlatform(m int, delay float64) *Platform { return platform.New(m, delay) }

// NewRandomPlatform draws symmetric unit link delays uniformly from
// [lo, hi] (the paper uses [0.5, 1]).
func NewRandomPlatform(rng *rand.Rand, m int, lo, hi float64) *Platform {
	return platform.NewRandom(rng, m, lo, hi)
}

// GenExecForGranularity builds an execution matrix whose granularity —
// total slowest computation over total slowest communication — hits the
// target exactly.
func GenExecForGranularity(rng *rand.Rand, g *DAG, p *Platform, target float64) ExecMatrix {
	return platform.GenExecForGranularity(rng, g, p, target, platform.DefaultHeterogeneity)
}

// ScheduleCAFT runs the paper's contribution: a schedule tolerating eps
// arbitrary fail-stop processor failures with contention-aware
// replication. eps = 0 reduces to HEFT.
func ScheduleCAFT(p *Problem, eps int, rng *rand.Rand) (*Schedule, error) {
	return core.Schedule(p, eps, rng)
}

// ScheduleCAFTOpts runs a specific CAFT variant (greedy one-to-one,
// replicated-only, or the literal paper locking for ablations).
func ScheduleCAFTOpts(p *Problem, eps int, rng *rand.Rand, opts CAFTOptions) (*Schedule, error) {
	s, _, err := core.ScheduleOpts(p, eps, rng, opts)
	return s, err
}

// ScheduleBatchCAFT runs the windowed batch variant (paper §7).
func ScheduleBatchCAFT(p *Problem, eps, window int, rng *rand.Rand) (*Schedule, error) {
	return core.ScheduleBatch(p, eps, window, rng)
}

// ScheduleFTSA runs the FTSA baseline (fault-tolerant HEFT).
func ScheduleFTSA(p *Problem, eps int, rng *rand.Rand) (*Schedule, error) {
	return ftsa.Schedule(p, eps, rng)
}

// ScheduleFTBAR runs the FTBAR baseline (schedule pressure +
// Minimize-Start-Time).
func ScheduleFTBAR(p *Problem, npf int, rng *rand.Rand) (*Schedule, error) {
	return ftbar.Schedule(p, npf, rng)
}

// ScheduleHEFT runs the fault-free reference scheduler.
func ScheduleHEFT(p *Problem, rng *rand.Rand) (*Schedule, error) {
	return heft.Schedule(p, rng)
}

// ScheduleHOFT runs the fault-free optimistic-finish-time scheduler: a
// HEFT-class list scheduler that ranks and places by the per-(task,
// processor) optimistic finish-time table instead of a single upward
// rank — a one-step lookahead at placement time.
func ScheduleHOFT(p *Problem, rng *rand.Rand) (*Schedule, error) {
	return hoft.Schedule(p, rng)
}

// NewReplayer builds the replay tables of s once; replay it as often as
// needed through the returned Replayer.
func NewReplayer(s *Schedule) (*Replayer, error) { return sim.NewReplayer(s) }

// UniformMTBF draws a heterogeneous per-processor MTBF vector uniform
// in [lo, hi], for the failure models.
func UniformMTBF(rng *rand.Rand, m int, lo, hi float64) []float64 {
	return failure.UniformMTBF(rng, m, lo, hi)
}

// Unreliability estimates by Monte Carlo the probability that the
// schedule loses a task under the failure model: n crash-time
// scenarios are sampled and replayed with timed fail-stop semantics on
// a reused replayer. It returns the loss fraction and the mean latency
// over the surviving scenarios (NaN if none survived). An engine
// failure (any replay error that is not a task loss) aborts the
// estimate rather than being blamed on the schedule.
func Unreliability(s *Schedule, model FailureModel, n int, rng *rand.Rand) (unrel, meanLatency float64, err error) {
	rep, err := sim.NewReplayer(s)
	if err != nil {
		return 0, 0, err
	}
	var tally expt.MCTally
	scratch := map[int]float64{}
	for i := 0; i < n; i++ {
		lat, err := rep.CrashLatencyAt(model.Sample(rng, scratch))
		tally.Record(lat, err)
		if tally.ReplayErrors > 0 {
			return 0, 0, err
		}
	}
	if n == 0 {
		return 0, math.NaN(), nil
	}
	return tally.Unreliability(), tally.MeanLatency(), nil
}
