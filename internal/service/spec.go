// Package service implements the caftd scheduling service: a
// long-running, concurrent front end over the library core that accepts
// scheduling problems as JSON, runs any registered scheduler under
// either reservation policy, and returns the schedule plus optional
// Monte-Carlo reliability estimates — or, in "mode":"online", the
// reactive makespan distribution of the schedule replayed through the
// event-driven online rescheduling engine (internal/online).
//
// The layer is built for serving, not for one-shot CLI runs (see
// DESIGN.md S6):
//
//   - responses are cached content-addressed: a 128-bit FNV-style content hash of
//     the canonicalized problem keys an immutable encoded response, so a
//     repeated request does no scheduling work and allocates nothing in
//     this layer;
//   - duplicate in-flight requests are collapsed singleflight-style:
//     concurrent identical requests trigger exactly one compute and the
//     rest wait on the same cache entry;
//   - computes run on a bounded worker pool. The library types
//     (sched.State, sim.Replayer) are single-goroutine by design, so
//     the pool is the concurrency boundary: each worker owns its
//     scratch and runs one problem at a time;
//   - the reliability Monte-Carlo path fans out in deterministic
//     batches on the expt work-unit pool (expt.EstimateReliability), so
//     every response is a pure function of the request — byte-identical
//     across runs and worker counts.
//
//caft:deterministic
package service

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"caft/internal/dag"
	"caft/internal/failure"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	_ "caft/internal/sched/all" // populate the scheduler registry
	"caft/internal/timeline"
	"caft/internal/topology"
)

// Request is one scheduling problem in wire form. Exactly one of DAG
// (the dagen JSON format, inline) and Generator must be set. Zero
// values of optional fields mean their documented defaults; the
// canonical content hash resolves defaults first, so a minimal request
// and its fully spelled-out form share a cache entry.
type Request struct {
	// Alg selects the scheduler by its registry name (sched.Names():
	// heft, caft, caft-greedy, ftsa, ftbar, ...). Any scheduler
	// registered with the sched registry is servable without service
	// changes.
	Alg string `json:"alg"`
	// Eps is the number of arbitrary fail-stop failures the schedule
	// must tolerate. It must be 0 for fault-free references (schedulers
	// whose capability flags do not accept eps, e.g. heft).
	Eps int `json:"eps,omitempty"`
	// Policy is the timeline reservation policy: append (default) or
	// insertion.
	Policy string `json:"policy,omitempty"`
	// Model is the communication model: one-port (default) or
	// macro-dataflow.
	Model string `json:"model,omitempty"`
	// Seed drives every random draw of the request — platform delays,
	// execution matrix and scheduler tie-breaks — in a fixed stream
	// order, making the response a pure function of the request.
	Seed int64 `json:"seed,omitempty"`

	// DAG is an inline task graph in the dagen JSON format.
	DAG *dag.DAG `json:"dag,omitempty"`
	// Generator describes a generated graph ({kind, n, seed, ...}); see
	// gen.Spec.
	Generator *gen.Spec `json:"generator,omitempty"`

	Platform PlatformSpec `json:"platform"`
	// Topology optionally routes communications over a sparse
	// interconnect instead of the default clique.
	Topology *TopologySpec `json:"topology,omitempty"`

	// Exec is an explicit execution-time matrix E[task][proc]. When
	// absent, a matrix is generated to hit Granularity.
	Exec [][]float64 `json:"exec,omitempty"`
	// Granularity targets the generated execution matrix (default 1.0);
	// it must be 0 when Exec is given.
	Granularity float64 `json:"granularity,omitempty"`

	// Reliability, when set, adds Monte-Carlo reliability and
	// expected-latency estimates to the response.
	Reliability *ReliabilitySpec `json:"reliability,omitempty"`

	// Mode selects the serving product: "schedule" (the default) returns
	// the static schedule; "online" additionally replays sampled failure
	// traces through the event-driven reactive engine (internal/online)
	// and returns the achieved makespan distribution.
	Mode string `json:"mode,omitempty"`
	// Online configures the online-mode Monte Carlo; required exactly
	// when Mode is "online".
	Online *OnlineSpec `json:"online,omitempty"`
}

// PlatformSpec describes the processors. Either Delay (homogeneous unit
// link delay, may be zero) or 0 < DelayLo <= DelayHi (symmetric random
// delays drawn from the request seed) must be used, not both.
type PlatformSpec struct {
	M       int     `json:"m"`
	Delay   float64 `json:"delay,omitempty"`
	DelayLo float64 `json:"delayLo,omitempty"`
	DelayHi float64 `json:"delayHi,omitempty"`
}

// TopologySpec describes a sparse interconnect. Shape selects the
// constructor; the spec's processor count must match the platform's.
type TopologySpec struct {
	// Shape: ring, star, mesh, torus, hypercube, random.
	Shape string `json:"shape"`
	// Rows x Cols sizes mesh and torus.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// K is the hypercube dimension (2^K processors).
	K int `json:"k,omitempty"`
	// Delay is the per-link unit delay of the fixed shapes (default 1).
	Delay float64 `json:"delay,omitempty"`
	// Random shape: a spanning tree plus Extra random edges with delays
	// in [DelayLo, DelayHi], drawn from Seed.
	Extra   int     `json:"extra,omitempty"`
	DelayLo float64 `json:"delayLo,omitempty"`
	DelayHi float64 `json:"delayHi,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
}

// ReliabilitySpec configures the Monte-Carlo reliability estimate:
// Samples crash scenarios drawn from the failure model are replayed
// with timed fail-stop semantics in deterministic batches. MTBF values
// are absolute (same time unit as the schedule); use either MTBF
// (homogeneous) or 0 < MTBFLo <= MTBFHi (heterogeneous per-processor,
// drawn from Seed).
type ReliabilitySpec struct {
	Samples int `json:"samples"`
	// Kind: exponential (default) or weibull.
	Kind string `json:"kind,omitempty"`
	// Shape is the Weibull shape (required for kind weibull; < 1 infant
	// mortality, > 1 wear-out).
	Shape  float64 `json:"shape,omitempty"`
	MTBF   float64 `json:"mtbf,omitempty"`
	MTBFLo float64 `json:"mtbfLo,omitempty"`
	MTBFHi float64 `json:"mtbfHi,omitempty"`
	// Seed drives the scenario draws (and the heterogeneous MTBF
	// vector), independently of the request's scheduling seed.
	Seed int64 `json:"seed,omitempty"`
}

// OnlineSpec configures the online-mode Monte Carlo: Samples failure
// traces drawn from the embedded failure model are replayed through the
// event-driven engine, by default with the reactive re-mapper armed.
// The embedded ReliabilitySpec's fields appear inline on the wire, and
// its Seed drives the trace draws, independently of the scheduling
// seed. Samples is capped at 2^16 traces rather than 2^20, since every
// trace runs the full event engine.
type OnlineSpec struct {
	ReliabilitySpec
	// Static disables the reactive re-mapper: the distribution then
	// reflects what replication alone achieves under the causal online
	// semantics.
	Static bool `json:"static,omitempty"`
}

// maxReliabilitySamples bounds the Monte-Carlo work a single request
// may demand.
const maxReliabilitySamples = 1 << 20

// maxOnlineSamples bounds online-mode replays, which run the full event
// engine (and possibly rescheduling) per trace — heavier than a timed
// replay, so the cap sits lower.
const maxOnlineSamples = 1 << 16

// modeNames lists the serving modes; the index is the canonical enum
// hashed into cache keys.
var modeNames = [...]string{"schedule", "online"}

//caft:zeroalloc
func (r *Request) modeIndex() int {
	if r.Mode == "" {
		return 0
	}
	for i, n := range modeNames {
		if n == r.Mode {
			return i
		}
	}
	return -1
}

// Problem-size bounds: a long-running daemon must not let one tiny
// request allocate an unbounded graph or execution matrix (the body cap
// already bounds inline DAGs; generator and platform specs are the
// cheap-to-ask-expensive-to-build surface). The limits sit far above
// the scale study's v = 3200 regime while keeping the worst-case
// exec-matrix allocation in the tens of megabytes.
const (
	maxServeTasks = 1 << 17 // tasks per problem
	maxServeProcs = 1 << 10 // processors per platform
	maxServeCells = 1 << 22 // tasks x processors (exec-matrix entries)
)

// algID returns the scheduler's registry ID — the canonical enum hashed
// into cache keys (sched.Descriptor.ID, append-only) — or -1 for
// unregistered names (rejected by validate).
//
//caft:zeroalloc
func (r *Request) algID() int {
	if d, ok := sched.Lookup(r.Alg); ok {
		return d.ID
	}
	return -1
}

//caft:zeroalloc
func (r *Request) policy() (timeline.Policy, bool) {
	switch r.Policy {
	case "", timeline.Append.String():
		return timeline.Append, true
	case timeline.Insertion.String():
		return timeline.Insertion, true
	}
	return 0, false
}

//caft:zeroalloc
func (r *Request) model() (sched.Model, bool) {
	switch r.Model {
	case "", sched.OnePort.String():
		return sched.OnePort, true
	case sched.MacroDataflow.String():
		return sched.MacroDataflow, true
	}
	return 0, false
}

var topoShapes = [...]string{"ring", "star", "mesh", "torus", "hypercube", "random"}

//caft:zeroalloc
func (t *TopologySpec) shapeIndex() int {
	for i, n := range topoShapes {
		if n == t.Shape {
			return i
		}
	}
	return -1
}

// delay returns the fixed-shape link delay with its default resolved.
//
//caft:zeroalloc
func (t *TopologySpec) delay() float64 {
	if t.Delay == 0 {
		return 1
	}
	return t.Delay
}

// canonical returns the spec with defaults resolved and the fields its
// shape does not consume zeroed — mirroring gen.Spec.Canonical, so
// junk in unused fields cannot split the cache.
//
//caft:zeroalloc
func (t *TopologySpec) canonical() TopologySpec {
	c := TopologySpec{Shape: t.Shape}
	switch t.Shape {
	case "mesh", "torus":
		c.Rows, c.Cols, c.Delay = t.Rows, t.Cols, t.delay()
	case "hypercube":
		c.K, c.Delay = t.K, t.delay()
	case "random":
		c.Extra, c.DelayLo, c.DelayHi, c.Seed = t.Extra, t.DelayLo, t.DelayHi, t.Seed
	default: // ring, star — and unknown shapes (rejected by validate)
		c.Delay = t.delay()
	}
	return c
}

// granularity returns the target granularity with its default resolved.
//
//caft:zeroalloc
func (r *Request) granularity() float64 {
	if r.Granularity == 0 {
		return 1
	}
	return r.Granularity
}

// validate performs the structural checks that do not require building
// the problem (those run in the worker at compute time). It allocates
// nothing on the accept path, keeping the cache-hit fast path
// allocation-free.
func (r *Request) validate() error {
	d, registered := sched.Lookup(r.Alg)
	if !registered {
		return fmt.Errorf("unknown alg %q (want %s)", r.Alg, strings.Join(sched.Names(), ", "))
	}
	if r.Eps < 0 {
		return fmt.Errorf("negative eps %d", r.Eps)
	}
	if !d.Caps.AcceptsEps && r.Eps != 0 {
		return fmt.Errorf("%s is a fault-free reference; eps must be 0, got %d", r.Alg, r.Eps)
	}
	pol, ok := r.policy()
	if !ok {
		return fmt.Errorf("unknown policy %q (want append or insertion)", r.Policy)
	}
	if !d.Caps.Supports(pol) {
		return fmt.Errorf("%s does not support the %s policy", r.Alg, pol)
	}
	if _, ok := r.model(); !ok {
		return fmt.Errorf("unknown model %q (want one-port or macro-dataflow)", r.Model)
	}
	if (r.DAG == nil) == (r.Generator == nil) {
		return fmt.Errorf("exactly one of dag and generator must be set")
	}
	if r.Generator != nil {
		if err := r.Generator.Validate(); err != nil {
			return err
		}
	}
	if err := r.Platform.validate(); err != nil {
		return err
	}
	tasks := 0
	if r.DAG != nil {
		tasks = r.DAG.NumTasks()
	} else {
		tasks = r.Generator.Tasks()
	}
	if tasks > maxServeTasks {
		return fmt.Errorf("problem has %d tasks, limit %d", tasks, maxServeTasks)
	}
	if r.Platform.M > maxServeProcs {
		return fmt.Errorf("platform has %d processors, limit %d", r.Platform.M, maxServeProcs)
	}
	if tasks > maxServeCells/r.Platform.M {
		return fmt.Errorf("%d tasks x %d processors exceeds the %d-cell execution-matrix limit", tasks, r.Platform.M, maxServeCells)
	}
	if r.Topology != nil {
		if err := r.Topology.validate(r.Platform.M); err != nil {
			return err
		}
	}
	if r.Granularity < 0 {
		return fmt.Errorf("negative granularity %v", r.Granularity)
	}
	if r.Exec != nil && r.Granularity != 0 {
		return fmt.Errorf("granularity and an explicit exec matrix are mutually exclusive")
	}
	if r.Exec != nil && len(r.Exec) == 0 {
		// An empty matrix would re-encode as an absent one (omitempty)
		// under a different cache key.
		return fmt.Errorf("empty exec matrix (omit exec to generate one)")
	}
	if r.Reliability != nil {
		if err := r.Reliability.validate("reliability", maxReliabilitySamples); err != nil {
			return err
		}
	}
	if r.modeIndex() < 0 {
		return fmt.Errorf("unknown mode %q (want schedule or online)", r.Mode)
	}
	if (r.modeIndex() == 1) != (r.Online != nil) {
		return fmt.Errorf("mode online and the online spec must be set together")
	}
	if r.Online != nil {
		if err := r.Online.validate("online", maxOnlineSamples); err != nil {
			return err
		}
	}
	return nil
}

func (p *PlatformSpec) validate() error {
	if p.M < 1 {
		return fmt.Errorf("platform needs at least one processor, got m=%d", p.M)
	}
	random := p.DelayLo != 0 || p.DelayHi != 0
	switch {
	case random && p.Delay != 0:
		return fmt.Errorf("platform delay and delayLo/delayHi are mutually exclusive")
	case random && (p.DelayLo <= 0 || p.DelayHi < p.DelayLo):
		return fmt.Errorf("invalid platform delay range [%v, %v]", p.DelayLo, p.DelayHi)
	case p.Delay < 0:
		return fmt.Errorf("negative platform delay %v", p.Delay)
	}
	return nil
}

func (t *TopologySpec) validate(m int) error {
	if t.shapeIndex() < 0 {
		return fmt.Errorf("unknown topology shape %q (want ring, star, mesh, torus, hypercube or random)", t.Shape)
	}
	if t.Delay < 0 {
		return fmt.Errorf("negative topology delay %v", t.Delay)
	}
	switch t.Shape {
	case "mesh", "torus":
		if t.Rows < 1 || t.Cols < 1 {
			return fmt.Errorf("%s topology needs positive rows x cols, got %dx%d", t.Shape, t.Rows, t.Cols)
		}
		if t.Rows*t.Cols != m {
			return fmt.Errorf("%dx%d %s has %d processors, platform has %d", t.Rows, t.Cols, t.Shape, t.Rows*t.Cols, m)
		}
	case "hypercube":
		if t.K < 1 || t.K > 20 {
			return fmt.Errorf("hypercube dimension %d outside [1, 20]", t.K)
		}
		if 1<<t.K != m {
			return fmt.Errorf("hypercube(%d) has %d processors, platform has %d", t.K, 1<<t.K, m)
		}
	case "random":
		if t.Extra < 0 {
			return fmt.Errorf("negative extra edge count %d", t.Extra)
		}
		if t.DelayLo <= 0 || t.DelayHi < t.DelayLo {
			return fmt.Errorf("random topology needs 0 < delayLo <= delayHi, got [%v, %v]", t.DelayLo, t.DelayHi)
		}
	}
	return nil
}

// validate checks the failure-model spec; label names the spec in the
// sample-count error and maxSamples caps Samples.
func (rs *ReliabilitySpec) validate(label string, maxSamples int) error {
	if rs.Samples < 1 || rs.Samples > maxSamples {
		return fmt.Errorf("%s samples %d outside [1, %d]", label, rs.Samples, maxSamples)
	}
	switch rs.Kind {
	case "", "exponential":
		if rs.Shape != 0 {
			return fmt.Errorf("shape is a weibull parameter")
		}
	case "weibull":
		if rs.Shape <= 0 {
			return fmt.Errorf("weibull needs a positive shape, got %v", rs.Shape)
		}
	default:
		return fmt.Errorf("unknown failure model %q (want exponential or weibull)", rs.Kind)
	}
	random := rs.MTBFLo != 0 || rs.MTBFHi != 0
	switch {
	case random && rs.MTBF != 0:
		return fmt.Errorf("mtbf and mtbfLo/mtbfHi are mutually exclusive")
	case random && (rs.MTBFLo <= 0 || rs.MTBFHi < rs.MTBFLo):
		return fmt.Errorf("invalid MTBF range [%v, %v]", rs.MTBFLo, rs.MTBFHi)
	case !random && rs.MTBF <= 0:
		return fmt.Errorf("mtbf must be positive, got %v", rs.MTBF)
	}
	return nil
}

// buildProblem resolves the request into a scheduling problem. The
// request seed feeds one PRNG whose stream order is fixed — random
// platform delays first, then the generated execution matrix — and the
// same PRNG then drives the scheduler, so everything downstream of the
// spec is deterministic. Runs on the compute path only.
func (r *Request) buildProblem() (*sched.Problem, *rand.Rand, error) {
	g := r.DAG
	if r.Generator != nil {
		var err error
		if g, err = r.Generator.Build(); err != nil {
			return nil, nil, err
		}
	}
	rng := rand.New(rand.NewSource(r.Seed))
	var plat *platform.Platform
	if r.Platform.DelayLo != 0 {
		plat = platform.NewRandom(rng, r.Platform.M, r.Platform.DelayLo, r.Platform.DelayHi)
	} else {
		plat = platform.New(r.Platform.M, r.Platform.Delay)
	}
	exec := platform.ExecMatrix(r.Exec)
	if exec == nil {
		exec = platform.GenExecForGranularity(rng, g, plat, r.granularity(), platform.DefaultHeterogeneity)
	}
	var net sched.Network
	if r.Topology != nil {
		tg, err := r.Topology.build(r.Platform.M)
		if err != nil {
			return nil, nil, err
		}
		net = tg
	}
	policy, _ := r.policy()
	model, _ := r.model()
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: model, Policy: policy, Net: net}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	return p, rng, nil
}

func (t *TopologySpec) build(m int) (*topology.Graph, error) {
	switch t.Shape {
	case "ring":
		return topology.Ring(m, t.delay())
	case "star":
		return topology.Star(m, t.delay())
	case "mesh":
		return topology.Mesh2D(t.Rows, t.Cols, t.delay())
	case "torus":
		return topology.Torus2D(t.Rows, t.Cols, t.delay())
	case "hypercube":
		return topology.Hypercube(t.K, t.delay())
	case "random":
		return topology.RandomConnected(rand.New(rand.NewSource(t.Seed)), m, t.Extra, t.DelayLo, t.DelayHi)
	}
	return nil, fmt.Errorf("unknown topology shape %q", t.Shape)
}

// buildModel resolves the reliability spec into a failure model over m
// processors.
func (rs *ReliabilitySpec) buildModel(m int) failure.Model {
	var mtbf []float64
	if rs.MTBFLo != 0 {
		mtbf = failure.UniformMTBF(rand.New(rand.NewSource(rs.Seed)), m, rs.MTBFLo, rs.MTBFHi)
	} else {
		mtbf = make([]float64, m)
		for i := range mtbf {
			mtbf[i] = rs.MTBF
		}
	}
	if rs.Kind == "weibull" {
		return failure.WeibullWithMTBF(rs.Shape, mtbf)
	}
	return &failure.Exponential{MTBF: mtbf}
}

// hash returns the canonical 128-bit content hash of the request — the
// cache key. Every semantic field is streamed in a fixed order with
// defaults resolved (generator specs through gen.Spec.Canonical), so
// requests that differ only in spelling — omitted versus explicit
// defaults, junk in fields their kind ignores — share a key, and any
// semantic difference changes it. The hash allocates nothing: it is
// part of the cache-hit fast path.
//
//caft:zeroalloc
func (r *Request) hash() hashKey {
	h := newDigest()
	// v2: adds the serving mode and the online Monte-Carlo spec to the
	// canonical stream.
	h.str("caftd-problem-v2")
	h.int(r.algID())
	h.int(r.Eps)
	policy, _ := r.policy()
	model, _ := r.model()
	h.int(int(policy))
	h.int(int(model))
	h.i64(r.Seed)

	if r.DAG != nil {
		h.int(0) // inline-DAG discriminator
		g := r.DAG
		h.int(g.NumTasks())
		for t := 0; t < g.NumTasks(); t++ {
			h.taskName(g, dag.TaskID(t))
			succ := g.Succ(dag.TaskID(t))
			h.int(len(succ))
			for _, e := range succ {
				h.int(int(e.To))
				h.f64(e.Volume)
			}
		}
	} else {
		h.int(1) // generator discriminator
		sp := r.Generator.Canonical()
		h.str(sp.Kind)
		h.int(sp.N)
		h.int(sp.Depth)
		h.f64(sp.Volume)
		h.i64(sp.Seed)
		h.int(sp.MinTasks)
		h.int(sp.MaxTasks)
		h.int(sp.Roots)
		h.int(sp.Degree)
	}

	h.int(r.Platform.M)
	h.f64(r.Platform.Delay)
	h.f64(r.Platform.DelayLo)
	h.f64(r.Platform.DelayHi)

	if r.Topology != nil {
		ts := r.Topology.canonical()
		h.int(r.Topology.shapeIndex())
		h.int(ts.Rows)
		h.int(ts.Cols)
		h.int(ts.K)
		h.f64(ts.Delay)
		h.int(ts.Extra)
		h.f64(ts.DelayLo)
		h.f64(ts.DelayHi)
		h.i64(ts.Seed)
	} else {
		h.int(-1)
	}

	if r.Exec != nil {
		h.int(len(r.Exec))
		for _, row := range r.Exec {
			h.int(len(row))
			for _, v := range row {
				h.f64(v)
			}
		}
	} else {
		h.int(-1)
		h.f64(r.granularity())
	}

	if r.Reliability != nil {
		h.failureModel(r.Reliability)
	} else {
		h.int(-1)
	}

	h.int(r.modeIndex()) // enum, so "" and "schedule" share a key
	if r.Online != nil {
		h.failureModel(&r.Online.ReliabilitySpec)
		if r.Online.Static {
			h.int(1)
		} else {
			h.int(0)
		}
	} else {
		h.int(-1)
	}
	return h.sum()
}

// failureModel streams a failure-model spec — shared by the
// reliability and online sections of the canonical stream.
//
//caft:zeroalloc
func (d *digest) failureModel(rs *ReliabilitySpec) {
	d.int(rs.Samples)
	d.int(rs.kindIndex()) // enum, so "" and "exponential" share a key
	d.f64(rs.Shape)
	d.f64(rs.MTBF)
	d.f64(rs.MTBFLo)
	d.f64(rs.MTBFHi)
	d.i64(rs.Seed)
}

// kindIndex returns the canonical failure-model enum (default
// resolved); -1 for unknown kinds (rejected by validate).
//
//caft:zeroalloc
func (rs *ReliabilitySpec) kindIndex() int {
	switch rs.Kind {
	case "", "exponential":
		return 0
	case "weibull":
		return 1
	}
	return -1
}

// hashKey is the 128-bit cache key: two independently parameterized
// 64-bit lanes over the same canonical field stream. One 64-bit FNV
// would already make accidental collisions unlikely; the second lane
// pushes the birthday bound far past any realistic cache population.
// The key is not a security boundary: a client who can construct
// deliberate collisions can only poison its own deterministic cache
// entries (see DESIGN.md S6).
type hashKey struct{ a, b uint64 }

// digest accumulates the two lanes. Inline rather than hash/fnv
// because that constructor allocates, and hashing sits on the
// allocation-free cache-hit path.
type digest hashKey

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// Second lane: a different odd multiplier and offset (the
	// splitmix64 constant) decorrelate it from the FNV lane.
	altOffset64 = 0x6c62272e07bb0142
	altPrime64  = 0x9e3779b97f4a7c15
)

//caft:zeroalloc
func newDigest() digest { return digest{a: fnvOffset64, b: altOffset64} }

//caft:zeroalloc
func (d *digest) byte(c byte) {
	d.a = (d.a ^ uint64(c)) * fnvPrime64
	d.b = (d.b ^ uint64(c)) * altPrime64
}

//caft:zeroalloc
func (d *digest) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		d.byte(byte(v >> i))
	}
}

//caft:zeroalloc
func (d *digest) int(v int) { d.u64(uint64(int64(v))) }

//caft:zeroalloc
func (d *digest) i64(v int64) { d.u64(uint64(v)) }

//caft:zeroalloc
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

//caft:zeroalloc
func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

// taskName streams g's name for t, byte-identical to str(g.Name(t)).
// Generated "t<id>" names (dag.New materializes them lazily, one
// allocation per Name call) are formatted into a stack buffer instead,
// keeping the cache-hit hash path allocation-free for inline DAGs too.
//
//caft:zeroalloc
func (d *digest) taskName(g *dag.DAG, t dag.TaskID) {
	if !g.GeneratedName(t) {
		d.str(g.Name(t)) //caft:alloc-ok explicit names return the stored string; only the generated path would materialize
		return
	}
	var buf [20]byte
	i := len(buf)
	v := int(t)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	d.u64(uint64(1 + (len(buf) - i)))
	d.byte('t')
	for ; i < len(buf); i++ {
		d.byte(buf[i])
	}
}

//caft:zeroalloc
func (d *digest) sum() hashKey { return hashKey(*d) }
