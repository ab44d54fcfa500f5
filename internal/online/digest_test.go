package online

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/sim"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// onlineMakespanDigest is the pinned digest of TestOnlineMakespanDigest.
const onlineMakespanDigest = "bd124e59ef2ad15a"

// TestOnlineMakespanDigest pins the reactive engine's Monte-Carlo entry
// point bit for bit across every regime it serves: HEFT, FTSA and CAFT
// schedules under Append and Insertion, one-port and macro-dataflow,
// on the clique and on a 2x3 mesh. Each combination replays 40 traces
// with rescheduling on and crash instants spread over [0, 1.3h], h the
// no-failure horizon, and folds (latency bits, reactive placements,
// lost) of every replay into one FNV-64a digest.
func TestOnlineMakespanDigest(t *testing.T) {
	h := fnv.New64a()
	put := digestWriter(h)
	digestRegimes(t, func(seed int64, e *Engine, rng *rand.Rand) {
		horizon := horizonOf(t, e)
		for draw := 0; draw < 40; draw++ {
			trace := map[int]float64{}
			for n := 1 + rng.Intn(3); len(trace) < n; {
				trace[rng.Intn(6)] = 1.3 * horizon * rng.Float64()
			}
			lat, resched, err := e.Makespan(trace, Options{Reschedule: true})
			lost := uint64(0)
			if err != nil {
				if !errors.Is(err, sim.ErrTaskLost) {
					t.Fatalf("seed %d draw %d: %v", seed, draw, err)
				}
				lost = 1
			}
			put(math.Float64bits(lat))
			put(uint64(resched))
			put(lost)
		}
	})
	if got := fmt.Sprintf("%016x", h.Sum64()); got != onlineMakespanDigest {
		t.Fatalf("online makespan digest %s, want %s", got, onlineMakespanDigest)
	}
}

// digestWriter returns a function folding one little-endian word into h.
func digestWriter(h hash.Hash64) func(uint64) {
	var buf [8]byte
	return func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// digestRegimes builds the engines the digest tests replay: HEFT, FTSA
// and CAFT schedules of 30 tasks on 6 processors under Append and
// Insertion, one-port and macro-dataflow, on the clique and on a 2x3
// mesh. It calls fn with each engine and the rng that drew it, so a
// test that keeps drawing from rng stays reproducible.
func digestRegimes(t *testing.T, fn func(seed int64, e *Engine, rng *rand.Rand)) {
	t.Helper()
	mesh, err := topology.Mesh2D(2, 3, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	for alg := 0; alg < 3; alg++ {
		for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
			for _, model := range []sched.Model{sched.OnePort, sched.MacroDataflow} {
				for _, net := range []sched.Network{nil, mesh} {
					seed++
					rng := rand.New(rand.NewSource(seed))
					p := randomProblem(rng, 30, 6, pol)
					p.Model, p.Net = model, net
					var s *sched.Schedule
					switch alg {
					case 0:
						s, err = heft.Schedule(p, rng)
					case 1:
						s, err = ftsa.Schedule(p, 1, rng)
					default:
						s, err = core.Schedule(p, 1, rng)
					}
					if err != nil {
						t.Fatal(err)
					}
					e, err := NewEngine(s)
					if err != nil {
						t.Fatal(err)
					}
					fn(seed, e, rng)
				}
			}
		}
	}
}

// remapBoundaryDigest is the pinned digest of TestRemapBoundaryDigest.
const remapBoundaryDigest = "d9366e411703c0c3"

// TestRemapBoundaryDigest pins the re-mapper's done/live split at its
// sched.Eps boundary: a replica finishing within Eps after a crash
// instant counts as done, not as lost work to re-place. Over the
// regimes of digestRegimes, for every fifth replica of the fault-free
// run, its processor and, in a second trace, the next one crash at
// f-Eps, f, f+Eps/2, f+Eps and f+2*Eps, f the replica's fault-free
// finish (the boundary instants of the root timedTraces). Each replay
// with re-mapping folds its latency, reactive placements, executed ops
// and the liveness and times of every replica and transfer into one
// FNV-64a digest. A crash of the replica's own processor loses its
// data either way; a crash of another one leaves a replica done at f
// that the re-mapper must not re-place.
func TestRemapBoundaryDigest(t *testing.T) {
	h := fnv.New64a()
	put := digestWriter(h)
	digestRegimes(t, func(seed int64, e *Engine, _ *rand.Rand) {
		clean, err := e.Run(nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for _, reps := range clean.Reps {
			for _, o := range reps {
				if k++; k%5 != 0 {
					continue
				}
				f := o.Finish
				for _, tau := range []float64{f - sched.Eps, f, f + sched.Eps/2, f + sched.Eps, f + 2*sched.Eps} {
					for _, proc := range []int{o.Rep.Proc, (o.Rep.Proc + 1) % 6} {
						res, err := e.Run(map[int]float64{proc: tau}, Options{Reschedule: true})
						if err != nil {
							t.Fatalf("seed %d crash P%d@%v: %v", seed, proc, tau, err)
						}
						foldRun(t, put, res)
					}
				}
			}
		}
	})
	if got := fmt.Sprintf("%016x", h.Sum64()); got != remapBoundaryDigest {
		t.Fatalf("remap boundary digest %s, want %s", got, remapBoundaryDigest)
	}
}

// foldRun folds a replay's latency, reactive placements, lost tasks,
// executed ops, and the liveness and times of every replica and
// transfer into a digest.
func foldRun(t *testing.T, put func(uint64), res *sim.Result) {
	t.Helper()
	lat, err := res.Latency()
	if err != nil && !errors.Is(err, sim.ErrTaskLost) {
		t.Fatal(err)
	}
	put(math.Float64bits(lat))
	put(uint64(res.Rescheduled))
	put(uint64(len(res.TasksLost)))
	put(uint64(res.Events))
	fold := func(f sim.Fate) {
		if !f.Alive {
			put(0)
			return
		}
		put(1)
		put(math.Float64bits(f.Start))
		put(math.Float64bits(f.Finish))
	}
	for _, rs := range res.Reps {
		for _, r := range rs {
			fold(r.Fate)
		}
	}
	for _, c := range res.Comms {
		fold(c.Fate)
	}
}

// TestMakespanShortcutMatchesEngine replays every trace of
// TestOnlineMakespanDigest through Makespan, which answers a trace with
// no crash before the fault-free latency without a pass, and through
// the engine's full path, with re-mapping on and off, and asks for the
// same latency bits, reactive placements and task loss.
func TestMakespanShortcutMatchesEngine(t *testing.T) {
	shortcuts := 0
	digestRegimes(t, func(seed int64, e *Engine, rng *rand.Rand) {
		horizon := horizonOf(t, e)
		for draw := 0; draw < 40; draw++ {
			trace := map[int]float64{}
			for n := 1 + rng.Intn(3); len(trace) < n; {
				trace[rng.Intn(6)] = 1.3 * horizon * rng.Float64()
			}
			for _, opt := range []Options{{}, {Reschedule: true}} {
				lat, resched, err := e.Makespan(trace, opt)
				if err := e.replay(trace, opt); err != nil {
					t.Fatal(err)
				}
				want, werr := e.rep.Latency()
				if math.Float64bits(lat) != math.Float64bits(want) || resched != e.rescheduled || (err == nil) != (werr == nil) {
					t.Fatalf("seed %d trace %v reschedule=%v: Makespan (%v, %d, %v), full path (%v, %d, %v)",
						seed, trace, opt.Reschedule, lat, resched, err, want, e.rescheduled, werr)
				}
				if ff, _ := e.rep.FaultFree(); e.crashes[0].tau >= ff {
					shortcuts++
				}
			}
		}
	})
	if shortcuts == 0 {
		t.Fatal("no trace took the fault-free shortcut")
	}
	t.Logf("%d replays took the fault-free shortcut", shortcuts)
}
