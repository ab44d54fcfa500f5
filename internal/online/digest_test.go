package online

import (
	"encoding/binary"
	"errors"
	"fmt"
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
	mesh, err := topology.Mesh2D(2, 3, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
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
				}
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != onlineMakespanDigest {
		t.Fatalf("online makespan digest %s, want %s", got, onlineMakespanDigest)
	}
}
