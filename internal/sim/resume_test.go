package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/sched/ftsa"
	"caft/internal/sched/heft"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// regimeSchedules builds the schedules of the online digest regimes:
// HEFT, FTSA (ε=1) and CAFT (ε=1) on 30 tasks and 6 processors, under
// Append and Insertion, one-port and macro-dataflow, on the clique and
// on a 2×3 mesh.
func regimeSchedules(tb testing.TB) []*sched.Schedule {
	tb.Helper()
	mesh, err := topology.Mesh2D(2, 3, 0.75)
	if err != nil {
		tb.Fatal(err)
	}
	var out []*sched.Schedule
	seed := int64(0)
	for alg := byte(0); alg < 3; alg++ {
		for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
			for _, model := range []sched.Model{sched.OnePort, sched.MacroDataflow} {
				for _, net := range []sched.Network{nil, mesh} {
					seed++
					rng := rand.New(rand.NewSource(seed))
					p := resumeProblem(rng, 30, 6, pol)
					p.Model, p.Net = model, net
					out = append(out, resumeSchedule(tb, p, alg, rng))
				}
			}
		}
	}
	return out
}

// resumeProblem draws a random layered problem with the online tests'
// volumes (50–150).
func resumeProblem(rng *rand.Rand, v, m int, pol timeline.Policy) *sched.Problem {
	params := gen.RandomParams{MinTasks: v, MaxTasks: v, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol}
}

// resumeSchedule schedules p with HEFT (alg 0), FTSA (1) or CAFT (2),
// both fault-tolerant ones at ε=1.
func resumeSchedule(tb testing.TB, p *sched.Problem, alg byte, rng *rand.Rand) *sched.Schedule {
	tb.Helper()
	var s *sched.Schedule
	var err error
	switch alg % 3 {
	case 0:
		s, err = heft.Schedule(p, rng)
	case 1:
		s, err = ftsa.Schedule(p, 1, rng)
	default:
		s, err = core.Schedule(p, 1, rng)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// fromStart replays crashAt from the first op, the pass a Replayer ran
// before it resumed from its fault-free pass.
func (r *Replayer) fromStart(crashAt []float64) {
	copy(r.crashAt, crashAt)
	r.fit()
	r.start(false)
	r.eval(int32(len(r.w.Ops)), r.crashAt, false)
}

// sameReplay fails unless two Replayers over equal wirings hold the
// same latest replay: every op's fate bits (liveness, start, finish and
// death instant), the latency and the latest alive finish.
func sameReplay(tb testing.TB, label string, got, want *Replayer) {
	tb.Helper()
	for i := range want.w.Ops {
		if g, w := got.x[i], want.x[i]; g.alive != w.alive ||
			math.Float64bits(g.start) != math.Float64bits(w.start) ||
			math.Float64bits(g.finish) != math.Float64bits(w.finish) ||
			math.Float64bits(g.died) != math.Float64bits(w.died) {
			tb.Fatalf("%s: op %d: resumed %+v, from the start %+v", label, i, g, w)
		}
	}
	gl, gerr := got.Latency()
	wl, werr := want.Latency()
	if math.Float64bits(gl) != math.Float64bits(wl) || (gerr == nil) != (werr == nil) {
		tb.Fatalf("%s: latency resumed %v (%v), from the start %v (%v)", label, gl, gerr, wl, werr)
	}
	if g, w := got.MaxFinish(), want.MaxFinish(); math.Float64bits(g) != math.Float64bits(w) {
		tb.Fatalf("%s: max finish resumed %v, from the start %v", label, g, w)
	}
}

// checkResume replays crashAt on r, which resumes from its fault-free
// pass, and on ref from the first op, and fails unless the two agree
// and r resumed no later than the first op whose fate the crashes
// change, at the last checkpoint before it.
func checkResume(tb testing.TB, label string, r, ref *Replayer, crashAt []float64) {
	tb.Helper()
	r.ReplayAt(crashAt)
	ref.fromStart(crashAt)
	sameReplay(tb, label, r, ref)
	first := int32(r.w.nOps0)
	for i := range first {
		if ref.x[i] != r.ff.x[i] {
			first = i
			break
		}
	}
	if k := r.firstViolator(); k != first {
		tb.Fatalf("%s: first violator at op %d, first changed op at %d", label, k, first)
	}
	j := len(r.ff.pos) - 1
	for r.ff.pos[j] > first {
		j--
	}
	if r.from != r.ff.pos[j] {
		tb.Fatalf("%s: resumed at op %d, want the checkpoint at %d", label, r.from, r.ff.pos[j])
	}
}

// TestResumeMatchesFullPass compares every resumed replay with a pass
// from the first op on the online digest regimes' schedules: bit for
// bit in every op's fate, the latency and the latest alive finish. The
// crash instants sit at f−Eps, f, f+Eps/2, f+Eps and f+2·Eps of the
// fault-free finish f of every other op, on each processor the op
// runs on, alone and with the next processor crashing at the same
// instant, and at 0, −Inf and +Inf on every processor. Each replay
// must also resume at the checkpoint before the first op whose fate
// its crashes change.
func TestResumeMatchesFullPass(t *testing.T) {
	for si, s := range regimeSchedules(t) {
		r, ref := mustReplayer(t, s), mustReplayer(t, s)
		if _, err := r.FaultFree(); err != nil {
			t.Fatal(err)
		}
		m := s.P.Plat.M
		crashAt := make([]float64, m)
		replay := func(label string) {
			t.Helper()
			checkResume(t, fmt.Sprintf("schedule %d %s %v", si, label, crashAt), r, ref, crashAt)
		}
		never := func() {
			for p := range crashAt {
				crashAt[p] = math.Inf(1)
			}
		}
		for _, tau := range []float64{0, math.Inf(-1), math.Inf(1)} {
			for p := 0; p < m; p++ {
				never()
				crashAt[p] = tau
				replay("single")
			}
		}
		for i := 0; i < r.w.nOps0; i += 2 {
			f := r.ff.x[i].finish
			o := &r.w.Ops[i]
			for _, tau := range []float64{f - sched.Eps, f, f + sched.Eps/2, f + sched.Eps, f + 2*sched.Eps} {
				for _, p := range []int{int(o.P), int(o.Q)} {
					never()
					crashAt[p] = tau
					replay("single")
					crashAt[(p+1)%m] = tau
					replay("pair")
				}
			}
		}
	}
}

// TestExtendMatchesFullPass appends reactive replicas to the wiring —
// each fed by a transfer from a replica of each predecessor, all with
// a start floor — after a resumed crash replay, and checks that
// Extend, which evaluates only the appended ops, gives the replay that
// a pass from the first op over the whole wiring gives.
func TestExtendMatchesFullPass(t *testing.T) {
	for si, s := range regimeSchedules(t) {
		w, err := NewWiring(s, sched.NewLayout(s.P))
		if err != nil {
			t.Fatal(err)
		}
		r, ref := NewReplayerOf(w), NewReplayerOf(w)
		lat, err := r.FaultFree()
		if err != nil {
			t.Fatal(err)
		}
		m := s.P.Plat.M
		crashAt := make([]float64, m)
		rng := rand.New(rand.NewSource(int64(si)))
		for trial := 0; trial < 20; trial++ {
			w.Truncate()
			for p := range crashAt {
				crashAt[p] = math.Inf(1)
			}
			down := rng.Intn(m)
			tau := lat * rng.Float64()
			crashAt[down] = tau
			r.ReplayAt(crashAt)
			for k := 0; k <= trial%3; k++ {
				appendReactive(w, rng, down, tau)
				r.Extend()
			}
			ref.fromStart(crashAt)
			sameReplay(t, fmt.Sprintf("schedule %d trial %d", si, trial), r, ref)
		}
	}
}

// appendReactive appends to w a new replica of a random task on a
// processor other than down, fed from the first replica of each
// predecessor by a transfer of random duration, every op with start
// floor tau.
func appendReactive(w *Wiring, rng *rand.Rand, down int, tau float64) {
	m := w.S.P.Plat.M
	t := dag.TaskID(rng.Intn(len(w.RepOf)))
	proc := (down + 1 + rng.Intn(m-1)) % m
	seq := int32(0)
	for _, rec := range w.Reps {
		seq = max(seq, rec.Seq+1)
	}
	for _, rec := range w.Comms {
		seq = max(seq, rec.Seq+1)
	}
	slots := w.AddSlots(w.CG.InDegree(t))
	copyIdx := len(w.RepOf[t])
	from, _ := w.CG.Pred(t)
	for _, f := range from {
		src := w.Rep(w.TaskOps[f][0])
		c := sched.Comm{From: src.Task, SrcCopy: src.Copy, To: t, DstCopy: copyIdx,
			SrcProc: src.Proc, DstProc: proc, Dur: 10 * rng.Float64(), Seq: seq}
		seq++
		w.Ops[w.AddComm(c, slots)].Floor = tau
	}
	rep := sched.Replica{Task: t, Copy: copyIdx, Proc: proc, Finish: 1 + 10*rng.Float64(), Seq: seq}
	w.Ops[w.AddRep(rep, slots)].Floor = tau
}

// FuzzReplayResume compares a resumed replay with a pass from the first
// op on fuzzer-chosen schedules and crash vectors. The first bytes pick
// the seed, the scheduler (HEFT, FTSA, CAFT), the timeline policy and
// the communication model; each later byte sets one processor's
// instant: 255 never crashes, 254 crashes at -Inf, 253 at 0, and any
// other value b at the fault-free finish of op b mod ops, shifted by
// one of -Eps, 0, Eps/2, Eps and 2·Eps.
func FuzzReplayResume(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 10, 255, 255, 255})
	f.Add([]byte{2, 1, 1, 0, 7, 40, 255, 254})
	f.Add([]byte{3, 2, 0, 1, 253, 90, 91, 92})
	f.Add([]byte{4, 2, 1, 1, 3, 255, 200, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		p := resumeProblem(rng, 8+int(data[0]%16), 4, timeline.Policy(data[2]%2))
		if data[3]%2 == 1 {
			p.Model = sched.MacroDataflow
		}
		s := resumeSchedule(t, p, data[1], rng)
		r, ref := mustReplayer(t, s), mustReplayer(t, s)
		if _, err := r.FaultFree(); err != nil && !errors.Is(err, ErrTaskLost) {
			t.Fatal(err)
		}
		crashAt := make([]float64, p.Plat.M)
		shifts := []float64{-sched.Eps, 0, sched.Eps / 2, sched.Eps, 2 * sched.Eps}
		for k := range crashAt {
			crashAt[k] = math.Inf(1)
			if 4+k >= len(data) {
				continue
			}
			switch b := data[4+k]; b {
			case 255:
			case 254:
				crashAt[k] = math.Inf(-1)
			case 253:
				crashAt[k] = 0
			default:
				crashAt[k] = r.ff.x[int(b)%r.w.nOps0].finish + shifts[int(b)%len(shifts)]
			}
		}
		checkResume(t, fmt.Sprint(crashAt), r, ref, crashAt)
	})
}
