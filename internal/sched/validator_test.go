package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"caft/internal/dag"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/timeline"
	"caft/internal/topology"
)

// greedySchedule places every task (topological order) on the processor
// minimizing its finish time — a minimal HEFT-like builder that keeps
// these tests independent of the scheduler packages (which import this
// one).
func greedySchedule(t *testing.T, p *Problem) *Schedule {
	t.Helper()
	c, err := p.G.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(p)
	for _, task := range c.Topo() {
		tid := dag.TaskID(task)
		sources := st.FullSources(tid)
		best, bestFin := -1, 0.0
		for proc := 0; proc < p.Plat.M; proc++ {
			rep, err := st.ProbeReplica(tid, 0, proc, sources)
			if err != nil {
				t.Fatal(err)
			}
			if best < 0 || rep.Finish < bestFin {
				best, bestFin = proc, rep.Finish
			}
		}
		if _, err := st.PlaceReplica(tid, 0, best, sources); err != nil {
			t.Fatal(err)
		}
	}
	return st.Snapshot()
}

// randomValidatorProblem builds a random layered problem for the
// validator tests.
func randomValidatorProblem(rng *rand.Rand, v, m int) *Problem {
	params := gen.RandomParams{MinTasks: v, MaxTasks: v, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, m, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	return &Problem{G: g, Plat: plat, Exec: exec, Model: OnePort, Policy: timeline.Append}
}

// TestValidatorReuseAcrossSchedules runs one Validator over a stream of
// schedules of different shapes: every well-formed schedule is accepted
// and no state leaks between calls.
func TestValidatorReuseAcrossSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewValidator()
	for trial := 0; trial < 8; trial++ {
		p := randomValidatorProblem(rng, 15+rng.Intn(25), 2+rng.Intn(5))
		s := greedySchedule(t, p)
		if err := v.Validate(s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d (fresh validator): %v", trial, err)
		}
	}
}

// TestValidatorRejects pins the rejection messages of the dense
// validator on hand-corrupted schedules.
func TestValidatorRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomValidatorProblem(rng, 20, 4)
	base := greedySchedule(t, p)

	corrupt := func(mutate func(*Schedule)) error {
		s := &Schedule{P: p, Reps: make([][]Replica, len(base.Reps)), Comms: append([]Comm(nil), base.Comms...)}
		for i := range base.Reps {
			s.Reps[i] = append([]Replica(nil), base.Reps[i]...)
		}
		mutate(s)
		return s.Validate()
	}

	cases := []struct {
		name   string
		mutate func(*Schedule)
		want   string
	}{
		{"missing replica", func(s *Schedule) { s.Reps[3] = nil }, "has no replica"},
		{"duplicate processor", func(s *Schedule) {
			r := s.Reps[3][0]
			r.Copy = 1
			s.Reps[3] = append(s.Reps[3], r)
		}, "has two replicas on"},
		{"bad duration", func(s *Schedule) { s.Reps[3][0].Finish += 5 }, "duration"},
		{"processor past m", func(s *Schedule) { s.Reps[3][0].Proc = 4 }, "on P4, outside P0..P3"},
		{"negative processor", func(s *Schedule) { s.Reps[3][0].Proc = -1 }, "on P-1, outside P0..P3"},
		{"comm to unknown task", func(s *Schedule) { s.Comms[0].To = 99 }, "references missing replica"},
		{"comm from unknown task", func(s *Schedule) { s.Comms[0].From = -1 }, "references missing replica"},
		{"dangling comm", func(s *Schedule) {
			if len(s.Comms) == 0 {
				t.Fatal("fixture produced no communications")
			}
			s.Comms[0].SrcCopy = 7
		}, "references missing replica"},
		{"early start", func(s *Schedule) {
			// Move a late replica to time zero, preserving its duration:
			// depending on what delayed it this violates the input-arrival
			// rule or an exclusion constraint, but something must fire.
			for ti := range s.Reps {
				if r := &s.Reps[ti][0]; r.Start > 0 {
					d := r.Finish - r.Start
					r.Start = 0
					r.Finish = d
					return
				}
			}
			t.Fatal("fixture has no delayed replica")
		}, ""},
	}
	for _, tc := range cases {
		err := corrupt(tc.mutate)
		if err == nil {
			t.Fatalf("%s: corrupted schedule accepted", tc.name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidatorNamesResource moves a transfer onto another one that
// shares only its send port, only its receive port or, on the mesh,
// only a shared link, and a replica onto another one on its processor,
// on the clique, a star and a 1×4 mesh. Each move breaks only resource
// exclusion, and the error must name the resource. On the clique and
// the star no link is shared, so the link move stays legal, and under
// macro-dataflow every transfer move does.
func TestValidatorNamesResource(t *testing.T) {
	const m = 4
	star, err := topology.Star(m, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.Mesh2D(1, m, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	var shared []int // the links P0->P2 and P1->P3 both cross on the mesh
	for _, k := range mesh.Route(0, 2) {
		if slices.Contains(mesh.Route(1, 3), k) {
			shared = append(shared, k)
		}
	}
	if len(shared) != 1 {
		t.Fatalf("mesh routes P0->P2 and P1->P3 share links %v, want one", shared)
	}
	g := dag.New(4)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	exec := platform.NewExecMatrix(4, m)
	for task := range exec {
		for proc := range exec[task] {
			exec[task][proc] = 1
		}
	}
	// pair returns a valid schedule of a->c and b->d placed on the given
	// processors (a at [0,1), b at [1,2), a->c at [2,3), b->d at [4,5),
	// c at [5,6), d at [6,7)) under the given network and model.
	pair := func(net Network, model Model, procs [4]int) *Schedule {
		p := &Problem{G: g, Plat: platform.New(m, 1), Exec: exec, Model: model, Net: net}
		s := &Schedule{P: p, Reps: make([][]Replica, 4)}
		for task, start := range []float64{0, 1, 5, 6} {
			s.Reps[task] = []Replica{{Task: dag.TaskID(task), Proc: procs[task], Start: start, Finish: start + 1, Seq: int32(task)}}
		}
		for i, e := range [][2]int{{0, 2}, {1, 3}} {
			start := float64(2 + 2*i)
			s.Comms = append(s.Comms, Comm{
				From: dag.TaskID(e[0]), To: dag.TaskID(e[1]), SrcProc: procs[e[0]], DstProc: procs[e[1]],
				Volume: 1, Dur: 1, Start: start, Finish: start + 1, Seq: int32(4 + i),
			})
		}
		return s
	}
	moveComm := func(s *Schedule) { s.Comms[1].Start, s.Comms[1].Finish = 2, 3 }
	moveRep := func(s *Schedule) { s.Reps[1][0].Start, s.Reps[1][0].Finish = 0.5, 1.5 }
	v := NewValidator()
	for _, nc := range []struct {
		name string
		net  Network
	}{{"clique", nil}, {"star", star}, {"mesh", mesh}} {
		cases := []struct {
			name  string
			procs [4]int
			move  func(*Schedule)
			want  string // "" when the move stays legal
		}{
			{"send port", [4]int{0, 0, 1, 2}, moveComm, "send port P0:"},
			{"recv port", [4]int{1, 2, 0, 0}, moveComm, "recv port P0:"},
			{"shared link", [4]int{0, 1, 2, 3}, moveComm, ""},
			{"compute", [4]int{0, 0, 1, 2}, moveRep, "compute P0:"},
		}
		if nc.name == "mesh" {
			cases[2].want = fmt.Sprintf("link %d:", shared[0])
		}
		for _, tc := range cases {
			for _, model := range []Model{OnePort, MacroDataflow} {
				s := pair(nc.net, model, tc.procs)
				if err := v.Validate(s); err != nil {
					t.Fatalf("%s %s %v: base schedule rejected: %v", nc.name, tc.name, model, err)
				}
				tc.move(s)
				want := tc.want
				if model == MacroDataflow && tc.name != "compute" {
					want = ""
				}
				err := v.Validate(s)
				switch {
				case want == "" && err != nil:
					t.Fatalf("%s %s %v: legal move rejected: %v", nc.name, tc.name, model, err)
				case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
					t.Fatalf("%s %s %v: error %v, want one naming %q", nc.name, tc.name, model, err, want)
				}
			}
		}
	}
}

// TestValidatorAllocPin pins the steady state: after one warm-up pass, a
// reused Validator accepts a same-shaped schedule without allocating —
// the dense replacement for the nested maps the validator used to build
// per call — on the clique and on a 1×5 mesh, whose shared links route
// through the Layout.
func TestValidatorAllocPin(t *testing.T) {
	mesh, err := topology.Mesh2D(1, 5, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range []struct {
		name string
		net  Network
	}{{"clique", nil}, {"mesh", mesh}} {
		rng := rand.New(rand.NewSource(11))
		p := randomValidatorProblem(rng, 40, 5)
		p.Net = nc.net
		s := greedySchedule(t, p)
		if nc.net != nil {
			lay, onLinks := NewLayout(p), 0
			for _, c := range s.Comms {
				if !c.Intra {
					onLinks += len(lay.AppendComm(nil, c.SrcProc, c.DstProc)) - 2
				}
			}
			if onLinks <= 0 {
				t.Fatalf("%s: no transfer crosses a shared link", nc.name)
			}
		}
		v := NewValidator()
		if err := v.Validate(s); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := v.Validate(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state validation allocates %.1f/op, want 0", nc.name, allocs)
		}
	}
}

// BenchmarkValidate measures a reused Validator over a mid-sized
// one-port schedule.
func BenchmarkValidate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	params := gen.RandomParams{MinTasks: 1000, MaxTasks: 1000, MinDegree: 1, MaxDegree: 3, MinVolume: 50, MaxVolume: 150}
	g := gen.RandomLayered(rng, params)
	plat := platform.NewRandom(rng, 8, 0.5, 1.0)
	exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
	p := &Problem{G: g, Plat: plat, Exec: exec, Model: OnePort, Policy: timeline.Append}
	c, err := g.Compile()
	if err != nil {
		b.Fatal(err)
	}
	st := NewState(p)
	for _, task := range c.Topo() {
		tid := dag.TaskID(task)
		if _, err := st.PlaceReplica(tid, 0, int(task)%8, st.FullSources(tid)); err != nil {
			b.Fatal(err)
		}
	}
	s := st.Snapshot()
	v := NewValidator()
	if err := v.Validate(s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Validate(s); err != nil {
			b.Fatal(err)
		}
	}
}
