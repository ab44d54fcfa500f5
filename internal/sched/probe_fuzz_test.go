package sched

import (
	"math/rand"
	"testing"

	"caft/internal/dag"
	"caft/internal/platform"
	"caft/internal/timeline"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzProblem builds the problem a FuzzProbeOverlay input describes, on
// m processors and under pol. Execution times and unit delays are small
// integers, so probed starts often tie with the ends and starts of
// existing and probe-made reservations. Edge volumes are 0, 1, 2 or 4,
// so zero-length transfers (markers) occur. Edges run from lower to
// higher task IDs, which keeps the graph acyclic and the ID order
// topological. With sink set, one more task receives from every other
// task, so many transfers feed its receive port. With ring set (m = 5
// only), the network is ringWithLeaf, whose shared links get timelines.
func fuzzProblem(t *testing.T, in *fuzzBytes, m int, sink, ring bool, pol timeline.Policy) *Problem {
	rng := rand.New(rand.NewSource(int64(in.next())))
	n := 2 + in.next()%12
	total := n
	if sink {
		total++
	}
	g := dag.New(total)
	volume := func() float64 { return []float64{0, 1, 2, 4}[in.next()%4] }
	for to := 1; to < n; to++ {
		seen := map[int]bool{}
		for k := in.next() % 4; k > 0; k-- {
			if from := in.next() % to; !seen[from] {
				seen[from] = true
				g.AddEdge(dag.TaskID(from), dag.TaskID(to), volume())
			}
		}
	}
	if sink {
		for from := 0; from < n; from++ {
			g.AddEdge(dag.TaskID(from), dag.TaskID(n), volume())
		}
	}
	plat := platform.New(m, 0)
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			d := float64(1 + rng.Intn(3))
			plat.Delay[a][b], plat.Delay[b][a] = d, d
		}
	}
	exec := platform.NewExecMatrix(total, m)
	for task := range exec {
		for q := range exec[task] {
			exec[task][q] = float64(1 + rng.Intn(8))
		}
	}
	p := &Problem{G: g, Plat: plat, Exec: exec, Model: OnePort, Policy: pol}
	if ring && m == 5 {
		p.Net = ringWithLeaf(t)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzProbeOverlay checks every ProbeReplica against PlaceReplica on a
// copy of the state rebuilt from its reservations (checkProbes), under
// both policies, on fuzzer-chosen problems: while an FTSA-style state
// grows, and, when the input asks for a crash cut, for every task after
// the cancellations and time floor of a crash (cancelAfter).
//
// Input layout: m = 2 + b0%4 processors; eps = b1%min(m,3); flag byte
// b2 (bit 0 crash cut, bit 1 fan-in sink task, bit 2 shared-link ring
// network when m = 5); crash victim b3%m at b4/255 of the makespan; then
// the problem (see fuzzProblem). Missing bytes read as zero.
func FuzzProbeOverlay(f *testing.F) {
	f.Add([]byte{2, 1, 1, 1, 128, 7, 10, 1, 0, 2, 0, 1, 3, 1, 0, 2, 1})
	f.Add([]byte{3, 2, 3, 0, 90, 3, 6, 3, 0, 1, 2, 1, 0, 3, 1, 2, 0, 0})
	f.Add([]byte{1, 1, 2, 2, 200, 11, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 7, 4, 60, 5, 12, 2, 0, 1, 3, 2, 1, 0, 2, 3, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		m := 2 + in.next()%4
		eps := in.next() % min(m, 3)
		flags := in.next()
		victim := in.next() % m
		cut := float64(in.next()) / 255
		for _, pol := range []timeline.Policy{timeline.Append, timeline.Insertion} {
			rest := in
			p := fuzzProblem(t, &rest, m, flags&2 != 0, flags&4 != 0, pol)
			st := NewState(p)
			label := "pol " + pol.String()
			growState(t, st, eps, func(tid dag.TaskID, sources []SourceSet) {
				if !checkProbes(t, label, st, nil, tid, 0, sources) {
					t.FailNow()
				}
			})
			if flags&1 == 0 {
				continue
			}
			cancelled := cancelAfter(t, st, victim, cut*st.Snapshot().MakespanAll())
			for task := 0; task < p.G.NumTasks(); task++ {
				tid := dag.TaskID(task)
				if !checkProbes(t, label+" after cancel", st, cancelled, tid, len(st.Reps[tid]), st.FullSources(tid)) {
					t.FailNow()
				}
			}
		}
	})
}
