package expt

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"caft/internal/sched"
	"caft/internal/sim"
)

// Replay-level predictability must hold for every scheduler in the
// registry: replaying any committed schedule with shrunk per-task
// durations never increases the makespan, and stretching never
// decreases it. A scheduler entering the registry buys into this
// property automatically — the sweep iterates sched.Registered(), so
// there is no list here to forget to extend.
func TestJitterReplayMonotoneEveryRegisteredScheduler(t *testing.T) {
	rows, err := RunJitter(io.Discard, 3, 2, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("only %d schedulers swept, want the full registry (>= 6)", len(rows))
	}
	for _, r := range rows {
		if r.Trials != 3*jitterTrials {
			t.Errorf("%s: %d trials, want %d", r.Alg, r.Trials, 3*jitterTrials)
		}
		if r.ShrinkViol != 0 || r.StretchViol != 0 {
			t.Errorf("%s: replay monotonicity violated (shrink %d, stretch %d) — the frozen-schedule replay must be predictable",
				r.Alg, r.ShrinkViol, r.StretchViol)
		}
		if r.Verdict() != "predictable" {
			t.Errorf("%s: verdict %q", r.Alg, r.Verdict())
		}
	}
}

// Jittered replays of a frozen schedule are monotone in the durations:
// factors <= 1 may only move completions (and the makespan) down,
// factors >= 1 only up. This is the replay-level predictability claim
// of DESIGN.md S9 — checked here per completion, not just for the
// makespan, on scaled copies of HEFT and CAFT ε = 1 schedules. Shrink
// factors are all below 1, so the shrunk makespan must also drop
// strictly, and the copies must leave the original schedule intact.
func TestScaledReplayMonotonePerCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	replay := func(s *sched.Schedule) *sim.Result {
		rep, err := sim.NewReplayer(s)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Replay(nil)
	}
	for trial := 0; trial < 4; trial++ {
		alg, eps := "heft", 0
		if trial%2 == 1 {
			alg, eps = "caft", 1
		}
		p := randomProblem(rng, 6, 1)
		s, err := algo(alg).New(p, eps, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := p.G.NumTasks()
		shrink, stretch := make([]float64, n), make([]float64, n)
		for i := range shrink {
			shrink[i] = 0.5 + 0.5*rng.Float64()
			stretch[i] = 1 + 0.5*rng.Float64()
		}
		base, committed := replay(s), s.ScheduledLatency()
		down := replay(scaledCopy(s, shrink))
		up := replay(scaledCopy(s, stretch))
		if s.ScheduledLatency() != committed {
			t.Fatalf("trial %d (%s): scaling a copy changed the original schedule", trial, alg)
		}
		bl, _ := base.Latency()
		if dl, _ := down.Latency(); dl >= bl {
			t.Fatalf("trial %d (%s): shrinking every task did not lower the makespan", trial, alg)
		}
		for ti := range base.Reps {
			for ri := range base.Reps[ti] {
				b, d, u := base.Reps[ti][ri], down.Reps[ti][ri], up.Reps[ti][ri]
				if d.Finish > b.Finish+1e-9 {
					t.Fatalf("trial %d (%s): shrunk replica (%d,%d) finishes at %v, after nominal %v", trial, alg, ti, ri, d.Finish, b.Finish)
				}
				if u.Finish < b.Finish-1e-9 {
					t.Fatalf("trial %d (%s): stretched replica (%d,%d) finishes at %v, before nominal %v", trial, alg, ti, ri, u.Finish, b.Finish)
				}
			}
		}
	}
}

// Dispatch-level anomalies are expected to exist, and this pins one
// found empirically: at base seed 1, graph 1, re-running CAFT on a
// uniformly shrunk execution-estimate matrix yields a schedule with a
// WORSE makespan than the nominal dispatch — Graham's timing anomaly at
// the level where this codebase makes decisions. The documented
// expected-failure case of the predictability story: frozen schedules
// are safe to replay under jitter, re-dispatching on jittered estimates
// is not.
func TestJitterDispatchAnomalyExists(t *testing.T) {
	d, ok := sched.Lookup("caft")
	if !ok {
		t.Fatal("caft not registered")
	}
	anomalies := 0
	for gi := 0; gi < 2; gi++ {
		u, err := runJitterUnit(d, unitSeed(1, int(d.ID), gi))
		if err != nil {
			t.Fatal(err)
		}
		if u.shrinkViol != 0 || u.stretchViol != 0 {
			t.Fatalf("graph %d: replay level violated (shrink %d, stretch %d)", gi, u.shrinkViol, u.stretchViol)
		}
		anomalies += u.dispatchAnom
	}
	if anomalies == 0 {
		t.Fatal("pinned dispatch anomaly vanished: caft at seed 1 no longer shows a Graham anomaly on shrunk estimates")
	}
}

// RunJitter's output is a pure function of (graphs, seed, selection):
// byte-identical across worker counts, and — because unit seeds are
// keyed by registry ID — a scheduler's row is the same whether the
// sweep runs filtered to it or over the whole registry.
func TestJitterDeterministicAndFilterStable(t *testing.T) {
	var full bytes.Buffer
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		if _, err := RunJitter(&buf, 2, 1, workers, ""); err != nil {
			t.Fatal(err)
		}
		if full.Len() == 0 {
			full = buf
		} else if !bytes.Equal(full.Bytes(), buf.Bytes()) {
			t.Fatalf("jitter output differs between -workers 1 and 8:\n%s\nvs\n%s", full.Bytes(), buf.Bytes())
		}
	}
	var hoftOnly bytes.Buffer
	if _, err := RunJitter(&hoftOnly, 2, 1, 0, "hoft"); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, line := range strings.Split(full.String(), "\n") {
		if strings.HasPrefix(line, "hoft\t") {
			want = line
		}
	}
	if want == "" {
		t.Fatalf("no hoft row in full sweep:\n%s", full.String())
	}
	if !strings.Contains(hoftOnly.String(), want+"\n") {
		t.Fatalf("filtered hoft row differs from full-sweep row %q:\n%s", want, hoftOnly.String())
	}

	if _, err := RunJitter(io.Discard, 1, 1, 0, "nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown -alg filter accepted: %v", err)
	}
}
