package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"caft/internal/expt"
	"caft/internal/sched"
)

// Response is the wire form of one served schedule. Field order is
// fixed and encoding/json is deterministic over it, so equal requests
// produce byte-identical responses — across runs, worker counts and
// cache hits versus misses.
type Response struct {
	// Key is the canonical content hash of the request (hex) — the
	// cache key, returned so clients can correlate and debug.
	Key    string `json:"key"`
	Alg    string `json:"alg"`
	Eps    int    `json:"eps"`
	Policy string `json:"policy"`
	Model  string `json:"model"`
	Tasks  int    `json:"tasks"`
	Procs  int    `json:"procs"`

	// Latency is the scheduled (zero-crash) latency; Makespan the
	// completion of the very last replica.
	Latency  float64 `json:"latency"`
	Makespan float64 `json:"makespan"`
	Replicas int     `json:"replicas"`
	Messages int     `json:"messages"`

	Schedule ScheduleJSON `json:"schedule"`

	Reliability *ReliabilityResult `json:"reliability,omitempty"`

	// Online carries the reactive makespan distribution of mode=online
	// requests.
	Online *OnlineResult `json:"online,omitempty"`
}

// ScheduleJSON carries the placed replicas and communications. The
// wire records are service-owned (not the internal sched structs):
// camelCase like the rest of the response, and without the journal
// tie-break Seq counter, which has no API meaning.
type ScheduleJSON struct {
	Replicas []ReplicaJSON `json:"replicas"`
	Comms    []CommJSON    `json:"comms"`
}

// ReplicaJSON is one scheduled copy of a task.
type ReplicaJSON struct {
	Task   int     `json:"task"`
	Copy   int     `json:"copy"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// CommJSON is one scheduled data transfer along a precedence edge.
type CommJSON struct {
	From    int     `json:"from"`
	To      int     `json:"to"`
	SrcCopy int     `json:"srcCopy"`
	DstCopy int     `json:"dstCopy"`
	SrcProc int     `json:"srcProc"`
	DstProc int     `json:"dstProc"`
	Volume  float64 `json:"volume"`
	Dur     float64 `json:"dur"`
	Start   float64 `json:"start"`
	Finish  float64 `json:"finish"`
	Intra   bool    `json:"intra"`
}

// ReliabilityResult is the Monte-Carlo estimate section of a response.
type ReliabilityResult struct {
	// Samples is the number of evaluated crash scenarios (engine
	// failures excluded; see ReplayErrors).
	Samples int `json:"samples"`
	// Unreliability is the fraction of scenarios that lost a task.
	Unreliability float64 `json:"unreliability"`
	// MeanLatency averages the latency of the surviving scenarios; null
	// when none survived.
	MeanLatency *float64 `json:"meanLatency"`
	// ReplayErrors counts scenarios the replay engine failed to
	// evaluate; they are excluded from the estimates.
	ReplayErrors int `json:"replayErrors"`
}

// OnlineResult is the online-mode section of a response: the achieved
// makespan distribution over sampled failure traces replayed through
// the event-driven engine (reactive re-mapping unless the spec set
// static).
type OnlineResult struct {
	// Samples is the number of evaluated traces (engine failures
	// excluded; see ReplayErrors).
	Samples int `json:"samples"`
	// Lost counts traces under which some task never completed — zero
	// for reactive runs unless crashes exhaust the platform.
	Lost int `json:"lost"`
	// Unreliability is Lost / Samples.
	Unreliability float64 `json:"unreliability"`
	// Makespan distribution over the completed runs; null when none
	// completed.
	MeanMakespan *float64 `json:"meanMakespan"`
	MinMakespan  *float64 `json:"minMakespan"`
	P50Makespan  *float64 `json:"p50Makespan"`
	P90Makespan  *float64 `json:"p90Makespan"`
	MaxMakespan  *float64 `json:"maxMakespan"`
	// MeanRescheduled is the mean number of reactive re-placements per
	// completed run (0 in static mode).
	MeanRescheduled float64 `json:"meanRescheduled"`
	// ReplayErrors counts traces the engine failed to evaluate.
	ReplayErrors int `json:"replayErrors"`
}

// scratch is the per-worker reusable state: the response encode buffer.
// The library's scheduling state and replayers are rebuilt per problem
// (they are functions of the schedule), but the buffer — the service
// layer's own allocation — amortizes across requests.
//
//caft:confined
type scratch struct {
	buf bytes.Buffer
}

func newScratch() *scratch { return &scratch{} }

// compute resolves, schedules and encodes one request. It runs on
// exactly one pool worker per cache entry; everything here may assume
// single-goroutine access to the problem's state.
func (s *Service) compute(sc *scratch, req *Request) ([]byte, error) {
	p, rng, err := req.buildProblem()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	schedule, err := runScheduler(req.Alg, p, req.Eps, rng)
	if err != nil {
		return nil, fmt.Errorf("scheduling failed: %w", err)
	}

	policy, _ := req.policy()
	model, _ := req.model()
	resp := Response{
		Key:      formatKey(req.hash()),
		Alg:      req.Alg,
		Eps:      req.Eps,
		Policy:   policy.String(),
		Model:    model.String(),
		Tasks:    p.G.NumTasks(),
		Procs:    p.Plat.M,
		Latency:  schedule.ScheduledLatency(),
		Makespan: schedule.MakespanAll(),
		Replicas: schedule.ReplicaCount(),
		Messages: schedule.MessageCount(),
	}
	resp.Schedule.Comms = make([]CommJSON, len(schedule.Comms))
	for i, c := range schedule.Comms {
		resp.Schedule.Comms[i] = CommJSON{
			From: int(c.From), To: int(c.To),
			SrcCopy: c.SrcCopy, DstCopy: c.DstCopy,
			SrcProc: c.SrcProc, DstProc: c.DstProc,
			Volume: c.Volume, Dur: c.Dur,
			Start: c.Start, Finish: c.Finish, Intra: c.Intra,
		}
	}
	resp.Schedule.Replicas = make([]ReplicaJSON, 0, resp.Replicas)
	for t := range schedule.Reps {
		for _, rep := range schedule.Reps[t] {
			resp.Schedule.Replicas = append(resp.Schedule.Replicas, ReplicaJSON{
				Task: int(rep.Task), Copy: rep.Copy, Proc: rep.Proc,
				Start: rep.Start, Finish: rep.Finish,
			})
		}
	}

	if rs := req.Reliability; rs != nil {
		tally, err := expt.EstimateReliability(schedule, rs.buildModel(p.Plat.M), rs.Samples, rs.Seed, s.cfg.MCWorkers)
		if err != nil {
			return nil, fmt.Errorf("reliability estimate failed: %w", err)
		}
		unrel := tally.Unreliability()
		if math.IsNaN(unrel) {
			// Nothing evaluated (every scenario hit a replay-engine
			// error): report 0 with Samples 0 — JSON has no NaN.
			unrel = 0
		}
		rr := &ReliabilityResult{
			Samples:       tally.Draws(),
			Unreliability: unrel,
			ReplayErrors:  tally.ReplayErrors,
		}
		if lat := tally.MeanLatency(); !math.IsNaN(lat) {
			rr.MeanLatency = &lat
		}
		resp.Reliability = rr
	}

	if os := req.Online; os != nil {
		tally, err := expt.EstimateOnline(schedule, os.buildModel(p.Plat.M), os.Samples, os.Seed, s.cfg.MCWorkers, !os.Static)
		if err != nil {
			return nil, fmt.Errorf("online replay failed: %w", err)
		}
		or := &OnlineResult{
			Samples:      tally.Draws(),
			Lost:         tally.Lost,
			ReplayErrors: tally.ReplayErrors,
		}
		if or.Samples > 0 {
			or.Unreliability = tally.Unreliability()
		}
		if n := len(tally.Makespans); n > 0 {
			sorted := append([]float64(nil), tally.Makespans...)
			sort.Float64s(sorted)
			mean := 0.0
			for _, v := range sorted {
				mean += v
			}
			mean /= float64(n)
			or.MeanMakespan = &mean
			or.MinMakespan = &sorted[0]
			or.P50Makespan = &sorted[(n-1)/2]
			or.P90Makespan = &sorted[(n-1)*9/10]
			or.MaxMakespan = &sorted[n-1]
			or.MeanRescheduled = float64(tally.Rescheduled) / float64(n)
		}
		resp.Online = or
	}

	sc.buf.Reset()
	enc := json.NewEncoder(&sc.buf)
	if err := enc.Encode(&resp); err != nil {
		return nil, err
	}
	return append([]byte(nil), sc.buf.Bytes()...), nil
}

// formatKey renders the 128-bit cache key as 32 hex digits.
func formatKey(k hashKey) string { return fmt.Sprintf("%016x%016x", k.a, k.b) }

// runScheduler dispatches through the sched registry: any scheduler
// package linked into the binary is servable by name, with no switch to
// keep in sync with validation.
func runScheduler(alg string, p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
	d, ok := sched.Lookup(alg)
	if !ok {
		return nil, fmt.Errorf("%w: unknown alg %q", ErrBadRequest, alg)
	}
	return d.New(p, eps, rng)
}
