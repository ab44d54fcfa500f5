// Package core implements CAFT, the Contention-Aware Fault-Tolerant
// scheduling algorithm — the primary contribution of Benoit, Hakem,
// Robert, "Realistic Models and Efficient Algorithms for Fault Tolerant
// Scheduling on Heterogeneous Platforms" (INRIA RR-6606 / ICPP 2008).
//
// CAFT schedules a DAG on a heterogeneous platform under the
// bidirectional one-port model while tolerating ε arbitrary fail-silent
// processor failures through active replication (ε+1 replicas per
// task). Its key idea (Algorithms 5.1 and 5.2 of the paper) is the
// one-to-one mapping procedure: whenever the replicas of the current
// task's predecessors are spread over enough "singleton" processors,
// each replica of a predecessor sends its data to exactly one replica of
// the task, rather than to all of them as FTSA and FTBAR do. Processor
// locking (eq. (7)) keeps the replica chains processor-disjoint, which
// is what preserves resilience: ε failures can kill at most ε of the
// ε+1 disjoint chains. When the one-to-one structure is not available,
// CAFT greedily falls back to fully replicated communications for the
// remaining replicas, which are resilient for the same reason as FTSA.
//
// On fork graphs and outforests this yields at most e(ε+1) messages
// (Prop. 5.1) against e(ε+1)² for FTSA/FTBAR — the linear-vs-quadratic
// gap the paper's experiments trace back to network contention.
//
// # Locking modes
//
// The paper's eq. (7) locks only the chosen processor and the
// processors of the immediate heads. While reproducing the algorithm we
// found that this is not sufficient for DAGs of depth ≥ 2: a replica
// fed through a one-to-one chain dies whenever any processor in its
// transitive chain dies, and the chains hanging off two different
// predecessors may share a deep upstream processor even when the
// immediate head processors are distinct. A single crash of that shared
// processor then starves every replica of the task, violating the
// claimed ε-resilience. On the paper's own experimental parameters
// (random graphs, m = 10, ε ∈ {1,3}) the literal rule loses a task on
// 35-100% of random ε-crash draws (see TestPaperLockingGap and
// EXPERIMENTS.md).
//
// The default SupportLocking mode therefore locks the full support of
// the placed replicas — the transitive set of processors each replica's
// survival depends on — restoring the guarantee of Proposition 5.2
// while preserving the one-to-one communication structure (and hence
// Prop. 5.1's message bound, since supports on outforests are exactly
// the disjoint chains). The same bookkeeping repairs the paper's
// intra-processor suppression rule, which is likewise unsafe when the
// co-located replica is chain-fed. PaperLocking implements eq. (7)
// literally and is kept for ablation studies.
//
//caft:deterministic
package core

import (
	"fmt"
	"math"
	"math/rand"

	"caft/internal/dag"
	"caft/internal/sched"
)

// Locking selects how much of a replica chain the one-to-one mapping
// procedure locks.
type Locking int

const (
	// SupportLocking locks the transitive support of every placed
	// replica of the current task (default; guarantees ε-resilience).
	SupportLocking Locking = iota
	// PaperLocking locks only the chosen processor and the immediate
	// head processors, exactly as eq. (7) of the paper. Not resilient on
	// deep graphs; kept for fidelity ablations.
	PaperLocking
)

// Options tunes CAFT variants.
//
// When neither Greedy nor FullOnly is set, CAFT runs both complete
// schedules — the resilient one-to-one chains are only worth their
// processor-locking cost in some regimes (they win when communication
// and computation are balanced, lose under extreme contention on small
// platforms) — and returns the one with the smaller latency. Both
// candidates tolerate ε failures, so the portfolio does too.
type Options struct {
	Locking Locking
	// Greedy uses one-to-one mapping whenever it is available, exactly
	// as Algorithm 5.1 prescribes, even when fully replicated rounds
	// would produce a better schedule.
	Greedy bool
	// FullOnly disables one-to-one mapping entirely: every replica gets
	// fully replicated inputs (an FTSA-like pattern placed with CAFT's
	// sequential re-probing); used by the A1 ablation.
	FullOnly bool
}

func init() {
	caps := sched.Caps{AcceptsEps: true, Append: true, Insertion: true}
	sched.Register(sched.Descriptor{Name: "caft", ID: 1, Caps: caps, New: Schedule})
	sched.Register(sched.Descriptor{
		Name: "caft-greedy", ID: 2, Caps: caps,
		New: func(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
			return ScheduleOpts(p, eps, rng, Options{Greedy: true})
		},
	})
}

// Schedule runs CAFT with default options, producing a schedule that
// tolerates eps arbitrary fail-stop processor failures. eps = 0 reduces
// to HEFT (paper §6).
func Schedule(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
	return ScheduleOpts(p, eps, rng, Options{})
}

// ScheduleOpts runs CAFT with explicit options.
func ScheduleOpts(p *sched.Problem, eps int, rng *rand.Rand, opts Options) (*sched.Schedule, error) {
	if !opts.Greedy && !opts.FullOnly {
		// Portfolio mode: build both resilient schedules with identical
		// tie-breaking streams and keep the better one.
		if err := validate(p, eps); err != nil {
			return nil, err
		}
		seedA, seedB := rng.Int63(), rng.Int63()
		og, of := opts, opts
		og.Greedy, of.FullOnly = true, true
		sg, err := ScheduleOpts(p, eps, rand.New(rand.NewSource(seedA)), og)
		if err != nil {
			return nil, err
		}
		sf, err := ScheduleOpts(p, eps, rand.New(rand.NewSource(seedB)), of)
		if err != nil {
			return nil, err
		}
		if sg.ScheduledLatency() <= sf.ScheduledLatency() {
			return sg, nil
		}
		return sf, nil
	}
	var c scheduler
	if err := c.init(p, eps, opts); err != nil {
		return nil, err
	}
	return c.run(sched.NewLister(p, rng), 1)
}

type repKey struct {
	task dag.TaskID
	copy int
}

//caft:confined
type scheduler struct {
	st       *sched.State
	eps      int
	opts     Options
	m        int
	allProcs []int // 0..m-1, the unbounded fallback candidate list
	supports map[repKey]procSet
}

// validate checks the problem and that its platform can host eps+1
// replicas.
func validate(p *sched.Problem, eps int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if eps < 0 || eps+1 > p.Plat.M {
		return fmt.Errorf("caft: cannot place %d replicas on %d processors", eps+1, p.Plat.M)
	}
	return nil
}

// init validates the problem and sets c up over a fresh scheduling
// state. It initializes in place, so the scheduler of a one-shot
// schedule can live on the caller's stack.
func (c *scheduler) init(p *sched.Problem, eps int, opts Options) error {
	if err := validate(p, eps); err != nil {
		return err
	}
	*c = scheduler{
		st:       sched.NewState(p),
		eps:      eps,
		opts:     opts,
		m:        p.Plat.M,
		allProcs: make([]int, p.Plat.M),
		supports: map[repKey]procSet{},
	}
	for i := range c.allProcs {
		c.allProcs[i] = i
	}
	return nil
}

// batchTask is the round state of one task: its predecessor edges, the
// singleton pools B̄(tj) of each predecessor's replicas, the number θ
// of one-to-one rounds available, and the processors locked so far.
type batchTask struct {
	t      dag.TaskID
	preds  []dag.Edge
	pools  [][]sched.Replica
	theta  int
	locked procSet
}

// run schedules every task, popping up to window free tasks at a time
// in priority order and placing their replicas in interleaved rounds.
func (c *scheduler) run(l *sched.Lister, window int) (*sched.Schedule, error) {
	var one [1]batchTask // window 1 reuses this buffer without a heap allocation
	batch := one[:0]
	if window > 1 {
		batch = make([]batchTask, 0, window)
	}
	for {
		batch = batch[:0]
		for len(batch) < window {
			t, ok := l.Pop()
			if !ok {
				break
			}
			batch = append(batch, c.prepare(t))
		}
		if len(batch) == 0 {
			break
		}
		if err := c.rounds(batch); err != nil {
			return nil, err
		}
		for i := range batch {
			l.MarkScheduled(batch[i].t, sched.EarliestFinish(c.st.Reps[batch[i].t]))
		}
	}
	if l.Remaining() != 0 {
		return nil, fmt.Errorf("caft: %d tasks never became free (cyclic graph?)", l.Remaining())
	}
	return c.st.Snapshot(), nil
}

// prepare determines the singleton processors X of t — processors
// hosting exactly one replica across all predecessors' replica sets —
// and the pools B̄(tj) of each predecessor's replicas living on them.
// θ = min λj is the number of one-to-one rounds available (capped at
// ε+1; entry tasks trivially allow ε+1 "rounds" of plain placement).
// With FullOnly, θ is forced to zero.
func (c *scheduler) prepare(t dag.TaskID) batchTask {
	st := c.st
	bt := batchTask{t: t, preds: st.P.G.Pred(t), theta: c.eps + 1, locked: newProcSet(c.m)}
	bt.pools = make([][]sched.Replica, len(bt.preds))
	if len(bt.preds) > 0 {
		procCount := map[int]int{}
		for _, e := range bt.preds {
			for _, r := range st.Reps[e.From] {
				procCount[r.Proc]++
			}
		}
		for j, e := range bt.preds {
			for _, r := range st.Reps[e.From] {
				if procCount[r.Proc] == 1 {
					bt.pools[j] = append(bt.pools[j], r)
				}
			}
			if len(bt.pools[j]) < bt.theta {
				bt.theta = len(bt.pools[j])
			}
		}
	}
	if c.opts.FullOnly {
		bt.theta = 0
	}
	return bt
}

// rounds commits the ε+1 replicas of every task of the batch. Round r
// places the r-th replica of every task before any task receives its
// (r+1)-th: through the one-to-one mapping procedure (Algorithm 5.2)
// while r < θ and an eligible candidate remains, with fully replicated
// incoming communications (lines 16-20 of Algorithm 5.1) otherwise.
func (c *scheduler) rounds(batch []batchTask) error {
	for copyIdx := 0; copyIdx <= c.eps; copyIdx++ {
		for i := range batch {
			bt := &batch[i]
			var pl plan
			found, err := c.bestOneToOne(bt, copyIdx, &pl)
			if !found && err == nil {
				found, err = c.bestFull(bt, copyIdx, &pl)
			}
			if !found && err == nil {
				err = fmt.Errorf("caft: no processor available for replica %d of task %d", copyIdx, bt.t)
			}
			if err != nil {
				return err
			}
			if err := c.commit(bt, copyIdx, &pl); err != nil {
				return err
			}
		}
	}
	return nil
}

// support returns the set of processors a replica's survival depends
// on. Replicas without a recorded support (fully replicated inputs,
// entry tasks) depend only on their own processor.
func (c *scheduler) support(r sched.Replica) procSet {
	if s, ok := c.supports[repKey{r.Task, r.Copy}]; ok {
		return s
	}
	s := newProcSet(c.m)
	s.add(r.Proc)
	return s
}

// chained reports whether a replica's survival depends on processors
// beyond its own (i.e., it was fed through one-to-one chains).
func (c *scheduler) chained(r sched.Replica) bool {
	s, ok := c.supports[repKey{r.Task, r.Copy}]
	if !ok {
		return false
	}
	return s.count() > 1 || !s.has(r.Proc)
}

// lockFootprint returns the processor set that locking a head replica
// removes from future rounds: its full support under SupportLocking,
// only its own processor under PaperLocking.
func (c *scheduler) lockFootprint(r sched.Replica) procSet {
	if c.opts.Locking == PaperLocking {
		s := newProcSet(c.m)
		s.add(r.Proc)
		return s
	}
	return c.support(r)
}

// plan is the best candidate placement found for one replica, either
// by One-To-One-Mapping (oneToOne: each source set holds the one head
// replica chosen for its predecessor) or with fully replicated inputs.
// supp is the processor set committing it locks.
type plan struct {
	proc     int
	oneToOne bool
	sources  []sched.SourceSet
	supp     procSet
	finish   float64
}

// bestOneToOne evaluates One-To-One-Mapping (Algorithm 5.2) on every
// unlocked candidate processor: per predecessor it selects the head
// replica — the pool replica whose message would finish earliest on the
// links (the sort of line 3), or a co-located replica if one exists —
// simulates the mapping. It stores the earliest-finishing plan in best
// and reports whether any candidate was eligible; none is once the θ
// one-to-one rounds of the task are used up.
func (c *scheduler) bestOneToOne(bt *batchTask, copyIdx int, best *plan) (bool, error) {
	if copyIdx >= bt.theta {
		return false, nil
	}
	st := c.st
	cands := st.Candidates(bt.t, c.eps+1)
	hosting := st.ProcsOf(bt.t)
	remaining := c.eps - copyIdx // replicas still to place after this one
	found := false
	for _, proc := range cands {
		if bt.locked.has(proc) || hosting[proc] {
			continue
		}
		sources, supp, ok := c.planFor(proc, bt, remaining)
		if !ok {
			continue
		}
		rep, err := st.ProbeReplica(bt.t, copyIdx, proc, sources)
		if err != nil {
			return false, err
		}
		if !found || rep.Finish < best.finish {
			*best = plan{proc: proc, oneToOne: true, sources: sources, supp: supp, finish: rep.Finish}
			found = true
		}
	}
	return found, nil
}

// commit places the replica of a plan, records its support and locks
// the plan's processor set (eq. (7)). A locked processor can neither
// host another replica of t nor feed one, so no two replicas of t ever
// share a point of failure. A fully replicated replica records its
// support only when it inherited a chain. A one-to-one replica's
// support is its processor plus its heads' supports, and committing it
// consumes the pool replicas the new lock made unusable.
func (c *scheduler) commit(bt *batchTask, copyIdx int, pl *plan) error {
	if _, err := c.st.PlaceReplica(bt.t, copyIdx, pl.proc, pl.sources); err != nil {
		return err
	}
	key := repKey{bt.t, copyIdx}
	bt.locked.union(pl.supp)
	if !pl.oneToOne {
		if pl.supp.count() > 1 {
			c.supports[key] = pl.supp
		}
		return nil
	}
	repSupp := newProcSet(c.m)
	repSupp.add(pl.proc)
	for _, set := range pl.sources {
		repSupp.union(c.support(set.Sources[0]))
	}
	c.supports[key] = repSupp
	for j := range bt.pools {
		kept := bt.pools[j][:0]
		for _, r := range bt.pools[j] {
			if !c.lockFootprint(r).intersects(bt.locked) {
				kept = append(kept, r)
			}
		}
		bt.pools[j] = kept
	}
	return nil
}

// planFor builds the one-to-one plan for a candidate processor and
// checks feasibility: after locking the new replica's support, enough
// processors must remain for the outstanding replicas (each needs at
// least one processor outside the locked set). Earliest-arrival heads
// are tried first; if their accumulated support exhausts the processor
// budget, heads are reselected among trivial-support replicas only —
// replicas that die only with their own processor — which keeps the
// replica chains shallow on small platforms.
func (c *scheduler) planFor(proc int, bt *batchTask, remaining int) ([]sched.SourceSet, procSet, bool) {
	for _, trivialOnly := range []bool{false, true} {
		sources, ok := c.chooseHeads(proc, bt, trivialOnly)
		if !ok {
			continue
		}
		supp := newProcSet(c.m)
		supp.add(proc)
		for _, set := range sources {
			supp.union(c.lockFootprint(set.Sources[0]))
		}
		if c.opts.Locking == SupportLocking {
			after := bt.locked.clone()
			after.union(supp)
			if c.m-after.count() < remaining {
				continue
			}
		}
		return sources, supp, true
	}
	return nil, procSet{}, false
}

// chooseHeads picks, for candidate processor proc, one head replica per
// predecessor: a co-located replica when available (free intra transfer,
// and the only safe edge out of proc per the paper's deadlock example),
// otherwise the eligible singleton-pool replica with the earliest
// tentative message arrival on proc. With trivialOnly, heads are
// restricted to replicas whose support is their own processor. It
// returns one single-source set per predecessor, or false when some
// predecessor has no eligible head.
func (c *scheduler) chooseHeads(proc int, bt *batchTask, trivialOnly bool) ([]sched.SourceSet, bool) {
	st := c.st
	sources := make([]sched.SourceSet, 0, len(bt.preds))
	for j, e := range bt.preds {
		var chosen sched.Replica
		found := false
		// Prefer the earliest-finishing co-located replica whose own
		// chain is still disjoint from the locked set.
		for _, r := range st.Reps[e.From] {
			if r.Proc != proc || c.lockFootprint(r).intersects(bt.locked) {
				continue
			}
			if trivialOnly && c.chained(r) {
				continue
			}
			if !found || r.Finish < chosen.Finish {
				chosen = r
				found = true
			}
		}
		if !found {
			bestArr := math.Inf(1)
			for _, r := range bt.pools[j] {
				if c.lockFootprint(r).intersects(bt.locked) {
					continue
				}
				if trivialOnly && c.chained(r) {
					continue
				}
				_, fin := st.ProbeComm(r.Proc, proc, r.Finish, e.Volume)
				if fin < bestArr {
					bestArr = fin
					chosen = r
					found = true
				}
			}
		}
		if !found {
			return nil, false
		}
		sources = append(sources, sched.SourceSet{Pred: e.From, Volume: e.Volume, Sources: []sched.Replica{chosen}})
	}
	return sources, true
}

// bestFull evaluates an FTSA-style round: inputs from every replica of
// every predecessor, candidate processors restricted to unlocked ones
// (relaxed to all processors not hosting t if locking exhausted the
// platform), minimum finish time wins. It stores the winning plan in
// best and reports whether any processor was available.
//
// The paper's intra-suppression rule ("no other copy needs to send to
// P") is only safe as-is when the co-located replica dies exclusively
// with its processor. A co-located replica fed through a one-to-one
// chain can die while P lives. Two safe repairs exist, and the cheaper
// one is taken per predecessor:
//
//   - inherit the chain: keep the suppression and extend this replica's
//     support by the co-located replica's support (zero extra messages,
//     but the support must stay disjoint from the locked set and leave
//     enough processors for later rounds);
//   - AllSend: keep the free intra transfer but let every remote replica
//     of the predecessor send a backup (ε extra messages).
func (c *scheduler) bestFull(bt *batchTask, copyIdx int, best *plan) (bool, error) {
	st, t, locked := c.st, bt.t, bt.locked
	base := st.FullSources(t)
	// The run closure below is invoked twice with ProbeReplica calls in
	// between, which recycle the ProcsOf scratch buffer.
	hosting := st.ProcsOfCopy(t)
	remaining := c.eps - copyIdx
	planFor := func(proc int) ([]sched.SourceSet, procSet) {
		out := append([]sched.SourceSet(nil), base...)
		supp := newProcSet(c.m)
		supp.add(proc)
		if c.opts.Locking == PaperLocking {
			return out, supp // literal paper behavior (ablation)
		}
		for i := range out {
			var co *sched.Replica
			for k := range out[i].Sources {
				if out[i].Sources[k].Proc == proc {
					co = &out[i].Sources[k]
					break
				}
			}
			if co == nil || !c.chained(*co) {
				continue
			}
			s := c.support(*co)
			if !s.intersects(locked) {
				after := locked.clone()
				after.union(supp)
				after.union(s)
				if c.m-after.count() >= remaining {
					supp.union(s)
					continue
				}
			}
			out[i].AllSend = true
		}
		return out, supp
	}
	found := false
	run := func(procs []int, skipLocked bool) error {
		for _, proc := range procs {
			if hosting[proc] || (skipLocked && locked.has(proc)) {
				continue
			}
			sources, supp := planFor(proc)
			rep, err := st.ProbeReplica(t, copyIdx, proc, sources)
			if err != nil {
				return err
			}
			if !found || rep.Finish < best.finish {
				*best = plan{proc: proc, sources: sources, supp: supp, finish: rep.Finish}
				found = true
			}
		}
		return nil
	}
	// Bounded probing first; when it yields nothing, widen to the full
	// processor set before relaxing the lock constraint — bounding must
	// never turn a feasible round infeasible. With ProbeWidth = 0 the
	// candidate list already is the full set and the middle stage is a
	// no-op, preserving the historical two-stage behavior bit-for-bit.
	cands := st.Candidates(t, c.eps+1)
	err := run(cands, true)
	if err == nil && !found && len(cands) < c.m {
		err = run(c.allProcs, true)
	}
	if err == nil && !found {
		err = run(c.allProcs, false)
	}
	return found, err
}
