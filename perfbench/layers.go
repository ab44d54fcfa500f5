package main

// The per-layer adapters of the traced run. Each times calls into one
// layer's public API on inputs drawn like the workload's own, apart from
// the end-to-end runners: a refactor of an inner layer changes only
// this file.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"caft/internal/dag"
	"caft/internal/expt"
	"caft/internal/failure"
	"caft/internal/gen"
	"caft/internal/online"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/service"
	"caft/internal/sim"
	"caft/internal/timeline"
)

// layerSet collects per-layer metrics and the failures seen measuring
// them.
type layerSet struct {
	list              []namedMetric
	attempted, failed int64
	invariant         string
}

func (l *layerSet) add(name, unit string, v float64) {
	l.list = append(l.list, namedMetric{name: name, unit: unit, value: v})
}

func (l *layerSet) fail(what string) {
	l.failed++
	fmt.Fprintf(os.Stderr, "perfbench: layer %s\n", what)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// measureLayers runs every layer's adapter, whatever the workload: the
// traced run of each workload reports the same per-layer metrics.
func measureLayers(cfg sizesConfig, seed int64, workdir string) (*layerSet, error) {
	l := &layerSet{}
	if err := l.scaleLayers(cfg.Scale, seed); err != nil {
		return nil, err
	}
	if err := l.paperLayers(cfg.Paper, seed); err != nil {
		return nil, err
	}
	if err := l.serveLayers(cfg.Serve, seed, workdir); err != nil {
		return nil, err
	}
	return l, nil
}

// scaleLayers times graph generation, compilation and one build per scale
// algorithm and policy on the scale workload's first graph, then replays
// the insertion schedules' reservations through fresh timelines.
func (l *layerSet) scaleLayers(cfg scaleConfig, seed int64) error {
	const genReps = 3
	var genMs, execMs, compileMs []float64
	var g *dag.DAG
	var plat *platform.Platform
	var exec platform.ExecMatrix
	for i := 0; i < genReps; i++ {
		// The same stream as the workload's graph i.
		rng := rand.New(rand.NewSource(subSeed(seed, 1, i)))
		params := gen.DefaultParams
		params.MinTasks, params.MaxTasks = cfg.V, cfg.V
		t := time.Now()
		gi := gen.RandomLayered(rng, params)
		genMs = append(genMs, ms(time.Since(t)))
		pl := platform.NewRandom(rng, cfg.M, 0.5, 1.0)
		t = time.Now()
		ex := platform.GenExecForGranularity(rng, gi, pl, cfg.Granularity, platform.DefaultHeterogeneity)
		execMs = append(execMs, ms(time.Since(t)))
		t = time.Now()
		if _, err := gi.Compile(); err != nil {
			return err
		}
		compileMs = append(compileMs, ms(time.Since(t)))
		if i == 0 {
			g, plat, exec = gi, pl, ex
		}
	}
	l.add("gen.random_layered_ms", "ms", median(genMs))
	l.add("platform.gen_exec_ms", "ms", median(execMs))
	l.add("dag.compile_ms", "ms", median(compileMs))

	var inserted []*sched.Schedule
	for pi, polName := range cfg.Policies {
		pol, err := parsePolicy(polName)
		if err != nil {
			return err
		}
		p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: pol, ProbeWidth: cfg.ProbeWidth}
		for ai, name := range cfg.Algs {
			d, eps, err := lookupAlg(name, cfg.Eps)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(subSeed(seed, 2, pi*len(cfg.Algs)+ai)))
			m0 := mallocs()
			t := time.Now()
			s, err := d.New(p, eps, rng)
			el := time.Since(t)
			m1 := mallocs()
			l.attempted++
			l.add("sched."+name+"."+polName+"_ms", "ms", ms(el))
			l.add("sched."+name+"."+polName+".allocs", "count", float64(m1-m0))
			if err != nil {
				l.fail(name + " " + polName + ": " + err.Error())
				continue
			}
			if pol == timeline.Insertion {
				inserted = append(inserted, s)
			}
		}
	}
	return l.timelineLayer(inserted)
}

// tlOp is one reservation of an insertion schedule: a replica on its
// processor's compute timeline (res[1] < 0), or a remote transfer on its
// source's send port and its destination's receive port at once. ready
// is the time the scheduler searched from.
type tlOp struct {
	ready, start, dur float64
	seq               int32
	res               [2]int
}

// reservationOps returns the reservations of s in placement (Seq) order,
// each with the ready time derived from the schedule: a transfer's is
// its source replica's finish; a replica's is the latest, over its
// predecessors, of the earliest arrival among its incoming transfers
// (an intra transfer arrives at its source's finish). The timelines are
// m compute, m send-port and m receive-port timelines; on the clique
// network a link only ever carries transfers its send port carries
// too, so links add no constraint and are left out.
func reservationOps(s *sched.Schedule) ([]tlOp, error) {
	if s.P.Net != nil {
		return nil, errors.New("reservation replay assumes the clique network")
	}
	m := s.P.Plat.M
	type dst struct {
		to      dag.TaskID
		dstCopy int
		from    dag.TaskID
	}
	arrival := map[dst]float64{}
	finish := map[[2]int]float64{} // (task, copy) -> finish
	for _, reps := range s.Reps {
		for _, r := range reps {
			finish[[2]int{int(r.Task), r.Copy}] = r.Finish
		}
	}
	var ops []tlOp
	for _, c := range s.Comms {
		k := dst{c.To, c.DstCopy, c.From}
		if a, ok := arrival[k]; !ok || c.Finish < a {
			arrival[k] = c.Finish
		}
		if c.Intra {
			continue
		}
		src, ok := finish[[2]int{int(c.From), c.SrcCopy}]
		if !ok {
			return nil, fmt.Errorf("transfer %d->%d from an unplaced replica", c.From, c.To)
		}
		ops = append(ops, tlOp{src, c.Start, c.Finish - c.Start, c.Seq, [2]int{m + c.SrcProc, 2*m + c.DstProc}})
	}
	for t, reps := range s.Reps {
		for _, r := range reps {
			ready := 0.0
			for _, e := range s.P.G.Pred(dag.TaskID(t)) {
				a, ok := arrival[dst{r.Task, r.Copy, e.From}]
				if !ok {
					return nil, fmt.Errorf("replica (%d,%d) has no input from task %d", r.Task, r.Copy, e.From)
				}
				ready = max(ready, a)
			}
			ops = append(ops, tlOp{ready, r.Start, r.Finish - r.Start, r.Seq, [2]int{r.Proc, -1}})
		}
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].seq < ops[b].seq })
	return ops, nil
}

// commonSlot returns the earliest start >= ready at which dur fits on
// both timelines: the fixpoint the scheduler computes for a transfer.
func commonSlot(a, b *timeline.Timeline, ready, dur float64) (float64, int) {
	calls := 0
	for s := ready; ; {
		next := b.EarliestSlot(a.EarliestSlot(s, dur, timeline.Insertion), dur, timeline.Insertion)
		calls += 2
		if next == s {
			return s, calls
		}
		s = next
	}
}

// timelineLayer replays the insertion schedules' reservations through
// fresh timelines in placement order twice: searching each slot with
// EarliestSlot from its ready time before the Add, and Add alone. The
// difference is the gap search's cost. Every searched slot must equal
// the start the scheduler chose, or the replay counts a failure.
func (l *layerSet) timelineLayer(scheds []*sched.Schedule) error {
	var all [][]tlOp
	ops := 0
	for _, s := range scheds {
		o, err := reservationOps(s)
		if err != nil {
			return err
		}
		all = append(all, o)
		ops += len(o)
	}
	if ops == 0 {
		return errors.New("no insertion schedule to replay through timelines")
	}
	maxLen, slotCalls, adds, mismatches := 0, 0, 0, 0
	replay := func(withSlot bool) time.Duration {
		adds = 0
		if withSlot {
			slotCalls, mismatches = 0, 0
		}
		var busy time.Duration
		for i, o := range all {
			tls := make([]timeline.Timeline, 3*scheds[i].P.Plat.M)
			t := time.Now()
			for _, op := range o {
				a := &tls[op.res[0]]
				if withSlot {
					var slot float64
					if op.res[1] < 0 {
						slot = a.EarliestSlot(op.ready, op.dur, timeline.Insertion)
						slotCalls++
					} else {
						var n int
						slot, n = commonSlot(a, &tls[op.res[1]], op.ready, op.dur)
						slotCalls += n
					}
					if slot != op.start {
						mismatches++
					}
				}
				if err := a.Add(op.start, op.dur, op.seq); err != nil {
					l.fail("timeline add: " + err.Error())
				}
				adds++
				if op.res[1] >= 0 {
					if err := tls[op.res[1]].Add(op.start, op.dur, op.seq); err != nil {
						l.fail("timeline add: " + err.Error())
					}
					adds++
				}
			}
			busy += time.Since(t)
			for k := range tls {
				maxLen = max(maxLen, tls[k].Len())
			}
		}
		return busy
	}
	const reps = 3
	both, addOnly := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < reps; i++ {
		both = min(both, replay(true))
		if mismatches > 0 && i == 0 {
			l.failed += int64(mismatches)
			fmt.Fprintf(os.Stderr, "perfbench: layer timeline replay: %d of %d searched slots differ from the scheduler's start\n", mismatches, ops)
		}
		addOnly = min(addOnly, replay(false))
	}
	l.attempted += int64(ops)
	l.add("timeline.earliest_slot_ns", "ns", float64(both-addOnly)/float64(slotCalls))
	l.add("timeline.add_ns", "ns", float64(addOnly)/float64(adds))
	l.add("timeline.intervals_max", "count", float64(maxLen))
	return nil
}

// paperLayers times every registered scheduler and each replay layer on
// the paper workload's first graphs.
func (l *layerSet) paperLayers(cfg paperConfig, seed int64) error {
	graphs := min(cfg.Graphs, 8)
	names := sched.Names()
	algUs := make([][]float64, len(names))
	algAllocs := make([]uint64, len(names))
	var newRepUs, crashUs, sampleUs, engUs []float64
	// Sized up front: no append inside the windows the allocation
	// counts cover may grow them.
	atUs := make([]float64, 0, graphs*len(names)*cfg.TimedSamples)
	mkUs := make([]float64, 0, graphs*len(names)*cfg.OnlineSamples)
	var atAllocs, mkAllocs uint64
	var atCalls, lost, mkCalls, resched int
	crashed := map[int]bool{}
	for gi := 0; gi < graphs; gi++ {
		rng := rand.New(rand.NewSource(subSeed(seed, 1, gi)))
		g, plat, exec := genInstance(rng, cfg.MinTasks, cfg.MaxTasks, cfg.M, cfg.Granularity)
		if _, err := g.Compile(); err != nil {
			return err
		}
		p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
		scheds := make([]*sched.Schedule, len(names))
		heftLat := 0.0
		for ai, name := range names {
			d, eps, err := lookupAlg(name, cfg.Eps)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(subSeed(seed, 2, gi*len(names)+ai)))
			m0 := mallocs()
			t := time.Now()
			s, err := d.New(p, eps, rng)
			el := time.Since(t)
			algAllocs[ai] += mallocs() - m0
			algUs[ai] = append(algUs[ai], us(el))
			l.attempted++
			if err != nil {
				l.fail(name + ": " + err.Error())
				continue
			}
			scheds[ai] = s
			if name == "heft" {
				heftLat = s.ScheduledLatency()
			}
		}
		mtbfBase := cfg.MTBFMult * heftLat
		model := &failure.Exponential{MTBF: failure.UniformMTBF(rand.New(rand.NewSource(subSeed(seed, 3, gi))), cfg.M, 0.75*mtbfBase, 1.25*mtbfBase)}
		for ai, s := range scheds {
			if s == nil {
				continue
			}
			t := time.Now()
			rep, err := sim.NewReplayer(s)
			newRepUs = append(newRepUs, us(time.Since(t)))
			if err != nil {
				l.fail("replayer: " + err.Error())
				continue
			}
			for q := 0; q < cfg.M; q++ {
				clear(crashed)
				crashed[q] = true
				t := time.Now()
				_, err := rep.CrashLatency(crashed)
				crashUs = append(crashUs, us(time.Since(t)))
				if err != nil && !errors.Is(err, sim.ErrTaskLost) {
					l.fail("crash latency: " + err.Error())
				}
			}

			srng := rand.New(rand.NewSource(subSeed(seed, 13, gi*len(names)+ai)))
			scen := make([]map[int]float64, max(cfg.TimedSamples, cfg.OnlineSamples))
			for k := range scen {
				t := time.Now()
				scen[k] = model.Sample(srng, nil)
				sampleUs = append(sampleUs, us(time.Since(t)))
			}
			_, _ = rep.CrashLatencyAt(scen[0]) // warms the scratch before allocations are counted; checked below
			m0 := mallocs()
			for _, sc := range scen[:cfg.TimedSamples] {
				t := time.Now()
				_, err := rep.CrashLatencyAt(sc)
				atUs = append(atUs, us(time.Since(t)))
				atCalls++
				switch {
				case errors.Is(err, sim.ErrTaskLost):
					lost++
				case err != nil:
					l.fail("crash latency at: " + err.Error())
				}
			}
			atAllocs += mallocs() - m0

			t = time.Now()
			eng, err := online.NewEngine(s)
			engUs = append(engUs, us(time.Since(t)))
			if err != nil {
				l.fail("online engine: " + err.Error())
				continue
			}
			opt := online.Options{Reschedule: true}
			_, _, _ = eng.Makespan(scen[0], opt) // warms the scratch likewise
			m0 = mallocs()
			for _, sc := range scen[:cfg.OnlineSamples] {
				t := time.Now()
				_, n, err := eng.Makespan(sc, opt)
				mkUs = append(mkUs, us(time.Since(t)))
				mkCalls++
				resched += n
				if err != nil && !errors.Is(err, sim.ErrTaskLost) {
					l.fail("online makespan: " + err.Error())
				}
			}
			mkAllocs += mallocs() - m0
		}
	}
	for ai, name := range names {
		l.add("sched."+name+"_us", "us", median(algUs[ai]))
		l.add("sched."+name+".allocs", "count", float64(algAllocs[ai])/float64(graphs))
	}
	l.attempted += int64(len(crashUs) + atCalls + mkCalls)
	l.add("sim.new_replayer_us", "us", median(newRepUs))
	l.add("sim.crash_latency_us", "us", median(crashUs))
	l.add("sim.crash_latency_at_us", "us", median(atUs))
	l.add("sim.crash_latency_at.allocs", "count", float64(atAllocs)/float64(max(atCalls, 1)))
	l.add("sim.lost_frac", "ratio", float64(lost)/float64(max(atCalls, 1)))
	l.add("failure.sample_us", "us", median(sampleUs))
	l.add("online.new_engine_us", "us", median(engUs))
	l.add("online.makespan_us", "us", median(mkUs))
	l.add("online.makespan.allocs", "count", float64(mkAllocs)/float64(max(mkCalls, 1)))
	l.add("online.rescheduled_per_trace", "count", float64(resched)/float64(max(mkCalls, 1)))
	return nil
}

// layerCacheMax is the adapter cluster's memory cache: small enough that
// cycling through the disk-resident problems misses memory every time.
const layerCacheMax = 4

// serveLayers times the service API on its own two-node cluster, the
// cold class's compute layers, and reads the service counters over a
// short open-loop pass of the serve mix.
func (l *layerSet) serveLayers(cfg serveConfig, seed int64, workdir string) error {
	c, err := startCluster(cfg, workdir, layerCacheMax)
	if err != nil {
		return err
	}
	defer c.close()
	ctx := context.Background()
	base := subSeed(seed, 7, 0) % (1 << 40)
	// Populate node 0's disk tier directly through Do.
	n := cfg.Pool
	reqs := make([]*service.Request, n)
	for p := range reqs {
		reqs[p] = problemRequest(cfg, base+int64(p), false)
		if _, err := c.nodes[0].svc.Do(ctx, reqs[p]); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	var bootMs []float64
	for i := 0; i < 3; i++ {
		c.nodes[0].svc.Close()
		t := time.Now()
		if err := c.nodes[0].boot(cfg, c.peers, layerCacheMax); err != nil {
			return err
		}
		bootMs = append(bootMs, ms(time.Since(t)))
	}
	l.add("service.new_ms", "ms", median(bootMs))
	node0 := c.nodes[0].svc

	// Memory hit: one key asked again and again stays resident.
	if _, err := node0.Do(ctx, reqs[0]); err != nil {
		return err
	}
	const hitCalls = 2000
	m0 := mallocs()
	t := time.Now()
	for i := 0; i < hitCalls; i++ {
		if _, err := node0.Do(ctx, reqs[0]); err != nil {
			l.fail("do hit: " + err.Error())
		}
	}
	el := time.Since(t)
	l.add("service.do_hit_us", "us", us(el)/hitCalls)
	l.add("service.do_hit.allocs", "count", float64(mallocs()-m0)/hitCalls)

	// Disk hit: cycling through more keys than the cache holds.
	before := node0.Stats()
	var diskUs []float64
	diskCalls := min(n, 256)
	for i := 0; i < diskCalls; i++ {
		t := time.Now()
		if _, err := node0.Do(ctx, reqs[(i+1)%n]); err != nil {
			l.fail("do disk hit: " + err.Error())
		}
		diskUs = append(diskUs, us(time.Since(t)))
	}
	if got := node0.Stats().DiskHits - before.DiskHits; got != int64(diskCalls) {
		l.invariant = joinInvariant(l.invariant, fmt.Sprintf("disk-hit adapter: %d of %d calls hit disk", got, diskCalls))
	}
	l.add("service.do_disk_hit_us", "us", median(diskUs))

	// Miss: never-seen problems.
	var missMs []float64
	for k := 0; k < 16; k++ {
		req := problemRequest(cfg, base+2*coldOffset+int64(k), false)
		t := time.Now()
		if _, err := node0.Do(ctx, req); err != nil {
			l.fail("do miss: " + err.Error())
		}
		missMs = append(missMs, ms(time.Since(t)))
	}
	l.add("service.do_miss_ms", "ms", median(missMs))
	l.attempted += hitCalls + int64(diskCalls) + 16 + 1

	if err := l.httpLayers(c, cfg, base); err != nil {
		return err
	}
	if err := l.coldLayers(cfg, base); err != nil {
		return err
	}
	return l.servePass(cfg, seed, workdir)
}

// httpLayers times a memory hit posted to the owning node and one posted
// to the other node, which forwards it to the owner.
func (l *layerSet) httpLayers(c *cluster, cfg serveConfig, base int64) error {
	body, err := json.Marshal(problemRequest(cfg, base+3*coldOffset, false))
	if err != nil {
		return err
	}
	before := c.nodes[0].svc.Stats()
	first, err := c.post(0, body)
	if err != nil {
		return fmt.Errorf("http adapter: %w", err)
	}
	owner := 0
	if c.nodes[0].svc.Stats().Forwards > before.Forwards {
		owner = 1
	}
	const calls = 300
	timePosts := func(entry int) float64 {
		var lat []float64
		for i := 0; i < calls; i++ {
			t := time.Now()
			raw, err := c.post(entry, body)
			lat = append(lat, us(time.Since(t)))
			if err != nil {
				l.fail("http post: " + err.Error())
			} else if !bytes.Equal(raw, first) {
				l.fail("http post: response bytes differ across entry nodes")
			}
		}
		return median(lat)
	}
	l.add("service.http_hit_us", "us", timePosts(owner))
	l.add("service.http_forward_us", "us", timePosts(1-owner))
	l.attempted += 2*calls + 1
	return nil
}

// coldLayers times the compute a cold request triggers, layer by layer:
// graph build, the caft scheduler and the reliability estimate, on the
// cold class's problems built as the service builds them.
func (l *layerSet) coldLayers(cfg serveConfig, base int64) error {
	spec := gen.Spec{Kind: "montage", N: cfg.MontageN, Volume: 100}
	var buildUs, caftUs, relMs []float64
	d, ok := sched.Lookup("caft")
	if !ok {
		return errors.New("caft is not registered")
	}
	mtbf := make([]float64, cfg.M)
	for i := range mtbf {
		mtbf[i] = cfg.ColdMTBF
	}
	model := &failure.Exponential{MTBF: mtbf}
	const problems = 16
	for k := 0; k < problems; k++ {
		reqSeed := base + coldOffset + int64(k)
		t := time.Now()
		g, err := spec.Build()
		buildUs = append(buildUs, us(time.Since(t)))
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(reqSeed))
		plat := platform.New(cfg.M, cfg.Delay)
		exec := platform.GenExecForGranularity(rng, g, plat, 1.0, platform.DefaultHeterogeneity)
		p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
		t = time.Now()
		s, err := d.New(p, 1, rng)
		caftUs = append(caftUs, us(time.Since(t)))
		l.attempted++
		if err != nil {
			l.fail("caft on a cold problem: " + err.Error())
			continue
		}
		t = time.Now()
		_, err = expt.EstimateReliability(s, model, cfg.ColdSamples, reqSeed, cfg.MCWorkers)
		relMs = append(relMs, ms(time.Since(t)))
		l.attempted++
		if err != nil {
			l.fail("reliability estimate: " + err.Error())
		}
	}
	l.add("gen.spec_build_us", "us", median(buildUs))
	l.add("sched.caft.cold_us", "us", median(caftUs))
	l.add("expt.estimate_reliability_ms", "ms", median(relMs))
	return nil
}

// servePass runs a short serve pass on a fresh cluster for the service
// counters and the generator's lateness.
func (l *layerSet) servePass(cfg serveConfig, seed int64, workdir string) error {
	w, err := newServe(cfg, seed, workdir)
	if err != nil {
		return err
	}
	defer w.close()
	out, err := w.run(time.Duration(cfg.LayerPassSeconds*float64(time.Second)), nil)
	if err != nil {
		return err
	}
	l.list = append(l.list, out.layer...)
	l.attempted += out.attempted
	l.failed += out.failed
	l.invariant = joinInvariant(l.invariant, out.invariant)
	return nil
}
