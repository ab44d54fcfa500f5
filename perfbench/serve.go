package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"caft/internal/gen"
	"caft/internal/service"
)

// serveConfig sizes the serve workload and its open-loop generator.
type serveConfig struct {
	Workers   int `json:"workers"`
	MCWorkers int `json:"mc_workers"`
	// CacheMax bounds each node's memory cache; it is below the warm
	// set (Pool - HotSet), so warm requests are mostly served from the
	// disk tier.
	CacheMax int `json:"cache_max"`
	// The traffic follows caftload's model: zipf(ZipfS) over a pool of
	// Pool problems. The HotSet top ranks are the hot class, the other
	// ranks the warm class; ColdStream sets the cold share (see
	// classShares).
	Pool       int     `json:"pool"`
	HotSet     int     `json:"hot_set"`
	ZipfS      float64 `json:"zipf_s"`
	ColdStream int     `json:"cold_stream"`
	// Every problem is a montage workflow scheduled by caft with eps 1;
	// cold problems add a Monte-Carlo reliability estimate.
	MontageN    int     `json:"montage_n"`
	M           int     `json:"m"`
	Delay       float64 `json:"delay"`
	ColdSamples int     `json:"cold_samples"`
	ColdMTBF    float64 `json:"cold_mtbf"`
	// The nominal phase gets NominalShare of the budget at NominalRPS and
	// is the ladder's first rung; the LadderRPS rungs split the rest.
	NominalRPS   float64   `json:"nominal_rps"`
	NominalShare float64   `json:"nominal_share"`
	LadderRPS    []float64 `json:"ladder_rps"`
	P99LimitMs   float64   `json:"p99_limit_ms"`
	// A rung is abandoned once one request is AbortFactor x the p99
	// limit late: its backlog is growing.
	AbortFactor float64 `json:"abort_factor"`
	// The closed-loop saturation phase sends SatRepeats batches of
	// SatRequests requests, one connection per node with up to satWindow
	// requests outstanding on each.
	SatRequests int `json:"sat_requests"`
	SatRepeats  int `json:"sat_repeats"`
	// Before each saturation batch, the latency probe sends ProbePairs
	// hot or warm problems one at a time through both nodes (see
	// drawProbe and runProbe).
	ProbePairs     int `json:"probe_pairs"`
	DigestRequests int `json:"digest_requests"`
	// LayerPassSeconds is the budget of the short open-loop pass the
	// traced run measures the service counters on.
	LayerPassSeconds float64 `json:"layer_pass_seconds"`
}

const (
	classHot = iota
	classWarm
	classCold
)

var classNames = [...]string{"hot", "warm", "cold"}

// classShares derives the request mix from caftload's traffic model,
// zipf(ZipfS) over Pool problems, rank k drawn with weight (1+k)^-ZipfS
// as rand.Zipf draws it. Cold is the expected share of first-seen
// problems in such a stream of ColdStream requests; hot is the zipf
// mass of the HotSet top ranks and warm the mass of the rest, both
// scaled to the remaining 1 - cold. Conditioned on its class, a hot
// request is exactly caftload's draw; a warm one is drawn uniformly
// over the warm ranks, which flattens caftload's tail.
func (cfg serveConfig) classShares() (hot, warm, cold float64) {
	weights := make([]float64, cfg.Pool)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -cfg.ZipfS)
		total += weights[k]
	}
	seen, head := 0.0, 0.0
	for k, wt := range weights {
		p := wt / total
		seen += 1 - math.Pow(1-p, float64(cfg.ColdStream))
		if k < cfg.HotSet {
			head += p
		}
	}
	cold = seen / float64(cfg.ColdStream)
	return (1 - cold) * head, (1 - cold) * (1 - head), cold
}

// node is one in-process caftd: a Service behind NewHandler on its own
// loopback listener. The listener outlives restarts, so the ring's member
// addresses, and with them key ownership, stay fixed.
type node struct {
	addr    string
	dir     string
	srv     *http.Server
	served  chan struct{}
	svc     *service.Service
	handler atomic.Value // http.Handler of the current Service
	client  *http.Client // the generator's single connection to this node
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.handler.Load().(http.Handler).ServeHTTP(w, r)
}

// cluster is the two-node caftd deployment the serve workload drives.
type cluster struct {
	cfg   serveConfig
	dir   string
	peers []string
	nodes []*node
}

func startCluster(cfg serveConfig, parent string, cacheMax int) (*cluster, error) {
	dir, err := os.MkdirTemp(parent, "serve-")
	if err != nil {
		return nil, err
	}
	c := &cluster{cfg: cfg, dir: dir}
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			os.RemoveAll(dir)
			return nil, err
		}
		lns = append(lns, ln)
		c.peers = append(c.peers, ln.Addr().String())
	}
	for i, ln := range lns {
		n := &node{
			addr:   c.peers[i],
			dir:    filepath.Join(dir, fmt.Sprintf("node%d", i)),
			served: make(chan struct{}),
			client: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}},
		}
		c.nodes = append(c.nodes, n)
		if err := n.boot(cfg, c.peers, cacheMax); err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		n.srv = &http.Server{Handler: n, ReadHeaderTimeout: 10 * time.Second}
		go func(n *node, ln net.Listener) {
			defer close(n.served)
			n.srv.Serve(ln)
		}(n, ln)
	}
	return c, nil
}

// boot opens the node's Service over its disk directory.
func (n *node) boot(cfg serveConfig, peers []string, cacheMax int) error {
	svc, err := service.New(service.Config{
		Workers:   cfg.Workers,
		MCWorkers: cfg.MCWorkers,
		CacheMax:  cacheMax,
		DiskDir:   n.dir,
		Self:      n.addr,
		Peers:     peers,
	})
	if err != nil {
		return err
	}
	n.svc = svc
	n.handler.Store(service.NewHandler(svc))
	return nil
}

// restart closes every node's Service and boots a new one over the same
// disk directory: the disk boot scan of a daemon restart.
func (c *cluster) restart(cacheMax int) error {
	for _, n := range c.nodes {
		n.svc.Close()
	}
	for _, n := range c.nodes {
		if err := n.boot(c.cfg, c.peers, cacheMax); err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		if n.srv != nil {
			n.srv.Close()
			<-n.served
		}
		if n.svc != nil {
			n.svc.Close()
		}
		n.client.Transport.(*http.Transport).CloseIdleConnections()
	}
	os.RemoveAll(c.dir)
}

// stats sums the counters the workload reads over every node.
func (c *cluster) stats() service.StatsSnapshot {
	var sum service.StatsSnapshot
	for _, n := range c.nodes {
		st := n.svc.Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.DiskHits += st.DiskHits
		sum.Forwards += st.Forwards
	}
	return sum
}

func statsDelta(a, b service.StatsSnapshot) service.StatsSnapshot {
	return service.StatsSnapshot{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		DiskHits: b.DiskHits - a.DiskHits, Forwards: b.Forwards - a.Forwards,
	}
}

// post sends one /schedule request to node i and returns the body of a
// 200 response.
func (c *cluster) post(i int, body []byte) ([]byte, error) {
	resp, err := c.nodes[i].client.Post("http://"+c.nodes[i].addr+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
	}
	return raw, nil
}

// conn is one generator connection to a node, spoken as plain HTTP/1.1
// by the sender itself: no transport goroutines stand between the sender
// and the socket, so a request's latency holds no hand-offs of the
// generator's own. Requests may be written ahead of the responses read
// (pipelined); the server answers them in order.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// dial opens a generator connection to node i. It first drops the
// node's idle keep-alive connection, so the generator holds at most one
// connection per node.
func (c *cluster) dial(i int) (*conn, error) {
	n := c.nodes[i]
	n.client.CloseIdleConnections()
	nc, err := net.Dial("tcp", n.addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: n.addr, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// write sends one /schedule request.
func (c *conn) write(body []byte) error {
	fmt.Fprintf(c.bw, "POST /schedule HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", c.addr, len(body))
	c.bw.Write(body)
	return c.bw.Flush()
}

// read reads the next response and returns its body when the status is
// 200.
func (c *conn) read() ([]byte, error) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
	}
	return raw, nil
}

// post sends one request and reads its response.
func (c *conn) post(body []byte) ([]byte, error) {
	if err := c.write(body); err != nil {
		return nil, err
	}
	return c.read()
}

func (c *conn) close() { c.nc.Close() }

func fingerprint(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// problemRequest is the request of one problem: hot and warm problems
// are plain montage schedules, cold ones add a reliability estimate.
func problemRequest(cfg serveConfig, reqSeed int64, cold bool) *service.Request {
	req := &service.Request{
		Alg:       "caft",
		Eps:       1,
		Seed:      reqSeed,
		Generator: &gen.Spec{Kind: "montage", N: cfg.MontageN, Volume: 100},
		Platform:  service.PlatformSpec{M: cfg.M, Delay: cfg.Delay},
	}
	if cold {
		req.Reliability = &service.ReliabilitySpec{Samples: cfg.ColdSamples, MTBF: cfg.ColdMTBF, Seed: reqSeed}
	}
	return req
}

// serveWork is a set up serve workload: a populated, restarted and warmed
// cluster plus the byte-identity ledger of every hot and warm problem.
type serveWork struct {
	cfg  serveConfig
	seed int64
	c    *cluster
	// base offsets every problem's request seed; problem p < Pool is
	// hot or warm, cold problem k uses base+coldOffset+k.
	base   int64
	bodies [][]byte // hot then warm request bodies
	pinned []uint64 // their response fingerprints
	// hotShare and warmShare are the class shares; cold takes the rest.
	hotShare, warmShare float64
	// coldUsed counts the cold problems already drawn, so every run
	// draws never-seen ones.
	coldUsed int
}

const coldOffset = 1 << 30

func newServe(cfg serveConfig, seed int64, workdir string) (*serveWork, error) {
	if cfg.Pool <= cfg.HotSet || cfg.HotSet < 1 || cfg.SatRequests < 1 || cfg.SatRepeats < 1 || cfg.ProbePairs < 1 {
		return nil, errors.New("serve config needs 1 <= hot_set < pool and positive sat_requests, sat_repeats and probe_pairs")
	}
	c, err := startCluster(cfg, workdir, cfg.CacheMax)
	if err != nil {
		return nil, err
	}
	w := &serveWork{cfg: cfg, seed: seed, c: c, base: subSeed(seed, 7, 0) % (1 << 40)}
	w.hotShare, w.warmShare, _ = cfg.classShares()
	if err := w.populate(); err != nil {
		c.close()
		return nil, err
	}
	return w, nil
}

// populate computes every hot and warm problem once through the cluster,
// pins its response bytes, restarts the nodes over their disk tiers and
// warms the memory caches with the hot and warm mix.
func (w *serveWork) populate() error {
	n := w.cfg.Pool
	w.bodies = make([][]byte, n)
	w.pinned = make([]uint64, n)
	for p := range w.bodies {
		b, err := json.Marshal(problemRequest(w.cfg, w.base+int64(p), false))
		if err != nil {
			return err
		}
		w.bodies[p] = b
	}
	if err := w.sendAll(n, func(i int) int { return i }, true); err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	if err := w.c.restart(w.cfg.CacheMax); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(w.seed, 8, 0)))
	zipf := rand.NewZipf(rng, w.cfg.ZipfS, 1, uint64(w.cfg.HotSet-1))
	hotShare := w.hotShare / (w.hotShare + w.warmShare)
	warm := make([]int, 4*w.cfg.CacheMax)
	for i := range warm {
		if rng.Float64() < hotShare {
			warm[i] = int(zipf.Uint64())
		} else {
			warm[i] = w.warmProblem(rng)
		}
	}
	if err := w.sendAll(len(warm), func(i int) int { return warm[i] }, false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// sendAll posts problems problem(0..count-1) closed loop through
// runBatch, alternating entry nodes. With pin it records the
// fingerprints, otherwise it checks them.
func (w *serveWork) sendAll(count int, problem func(int) int, pin bool) error {
	reqs := make([]genReq, count)
	for i := range reqs {
		p := problem(i)
		reqs[i] = genReq{class: classWarm, problem: p, entry: i % len(w.c.nodes), body: w.bodies[p]}
	}
	check := w.pinnedCheck
	if pin {
		check = func(r *genReq, raw []byte) error {
			w.pinned[r.problem] = fingerprint(raw)
			return nil
		}
	}
	_, _, err := w.runBatch(reqs, check, nil, 0)
	return err
}

func (w *serveWork) close() { w.c.close() }

// genReq is one scheduled request of the open loop.
type genReq struct {
	due     time.Duration // from the phase start
	class   int
	problem int // hot/warm index, or cold problem number
	entry   int // node the request is sent to
	body    []byte
}

// phase is one stretch of the open loop at a fixed rate.
type phase struct {
	name string
	rps  float64
	dur  time.Duration
	reqs []genReq
}

// drawPhase draws a Poisson arrival schedule at rps for dur (and at least
// minReqs requests) from its own stream, so each phase's schedule is a
// function of the seed and its index only.
func (w *serveWork) drawPhase(name string, index int, rps float64, dur time.Duration, minReqs int) (*phase, error) {
	rng := rand.New(rand.NewSource(subSeed(w.seed, 9, index)))
	zipf := rand.NewZipf(rng, w.cfg.ZipfS, 1, uint64(w.cfg.HotSet-1))
	ph := &phase{name: name, rps: rps, dur: dur}
	var t float64
	for {
		t += rng.ExpFloat64() / rps
		due := time.Duration(t * float64(time.Second))
		if due >= dur && len(ph.reqs) >= minReqs {
			break
		}
		class := classCold
		switch u := rng.Float64(); {
		case u < w.hotShare:
			class = classHot
		case u < w.hotShare+w.warmShare:
			class = classWarm
		}
		r, err := w.newReq(class, rng, zipf)
		if err != nil {
			return nil, err
		}
		r.due, r.entry = due, len(ph.reqs)%len(w.c.nodes)
		ph.dur = max(ph.dur, due)
		ph.reqs = append(ph.reqs, r)
	}
	return ph, nil
}

// warmProblem draws a warm problem: uniform over the ranks past the hot
// set.
func (w *serveWork) warmProblem(rng *rand.Rand) int {
	return w.cfg.HotSet + rng.Intn(w.cfg.Pool-w.cfg.HotSet)
}

// newReq draws a request of the class: a hot rank from zipf, a warm one
// from warmProblem, or the next never-seen cold problem.
func (w *serveWork) newReq(class int, rng *rand.Rand, zipf *rand.Zipf) (genReq, error) {
	r := genReq{class: class}
	switch class {
	case classHot:
		r.problem = int(zipf.Uint64())
	case classWarm:
		r.problem = w.warmProblem(rng)
	default:
		r.problem = w.coldUsed
		w.coldUsed++
		b, err := json.Marshal(problemRequest(w.cfg, w.base+coldOffset+int64(r.problem), true))
		if err != nil {
			return r, err
		}
		r.body = b
		return r, nil
	}
	r.body = w.bodies[r.problem]
	return r, nil
}

// drawBatch draws the saturation phase's batch index: exactly the
// class counts the shares give, in an order shuffled from the seed.
func (w *serveWork) drawBatch(index int) ([]genReq, error) {
	n := w.cfg.SatRequests
	rng := rand.New(rand.NewSource(subSeed(w.seed, 10, index)))
	zipf := rand.NewZipf(rng, w.cfg.ZipfS, 1, uint64(w.cfg.HotSet-1))
	hot := int(math.Round(w.hotShare * float64(n)))
	warm := int(math.Round(w.warmShare * float64(n)))
	classes := make([]int, n)
	for i := range classes {
		switch {
		case i < hot:
			classes[i] = classHot
		case i < hot+warm:
			classes[i] = classWarm
		default:
			classes[i] = classCold
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	reqs := make([]genReq, n)
	for i, class := range classes {
		r, err := w.newReq(class, rng, zipf)
		if err != nil {
			return nil, err
		}
		r.entry = i % len(w.c.nodes)
		reqs[i] = r
	}
	return reqs, nil
}

// drawProbe draws the latency probe's batch index: n hot and warm
// problems in the proportion of their shares, shuffled, each requested
// through both nodes in turn, first through node 0 and 1 alternately.
// Under hash routing one request of a pair is served by its owner and
// the other is forwarded, so every pair holds exactly one forward hop.
// Cold problems are left out: their second request would be a hit.
func (w *serveWork) drawProbe(index, n int) []genReq {
	rng := rand.New(rand.NewSource(subSeed(w.seed, 11, index)))
	zipf := rand.NewZipf(rng, w.cfg.ZipfS, 1, uint64(w.cfg.HotSet-1))
	hot := int(math.Round(w.hotShare / (w.hotShare + w.warmShare) * float64(n)))
	classes := make([]int, n)
	for i := range classes {
		classes[i] = classWarm
		if i < hot {
			classes[i] = classHot
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	reqs := make([]genReq, 0, 2*n)
	for k, class := range classes {
		r, _ := w.newReq(class, rng, zipf) // only cold draws can fail
		for j := range 2 {
			r.entry = (k + j) % 2
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// pairLat returns the mean latency of each request pair of a probe.
// The latencies of single requests mix served and forwarded ones, with
// the median falling between the two modes; a pair's mean has one
// mode.
func pairLat(lat []float64) []float64 {
	out := make([]float64, len(lat)/2)
	for k := range out {
		out[k] = (lat[2*k] + lat[2*k+1]) / 2
	}
	return out
}

// satWindow bounds the requests outstanding on a saturation connection:
// enough that the node always finds its next request buffered.
const satWindow = 4

// runBatch sends reqs closed loop over one pipelined connection per
// node: a writer runs at most satWindow+1 requests ahead and a reader
// takes the responses in order, so each node always has its next request
// buffered and the rate is bound by the CPU the requests cost rather than
// by round trips. It returns the wall time until the last response and
// the number of failed requests with the first failure.
func (w *serveWork) runBatch(reqs []genReq, check func(*genReq, []byte) error, rec *recorder, seq int64) (time.Duration, int64, error) {
	var failed atomic.Int64
	errs := make([]error, len(w.c.nodes))
	root := rec.begin("serve.saturation", -1, seq)
	start := time.Now()
	var wg sync.WaitGroup
	for e := range w.c.nodes {
		var mine []int
		for i := range reqs {
			if reqs[i].entry == e {
				mine = append(mine, i)
			}
		}
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			ok, err := w.pipeline(e, reqs, mine, check, rec, root, seq)
			if err != nil {
				errs[e] = fmt.Errorf("node %d: %w", e, err)
			}
			failed.Add(int64(len(mine) - ok))
		}(e)
	}
	wg.Wait()
	el := time.Since(start)
	rec.end(root)
	return el, failed.Load(), errors.Join(errs...)
}

// pipeline sends the requests mine of reqs to node e over one connection
// and returns how many came back 200 and passed check; it stops at the
// first failure.
func (w *serveWork) pipeline(e int, reqs []genReq, mine []int, check func(*genReq, []byte) error, rec *recorder, root int, seq int64) (int, error) {
	c, err := w.c.dial(e)
	if err != nil {
		return 0, err
	}
	defer c.close()
	type sent struct{ i, span int }
	window := make(chan sent, satWindow)
	go func() {
		defer close(window)
		for _, i := range mine {
			r := &reqs[i]
			sp := rec.begin("http."+classNames[r.class], root, seq<<32|int64(i))
			if c.write(r.body) != nil {
				rec.end(sp)
				return
			}
			window <- sent{i, sp}
		}
	}()
	ok := 0
	for s := range window {
		r := &reqs[s.i]
		raw, err := c.read()
		rec.end(s.span)
		if err == nil {
			err = check(r, raw)
		}
		if err != nil {
			c.close() // unblocks the writer
			for range window {
			}
			return ok, fmt.Errorf("request %d: %w", s.i, err)
		}
		ok++
	}
	if ok < len(mine) {
		return ok, errors.New("connection closed early")
	}
	return ok, nil
}

// runProbe sends reqs one at a time, each to its entry node over that
// node's single connection, and returns each request's latency in ms
// (+Inf when it failed) with the number that failed. The process runs on
// one P meanwhile (GOMAXPROCS 1): the generator, both nodes and the
// forward hop then take turns on one thread, and a request's latency is
// the time its path through the service takes, without the cross-core
// wake-ups whose cost is set by the host's load rather than the program.
func (w *serveWork) runProbe(reqs []genReq, rec *recorder, seq int64) ([]float64, int64, error) {
	conns := make([]*conn, len(w.c.nodes))
	for e := range conns {
		c, err := w.c.dial(e)
		if err != nil {
			return nil, 0, err
		}
		defer c.close()
		conns[e] = c
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	root := rec.begin("serve.probe", -1, seq)
	defer rec.end(root)
	lat := make([]float64, len(reqs))
	var failed int64
	var first error
	for i := range reqs {
		r := &reqs[i]
		sp := rec.begin("http."+classNames[r.class], root, seq<<32|int64(i))
		start := time.Now()
		raw, err := conns[r.entry].post(r.body)
		lat[i] = float64(time.Since(start)) / 1e6
		rec.end(sp)
		if err == nil {
			err = w.pinnedCheck(r, raw)
		}
		if err != nil {
			lat[i] = math.Inf(1)
			failed++
			if first == nil {
				first = fmt.Errorf("request %d: %w", i, err)
			}
			// The connection may be out of step.
			conns[r.entry].close()
			c, derr := w.c.dial(r.entry)
			if derr != nil {
				return lat[:i+1], failed, errors.Join(first, derr)
			}
			defer c.close()
			conns[r.entry] = c
		}
	}
	return lat, failed, first
}

// pinnedCheck fails a hot or warm response whose bytes differ from the
// pinned ones.
func (w *serveWork) pinnedCheck(r *genReq, raw []byte) error {
	if r.class != classCold && fingerprint(raw) != w.pinned[r.problem] {
		return fmt.Errorf("response bytes differ for problem %d", r.problem)
	}
	return nil
}

// phaseResult is what one phase measured. lat is in ms from the due
// time, +Inf for a failed request; sent is false for requests dropped
// after the phase was abandoned.
type phaseResult struct {
	lat      []float64
	late     []float64 // generator lateness, ms
	fp       []uint64
	sent     []bool
	failed   int64
	aborted  bool
	lastDone time.Duration
	stats    service.StatsSnapshot
}

// spinAhead is how long before a request is due its sender stops
// sleeping and polls the clock instead: a sleeping thread's core may be
// idle in the host, and waking it can take longer than that.
const spinAhead = 200 * time.Microsecond

// runPhase plays one phase open loop over one sender per node, each on
// that node's single connection. A sender takes its node's requests in
// due order: it sleeps until a request is due, or sends at once when a
// slow response has put it behind. Latency counts from the due time, so
// that backlog shows; the generator's lateness is how late a sender
// that was waiting woke up.
func (w *serveWork) runPhase(ph *phase, rec *recorder, seq int64) *phaseResult {
	n := len(ph.reqs)
	res := &phaseResult{
		lat:  make([]float64, n),
		late: make([]float64, n),
		fp:   make([]uint64, n),
		sent: make([]bool, n),
	}
	abortAt := time.Duration(w.cfg.P99LimitMs * w.cfg.AbortFactor * float64(time.Millisecond))
	var aborted atomic.Bool
	var failed atomic.Int64
	lastDone := make([]time.Duration, len(w.c.nodes)) // per sender
	conns := make([]*conn, len(w.c.nodes))
	var dialErr error
	for e := range conns {
		if conns[e], dialErr = w.c.dial(e); dialErr != nil {
			break
		}
		defer conns[e].close()
	}
	before := w.c.stats()
	root := rec.begin("serve.phase."+ph.name, -1, seq)
	start := time.Now()
	var wg sync.WaitGroup
	for e := range w.c.nodes {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			c, connErr := conns[e], dialErr
			for i := range ph.reqs {
				r := &ph.reqs[i]
				if r.entry != e {
					continue
				}
				if aborted.Load() {
					return
				}
				if d := r.due - time.Since(start); d > 0 {
					runtime.LockOSThread()
					if d > spinAhead {
						sleepPrecise(d - spinAhead)
					}
					for time.Since(start) < r.due {
					}
					runtime.UnlockOSThread()
					res.late[i] = float64(time.Since(start)-r.due) / 1e6
				}
				sp := rec.begin("http."+classNames[r.class], root, seq<<32|int64(i))
				var raw []byte
				err := connErr
				if c != nil {
					raw, err = c.post(r.body)
				}
				done := time.Since(start)
				rec.end(sp)
				res.sent[i] = true
				lastDone[e] = done
				lat := done - r.due
				res.lat[i] = float64(lat) / 1e6
				if err == nil {
					res.fp[i] = fingerprint(raw)
					if r.class != classCold && res.fp[i] != w.pinned[r.problem] {
						err = fmt.Errorf("response bytes differ for problem %d", r.problem)
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s request %d: %v\n", ph.name, i, err)
					res.lat[i] = math.Inf(1)
					failed.Add(1)
					if c != nil { // the connection may be out of step
						c.close()
						if c, connErr = w.c.dial(e); c != nil {
							defer c.close()
						}
					}
				}
				if lat > abortAt {
					aborted.Store(true)
				}
			}
		}(e)
	}
	wg.Wait()
	res.stats = statsDelta(before, w.c.stats())
	rec.count(root, "hits", res.stats.Hits)
	rec.count(root, "disk_hits", res.stats.DiskHits)
	rec.count(root, "computes", res.stats.Misses)
	rec.count(root, "forwards", res.stats.Forwards)
	rec.end(root)
	res.failed = failed.Load()
	res.aborted = aborted.Load()
	res.lastDone = slices.Max(lastDone)
	return res
}

// splitPhase cuts ph into k slices of equal duration, each timed from
// its own start.
func splitPhase(ph *phase, k int) []*phase {
	step := ph.dur / time.Duration(k)
	out := make([]*phase, k)
	i := 0
	for s := range out {
		off := step * time.Duration(s)
		end := off + step
		if s == k-1 {
			end = ph.dur + 1
		}
		sl := &phase{name: fmt.Sprintf("%s.%d", ph.name, s+1), rps: ph.rps, dur: min(end, ph.dur) - off}
		for ; i < len(ph.reqs) && ph.reqs[i].due < end; i++ {
			r := ph.reqs[i]
			r.due -= off
			sl.reqs = append(sl.reqs, r)
		}
		out[s] = sl
	}
	return out
}

// mergeResults joins the results of a phase's slices, in order, into
// the result of the whole phase.
func mergeResults(parts []*phaseResult) *phaseResult {
	m := &phaseResult{}
	for _, p := range parts {
		m.lat = append(m.lat, p.lat...)
		m.late = append(m.late, p.late...)
		m.fp = append(m.fp, p.fp...)
		m.sent = append(m.sent, p.sent...)
		m.failed += p.failed
		m.aborted = m.aborted || p.aborted
		m.lastDone += p.lastDone
		m.stats.Hits += p.stats.Hits
		m.stats.DiskHits += p.stats.DiskHits
		m.stats.Misses += p.stats.Misses
		m.stats.Forwards += p.stats.Forwards
	}
	return m
}

// sentLat returns the latencies of the sent requests, of one class or
// of all (class < 0).
func (res *phaseResult) sentLat(ph *phase, class int) []float64 {
	var out []float64
	for i, r := range ph.reqs {
		if res.sent[i] && (class < 0 || r.class == class) {
			out = append(out, res.lat[i])
		}
	}
	return out
}

// passes reports whether the phase met the p99 limit without a growing
// backlog: nothing abandoned, and the last response within the limit of
// the phase's end.
func (w *serveWork) passes(ph *phase, res *phaseResult) bool {
	limit := w.cfg.P99LimitMs
	return !res.aborted && quantile(res.sentLat(ph, -1), 0.99) <= limit &&
		float64(res.lastDone-ph.dur)/1e6 <= limit
}

// run plays the nominal phase interleaved with the closed-loop
// saturation batches, then climbs the rate ladder until a rung misses the
// p99 limit. Open-loop latency counts from each request's due time.
func (w *serveWork) run(budget time.Duration, rec *recorder) (*outcome, error) {
	out := &outcome{}
	nominalDur := time.Duration(float64(budget) * w.cfg.NominalShare)
	rungDur := (budget - nominalDur) / time.Duration(max(len(w.cfg.LadderRPS), 1))
	phases := []*phase{}
	ph, err := w.drawPhase("nominal", 0, w.cfg.NominalRPS, nominalDur, w.cfg.DigestRequests)
	if err != nil {
		return nil, err
	}
	phases = append(phases, ph)
	for i, rps := range w.cfg.LadderRPS {
		ph, err := w.drawPhase(fmt.Sprintf("rung%d", i+1), i+1, rps, rungDur, 0)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}
	batches := make([][]genReq, w.cfg.SatRepeats)
	probes := make([][]genReq, w.cfg.SatRepeats)
	for b := range batches {
		probes[b] = w.drawProbe(b, w.cfg.ProbePairs)
		if batches[b], err = w.drawBatch(b); err != nil {
			return nil, err
		}
	}

	var coldSent int64
	var st service.StatsSnapshot
	addStats := func(d service.StatsSnapshot) {
		st.Hits += d.Hits
		st.DiskHits += d.DiskHits
		st.Misses += d.Misses
		st.Forwards += d.Forwards
	}
	// account books a played phase and notes what it measured.
	account := func(ph *phase, res *phaseResult, pass bool) (achieved float64) {
		for j, r := range ph.reqs {
			if res.sent[j] {
				out.attempted++
				if r.class == classCold {
					coldSent++
				}
			}
		}
		out.failed += res.failed
		addStats(res.stats)
		lat := res.sentLat(ph, -1)
		achieved = float64(len(lat)-int(res.failed)) / res.lastDone.Seconds()
		out.notes = append(out.notes, fmt.Sprintf("phase %s rps %g requests %d sent %d p50_ms %.3f p99_ms %.3f gen_late_p99_ms %.3f achieved_rps %.1f pass %t hits %d disk_hits %d computes %d forwards %d",
			ph.name, ph.rps, len(ph.reqs), len(lat), quantile(lat, 0.5), quantile(lat, 0.99), quantile(res.late, 0.99),
			achieved, pass, res.stats.Hits, res.stats.DiskHits, res.stats.Misses, res.stats.Forwards))
		return achieved
	}

	// The nominal phase is played in slices, each followed by a latency
	// probe and a saturation batch, so the three measurements spread over
	// the same stretch of the run rather than each sampling one part of
	// it. The median of the probe's pair latencies fills the p50_ms slot:
	// the nominal phase's median is mostly the time an idle core of the
	// host takes to wake, and varies by a third between runs of the same
	// code. Saturation records the wall rate of each batch and its rate
	// per second of the process's CPU time. The second is the capacity
	// figure: it follows the CPU each request costs (client, both nodes
	// and the forward hop) and not how fast an idle core wakes up.
	var seq int64
	var parts []*phaseResult
	nominalPass := true
	var wallRates, cpuRates, probeLat []float64
	for k, part := range splitPhase(phases[0], len(batches)) {
		res := w.runPhase(part, rec, seq)
		seq++
		parts = append(parts, res)
		nominalPass = nominalPass && w.passes(part, res)

		before := w.c.stats()
		lat, failed, err := w.runProbe(probes[k], rec, seq)
		seq++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: latency probe %d: %v\n", k, err)
		}
		addStats(statsDelta(before, w.c.stats()))
		probeLat = append(probeLat, pairLat(lat)...)
		out.attempted += int64(len(lat))
		out.failed += failed

		reqs := batches[k]
		before = w.c.stats()
		c0 := cpuTime()
		el, failed, err := w.runBatch(reqs, w.pinnedCheck, rec, seq)
		seq++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: saturation batch %d: %v\n", k, err)
		}
		busy := cpuTime() - c0
		if c0 == 0 || busy <= 0 {
			busy = el
		}
		addStats(statsDelta(before, w.c.stats()))
		done := float64(int64(len(reqs)) - failed)
		wallRates = append(wallRates, done/el.Seconds())
		cpuRates = append(cpuRates, done/busy.Seconds())
		out.attempted += int64(len(reqs))
		out.failed += failed
		for _, r := range reqs {
			if r.class == classCold {
				coldSent++
			}
		}
	}
	nominal := mergeResults(parts)
	maxRPS := 0.0
	if achieved := account(phases[0], nominal, nominalPass); nominalPass {
		maxRPS = achieved
		for _, ph := range phases[1:] {
			res := w.runPhase(ph, rec, seq)
			seq++
			pass := w.passes(ph, res)
			achieved := account(ph, res, pass)
			if !pass {
				break
			}
			maxRPS = achieved
		}
	}
	satRPS, satCPU := median(wallRates), median(cpuRates)
	out.p50Ms = median(probeLat)
	out.notes = append(out.notes, fmt.Sprintf("saturation batches %d requests %d rps_median %.1f rps_min %.1f rps_max %.1f per_cpu_s_median %.1f per_cpu_s_min %.1f per_cpu_s_max %.1f",
		len(batches), w.cfg.SatRequests, satRPS, slices.Min(wallRates), slices.Max(wallRates), satCPU, slices.Min(cpuRates), slices.Max(cpuRates)))
	out.notes = append(out.notes, fmt.Sprintf("probe pairs %d p25_ms %.4f p50_ms %.4f p75_ms %.4f p99_ms %.4f",
		len(probeLat), quantile(probeLat, 0.25), out.p50Ms, quantile(probeLat, 0.75), quantile(probeLat, 0.99)))
	if st.Misses != coldSent {
		out.invariant = fmt.Sprintf("service computes %d != cold requests %d", st.Misses, coldSent)
	}
	served := float64(max(st.Hits+st.Misses, 1))
	// The generator's lateness at the nominal rate; the rungs' is in
	// their notes.
	genLate := quantile(nominal.late, 0.99)
	out.layer = []namedMetric{
		{"service.mem_hit_ratio", "ratio", float64(st.Hits-st.DiskHits) / served},
		{"service.disk_hit_ratio", "ratio", float64(st.DiskHits) / served},
		{"service.forward_ratio", "ratio", float64(st.Forwards) / float64(max(out.attempted, 1))},
		{"service.computes", "count", float64(st.Misses)},
		{"serve.gen_late_p99_ms", "ms", genLate},
	}

	dg := newDigester()
	for _, fp := range w.pinned {
		dg.int(int64(fp))
	}
	for i := 0; i < w.cfg.DigestRequests && i < len(phases[0].reqs); i++ {
		r := phases[0].reqs[i]
		dg.int(int64(r.class))
		dg.int(int64(r.problem))
		dg.int(int64(nominal.fp[i]))
	}
	out.digest = dg.sum()

	all := nominal.sentLat(phases[0], -1)
	out.workPerS = satCPU
	out.named = []namedMetric{
		{"serve.probe_p50_ms", "ms", out.p50Ms},
		{"serve.p50_ms", "ms", quantile(all, 0.5)},
		{"serve.p99_ms", "ms", quantile(all, 0.99)},
		{"serve.hot_p50_ms", "ms", quantile(nominal.sentLat(phases[0], classHot), 0.5)},
		{"serve.warm_p50_ms", "ms", quantile(nominal.sentLat(phases[0], classWarm), 0.5)},
		{"serve.cold_p50_ms", "ms", quantile(nominal.sentLat(phases[0], classCold), 0.5)},
		{"serve.max_rps", "1/s", maxRPS},
	}
	out.notes = append(out.notes, fmt.Sprintf("serve.gen_late_p99_ms %v ms", genLate),
		fmt.Sprintf("serve.class_shares hot %.4f warm %.4f cold %.4f", w.hotShare, w.warmShare, 1-w.hotShare-w.warmShare),
		fmt.Sprintf("serve.nominal_requests %d", len(all)))
	return out, nil
}
