package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/harness"
	"repro/internal/pool"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/sparse"
)

// serveProfile is one service workload: the identities it serves, the
// kind of each request by position, and its open-loop rate and latency
// limit. Both service workloads run the same tiers and phases.
type serveProfile struct {
	// hot identities are crossed with every pair in serveAxes, hotSeeds
	// right-hand-side seeds each; their groups are dealt from shuffled
	// decks, so after the warm-up every hot request is a cache hit.
	hot      []harness.MatrixSpec
	hotSeeds int
	// tail draws the tail identities from the seed. Each has one cell, on
	// an axis taken in turn from tailAxes, and the run scans them in one
	// seeded order, over and over.
	tail func(rng *rand.Rand) []harness.MatrixSpec
	// kindAt is the kind of the i-th request of the run.
	kindAt func(i int) int
	// openRate is the open-loop arrival rate; sloMs is the latency limit
	// behind slo_ok_share.
	openRate, sloMs float64
}

// serveProfiles are the service workloads.
var serveProfiles = map[string]serveProfile{
	// serve-hot: small fault-free systems over four identities. Two
	// requests in eight are k=batchK batches and one in eight is streamed.
	// Batches are the slowest kind; at 1/8 of the traffic the p90 sat at
	// the edge of their latencies and moved with the singles' tail, which
	// a busy host stretches most (a 31% run-to-run spread).
	// The open-loop rate is about a quarter of the closed-loop capacity
	// (~600–800 req/s on a 2-vCPU VM): at 50 req/s the vCPUs idled between
	// requests and the latencies followed how fast the host woke them,
	// which moved the p90 by 30% from run to run. The limit is about five
	// times the open-loop p99 seen at the seed commit.
	"serve-hot": {
		hot: []harness.MatrixSpec{
			{Gen: "poisson2d", N: 400},
			{Gen: "poisson2d", N: 225},
			{Gen: "laplacian", N: 300, Seed: 11, Shift: 0.1},
			{Gen: "laplacian", N: 400, Seed: 12, Shift: 0.1},
		},
		hotSeeds: batchK,
		kindAt: func(i int) int {
			switch i % 8 {
			case 0, 4:
				return kindBatch
			case 2:
				return kindStream
			}
			return kindSingle
		},
		openRate: 150,
		sloMs:    50,
	},
	// serve-churn: mid-size systems (n = 2500–3500). Three requests in
	// eight go to four hot identities; the other five scan churnTail
	// identities, 1.5 times the ring's cache capacity (2 shards × 32
	// entries), so every tail request misses and evicts; two of the five
	// send their matrix inline as CSR. The shares keep the percentiles
	// inside a kind's latencies, not in the gap between two kinds: the hot
	// share is 3/8, not 1/2, and inline requests, the slowest kind, are 1/4
	// of the traffic, so the p90 falls inside their latencies. The
	// open-loop rate is about a quarter of the closed-loop capacity
	// (~110 req/s); the limit is about three times the open-loop p99.
	"serve-churn": {
		hot: []harness.MatrixSpec{
			{Gen: "laplacian", N: 2600, Seed: 21, Shift: 0.1},
			{Gen: "laplacian", N: 2800, Seed: 22, Shift: 0.1},
			{Gen: "laplacian", N: 3200, Seed: 23, Shift: 0.1},
			{Gen: "laplacian", N: 3400, Seed: 24, Shift: 0.1},
		},
		hotSeeds: 2,
		tail: func(rng *rand.Rand) []harness.MatrixSpec {
			specs := make([]harness.MatrixSpec, churnTail)
			for i := range specs {
				specs[i] = harness.MatrixSpec{Gen: "laplacian", N: 2500 + rng.Intn(1001), Seed: 1000 + rng.Int63n(1<<30), Shift: 0.1}
			}
			return specs
		},
		kindAt: func(i int) int {
			switch i % 8 {
			case 0, 3, 6:
				return kindSingle
			case 1, 5:
				return kindInline
			}
			return kindTail
		},
		openRate: 30,
		sloMs:    200,
	},
}

// churnTail is the number of serve-churn tail identities.
const churnTail = 96

// serveAxes crosses the solvers with the schemes the service mix uses.
// Online-detection is left out: BiCGstab does not support it, and the
// campaign covers it.
var serveAxes = func() (axes [][2]string) {
	for _, s := range []string{"cg", "pcg", "bicgstab"} {
		for _, sch := range []string{"unprotected", "abft-detection", "abft-correction"} {
			axes = append(axes, [2]string{s, sch})
		}
	}
	return axes
}()

// tailAxes are the axes the tail identities take in turn.
var tailAxes = [][2]string{
	{"cg", "unprotected"}, {"cg", "abft-detection"}, {"cg", "abft-correction"},
	{"pcg", "unprotected"}, {"pcg", "abft-detection"}, {"pcg", "abft-correction"},
}

// batchK is the width of a batch request.
const batchK = 4

// maxBacklog is the open-loop backlog beyond which the run is invalid;
// genLagLimitMs is the generator lateness (p99, for requests that found an
// idle sender) beyond which the run is invalid.
const (
	maxBacklog    = 50
	genLagLimitMs = 20
)

// serveIdent is one matrix identity with its pristine CSR, and its CSR
// arrays for inline requests.
type serveIdent struct {
	spec    harness.MatrixSpec
	label   string
	a       *sparse.CSR
	inline  *api.InlineCSR
	buildMs float64
}

// serveCell is one (identity, solver, scheme, seed) with the residual hash
// of its in-process reference solve.
type serveCell struct {
	ident          int
	solver, scheme string
	seed           int64
	hash           string
}

// serveGroup is the cells sharing an identity and axes (a batch's lanes).
type serveGroup struct {
	ident          int
	solver, scheme string
	cells          []int
}

// serveReq is one generated request.
type serveReq struct {
	kind  int
	group int
	cells []int
}

// Request kinds: a single solve, a batch, a streamed solve (all on hot
// groups), and a tail solve sent by spec or inline.
const (
	kindSingle = iota
	kindBatch
	kindStream
	kindTail
	kindInline
	numKinds
)

var kindNames = [numKinds]string{"single", "batch", "stream", "tail", "inline"}

// serveInputs is everything generated from the seed. The hot groups come
// first, then the tail groups.
type serveInputs struct {
	idents []*serveIdent
	cells  []serveCell
	groups []serveGroup
	nHot   int // hot groups
	obs    []solveObs
}

// buildServeInputs builds the identities, draws each identity's seeds and
// computes the reference hashes with sequential in-process solves.
func buildServeInputs(prof serveProfile, seed int64, log *spanLog) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	addIdent := func(spec harness.MatrixSpec) (int, error) {
		s0 := log.now()
		t0 := time.Now()
		a, err := spec.Build()
		if err != nil {
			return 0, err
		}
		log.add("harness.build", "", spec.String(), s0, log.now(), 0)
		in.idents = append(in.idents, &serveIdent{spec: spec, label: spec.String(), a: a, buildMs: float64(time.Since(t0).Nanoseconds()) / 1e6})
		return len(in.idents) - 1, nil
	}
	addGroup := func(ii int, ax [2]string, seeds []int64) {
		g := serveGroup{ident: ii, solver: ax[0], scheme: ax[1]}
		for _, s := range seeds {
			in.cells = append(in.cells, serveCell{ident: ii, solver: ax[0], scheme: ax[1], seed: s})
			g.cells = append(g.cells, len(in.cells)-1)
		}
		in.groups = append(in.groups, g)
	}
	for _, spec := range prof.hot {
		ii, err := addIdent(spec)
		if err != nil {
			return nil, err
		}
		seeds := make([]int64, prof.hotSeeds)
		for k := range seeds {
			seeds[k] = rng.Int63n(1 << 40)
		}
		for _, ax := range serveAxes {
			addGroup(ii, ax, seeds)
		}
	}
	in.nHot = len(in.groups)
	if prof.tail != nil {
		for k, spec := range prof.tail(rng) {
			ii, err := addIdent(spec)
			if err != nil {
				return nil, err
			}
			a := in.idents[ii].a
			in.idents[ii].inline = &api.InlineCSR{Rows: a.Rows, Cols: a.Cols, Rowidx: a.Rowidx, Colid: a.Colid, Val: a.Val}
			addGroup(ii, tailAxes[k%len(tailAxes)], []int64{rng.Int63n(1 << 40)})
		}
	}
	return in, in.computeReferences(log)
}

// computeReferences solves every cell in process, sequential kernels, two
// cells at a time, and checks each reference solution's true residual.
func (in *serveInputs) computeReferences(log *spanLog) error {
	workers := min(2, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &observer{log: log}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.cells) {
					return
				}
				c := &in.cells[i]
				id := in.idents[c.ident]
				b, _ := harness.RHS(id.a, c.seed)
				sc := harness.Scenario{Name: "reference", Solver: c.solver, Scheme: c.scheme, Seed: c.seed}
				ob, x, hash, err := o.solve(id.label, id.a, b, sc, c.seed, harness.SolveOpts{})
				if err == nil && !ob.st.Converged {
					err = errors.New("did not converge")
				}
				if err == nil {
					if rr := trueResidual(id.a, x, b); !(rr <= checkTolFactor*defaultTol) {
						err = fmt.Errorf("true relative residual %.3g", rr)
					}
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s/%s/%s seed %d: %w", id.label, c.solver, c.scheme, c.seed, err)
				}
				c.hash = harness.FormatHash(hash)
				in.obs = append(in.obs, ob)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// reqGen deals the request sequence from the seed. Kinds keep fixed
// positions. Each hot kind deals its groups from its own seeded shuffled
// deck, so every stretch of a run, and every run, sends nearly the same
// mix; a batch goes only to a cg group, the solver with a blocked
// multi-RHS path. Tail requests scan the tail groups in one seeded order.
type reqGen struct {
	mu        sync.Mutex
	rng       *rand.Rand
	in        *serveInputs
	prof      serveProfile
	n         int
	decks     [numKinds][]int // per hot kind, the groups left in the current deck
	tailOrder []int
	tailPos   int
}

func newReqGen(prof serveProfile, in *serveInputs, seed int64) *reqGen {
	g := &reqGen{rng: rand.New(rand.NewSource(seed)), in: in, prof: prof}
	for _, k := range g.rng.Perm(len(in.groups) - in.nHot) {
		g.tailOrder = append(g.tailOrder, in.nHot+k)
	}
	return g
}

func (g *reqGen) next() serveReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := serveReq{kind: g.prof.kindAt(g.n)}
	g.n++
	switch r.kind {
	case kindTail, kindInline:
		r.group = g.tailOrder[g.tailPos%len(g.tailOrder)]
		g.tailPos++
	default:
		r.group = g.deal(r.kind)
	}
	cells := g.in.groups[r.group].cells
	if r.kind == kindBatch {
		r.cells = cells[:batchK]
	} else {
		r.cells = []int{cells[g.rng.Intn(len(cells))]}
	}
	return r
}

// deal returns the next hot group of the kind's deck, shuffling a new deck
// when it runs out.
func (g *reqGen) deal(kind int) int {
	if len(g.decks[kind]) == 0 {
		for _, gi := range g.rng.Perm(g.in.nHot) {
			if kind != kindBatch || g.in.groups[gi].solver == "cg" {
				g.decks[kind] = append(g.decks[kind], gi)
			}
		}
	}
	gi := g.decks[kind][0]
	g.decks[kind] = g.decks[kind][1:]
	return gi
}

// tiers is the in-process deployment: two shards behind one router, each
// on its own loopback listener, and the benchmark's client.
type tiers struct {
	shards       []*server.Server
	shardClients []*api.Client
	router       *router.Router
	servers      []*http.Server
	client       *api.Client
	base         *http.Transport
	fwd          *forwardTransport
	ct           *clientTransport
	// serveErr receives a listener's failure to serve; the run checks it
	// after the measured phases. One slot per listener.
	serveErr chan error
}

// startTiers brings up the shards and the router with default configs.
// A traced run wraps the public seams: each tier's Handler(), the
// router's shard transport and the client's HTTP client.
func startTiers(log *spanLog, traced bool) (*tiers, error) {
	t := &tiers{serveErr: make(chan error, 3)}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		t.servers = append(t.servers, srv)
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				t.serveErr <- err
			}
		}()
		return "http://" + ln.Addr().String(), nil
	}
	var shards []router.Shard
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		s := server.New(server.Config{ShardLabel: name})
		t.shards = append(t.shards, s)
		var h http.Handler = s.Handler()
		if traced {
			h = spanHandler(log, "server.handle", h)
		}
		url, err := listen(h)
		if err != nil {
			t.close()
			return nil, err
		}
		shards = append(shards, router.Shard{Name: name, Addr: url})
		t.shardClients = append(t.shardClients, api.NewClient(url))
	}
	var rcfg router.Config
	if traced {
		t.fwd = &forwardTransport{base: http.DefaultTransport, log: log}
		rcfg.Transport = t.fwd
	}
	r, err := router.New(rcfg, shards)
	if err != nil {
		t.close()
		return nil, err
	}
	t.router = r
	var rh http.Handler = r.Handler()
	if traced {
		rh = spanHandler(log, "router.handle", rh)
	}
	url, err := listen(rh)
	if err != nil {
		t.close()
		return nil, err
	}
	nproc := runtime.NumCPU()
	t.base = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	var rt http.RoundTripper = t.base
	if traced {
		t.ct = &clientTransport{base: t.base, log: log}
		rt = t.ct
	}
	t.client = api.NewClient(url, api.WithHTTPClient(&http.Client{Transport: rt, Timeout: time.Minute}))
	return t, nil
}

// close stops the listeners, then the router, then the shards, and waits
// for the serving goroutines to return.
func (t *tiers) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(t.servers) - 1; i >= 0; i-- {
		_ = t.servers[i].Shutdown(ctx) // a forced close still releases the listener
	}
	if t.base != nil {
		t.base.CloseIdleConnections()
	}
	if t.router != nil {
		t.router.Shutdown()
	}
	for _, s := range t.shards {
		s.Shutdown()
	}
}

// shardTotals sums the shards' /v1/statusz counters.
type shardTotals struct {
	hits, misses, evictions, rejected, expired int64
}

func (t *tiers) totals(ctx context.Context) (shardTotals, error) {
	var s shardTotals
	for _, c := range t.shardClients {
		st, err := c.Statusz(ctx)
		if err != nil {
			return s, err
		}
		if st.Shard == nil {
			return s, fmt.Errorf("statusz from %s carries no shard section", c.Base())
		}
		s.hits += st.Shard.Cache.Hits
		s.misses += st.Shard.Cache.Misses
		s.evictions += st.Shard.Cache.Evictions
		s.rejected += st.Shard.Rejected
		s.expired += st.Shard.Expired
	}
	return s, nil
}

// serveRun is one service workload run.
type serveRun struct {
	prof serveProfile
	in   *serveInputs
	t    *tiers
	gen  *reqGen
	res  *result
	log  *spanLog

	mu        sync.Mutex
	byTrace   map[string][2]float64 // trace ID → queue, solve ms (traced phases)
	coalesced int                   // responses merged into a wider block
	responses int
	traceSeq  atomic.Int64
}

// outcome is one request's result.
type outcome struct {
	ok        bool
	dueToDone time.Duration
}

// do sends one request through the api client and checks every result it
// carries against the cell references.
func (s *serveRun) do(ctx context.Context, r serveReq, traceID string) bool {
	g := s.in.groups[r.group]
	id := s.in.idents[g.ident]
	spec := id.spec
	req := api.SolveRequest{Matrix: &spec, Solver: g.solver, Scheme: g.scheme}
	if r.kind == kindInline {
		req.Matrix, req.Inline = nil, id.inline
	}
	if traceID != "" {
		ctx = withTraceID(ctx, traceID)
	}
	var queue, solve float64
	var coalesced bool
	var err error
	ok := true
	check := func(cell int, rec harness.Result, solveErr string) {
		c := s.in.cells[cell]
		switch {
		case solveErr != "":
			s.res.violate("%s %s/%s: solve error: %s", id.label, g.solver, g.scheme, solveErr)
		case rec.Converged != 1:
			s.res.violate("%s %s/%s: did not converge", id.label, g.solver, g.scheme)
		case rec.ResidualHash != c.hash:
			s.res.violate("%s %s/%s seed %d: residual hash %s, reference %s", id.label, g.solver, g.scheme, c.seed, rec.ResidualHash, c.hash)
		case !(rec.MaxFinalResidual <= checkTolFactor*defaultTol):
			s.res.violate("%s %s/%s: residual %.3g over tolerance", id.label, g.solver, g.scheme, rec.MaxFinalResidual)
		default:
			return
		}
		ok = false
	}
	switch r.kind {
	case kindBatch:
		breq := api.BatchSolveRequest{SolveRequest: req}
		for _, ci := range r.cells {
			breq.RHS = append(breq.RHS, api.BatchRHS{Seed: s.in.cells[ci].seed})
		}
		var resp *api.BatchSolveResponse
		if resp, err = s.t.client.SolveBatch(ctx, &breq); err == nil {
			if len(resp.Results) != len(r.cells) {
				s.res.violate("batch answered %d results for %d right-hand sides", len(resp.Results), len(r.cells))
				ok = false
				break
			}
			for j, lane := range resp.Results {
				check(r.cells[j], lane.Result, lane.SolveError)
			}
			queue, solve = resp.QueueMillis, resp.Results[0].SolveMillis
			coalesced = resp.Coalesced > len(r.cells)
		}
	default:
		req.Seed = s.in.cells[r.cells[0]].seed
		var resp *api.SolveResponse
		if r.kind == kindStream {
			resp, err = s.t.client.SolveStream(ctx, &req, nil)
		} else {
			resp, err = s.t.client.Solve(ctx, &req)
		}
		if err == nil {
			check(r.cells[0], resp.Result, resp.SolveError)
			queue, solve = resp.QueueMillis, resp.SolveMillis
			coalesced = resp.Coalesced > 1
		}
	}
	if err != nil {
		// A corrupt body is a wrong output, not just a failed request. The
		// client reports it only in its error text.
		if strings.Contains(err.Error(), "digest mismatch") {
			s.res.violate("%s %s/%s: %v", id.label, g.solver, g.scheme, err)
		} else {
			s.res.noteError(err)
		}
		return false
	}
	s.mu.Lock()
	s.responses++
	if coalesced {
		s.coalesced++
	}
	if traceID != "" {
		s.byTrace[traceID] = [2]float64{queue, solve}
	}
	s.mu.Unlock()
	return ok
}

// timed sends one request due at due and records its client-side spans
// in a traced phase: bench.request from the due time, api.client from the
// send.
func (s *serveRun) timed(ctx context.Context, r serveReq, due time.Time) outcome {
	traced := s.log.on.Load()
	traceID := ""
	if traced {
		traceID = fmt.Sprintf("pb-%d", s.traceSeq.Add(1))
	}
	sent := time.Now()
	sentNs := s.log.now()
	ok := s.do(ctx, r, traceID)
	done := time.Now()
	if traced {
		doneNs := s.log.now()
		s.log.add("bench.request", traceID, "", sentNs-sent.Sub(due).Nanoseconds(), doneNs, 0)
		s.log.add("api.client", traceID, "", sentNs, doneNs, 0)
	}
	return outcome{ok: ok, dueToDone: done.Sub(due)}
}

// loopStats is what one load segment measured.
type loopStats struct {
	sent, ok   int
	wall       time.Duration
	latMs      []float64 // open loop: due time to verified response, successes only
	kindLatMs  [numKinds][]float64
	sloOK      int
	genLagMs   []float64 // open loop: lateness of sends that found an idle sender
	maxBacklog int
}

// serveCycles is how many times a run alternates an open-loop and a
// closed-loop segment. The 2-vCPU VM the benchmark was sized on changes
// speed by up to 40% for seconds at a time; each end-to-end figure is the
// median over the cycles, so a slow spell moves a few cycles, not the
// figure.
const serveCycles = 15

// phaseSeries pools a phase's segments and keeps each segment's figures.
type phaseSeries struct {
	all           loopStats
	p50, p90, rps []float64
}

func (p *phaseSeries) add(st loopStats) {
	a := &p.all
	a.sent += st.sent
	a.ok += st.ok
	a.wall += st.wall
	a.latMs = append(a.latMs, st.latMs...)
	for k := range st.kindLatMs {
		a.kindLatMs[k] = append(a.kindLatMs[k], st.kindLatMs[k]...)
	}
	a.sloOK += st.sloOK
	a.genLagMs = append(a.genLagMs, st.genLagMs...)
	a.maxBacklog = max(a.maxBacklog, st.maxBacklog)
	p.p50 = append(p.p50, quantile(st.latMs, 0.5))
	p.p90 = append(p.p90, quantile(st.latMs, 0.9))
	p.rps = append(p.rps, float64(st.ok)/st.wall.Seconds())
}

// openLoop sends requests at seeded Poisson arrival times for dur, with at
// most nproc in flight. Latency runs from each request's due time, so the
// wait for a free connection counts.
func (s *serveRun) openLoop(ctx context.Context, rng *rand.Rand, dur time.Duration) loopStats {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / s.prof.openRate * float64(time.Second))
		if t >= dur {
			break
		}
		due = append(due, t)
	}
	reqs := make([]serveReq, len(due))
	for i := range reqs {
		reqs[i] = s.gen.next()
	}
	var st loopStats
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				idle := false
				if d := time.Until(at); d > 0 {
					idle = true
					time.Sleep(d)
				}
				lag := time.Since(at)
				backlog := sort.Search(len(due), func(k int) bool { return due[k] > time.Since(start) }) - i
				o := s.timed(ctx, reqs[i], at)
				mu.Lock()
				st.sent++
				if idle {
					st.genLagMs = append(st.genLagMs, float64(lag.Nanoseconds())/1e6)
				}
				st.maxBacklog = max(st.maxBacklog, backlog)
				if o.ok {
					st.ok++
					ms := float64(o.dueToDone.Nanoseconds()) / 1e6
					st.latMs = append(st.latMs, ms)
					st.kindLatMs[reqs[i].kind] = append(st.kindLatMs[reqs[i].kind], ms)
					if ms <= s.prof.sloMs {
						st.sloOK++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

// closedLoop runs nproc clients, each sending its next request when the
// previous one is answered, for dur.
func (s *serveRun) closedLoop(ctx context.Context, dur time.Duration) loopStats {
	var st loopStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := s.timed(ctx, s.gen.next(), time.Now())
				mu.Lock()
				st.sent++
				if o.ok {
					st.ok++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

// record adds a phase's counts to the result.
func (s *serveRun) record(name string, st loopStats) {
	s.res.Attempted += st.sent
	s.res.Failed += st.sent - st.ok
	s.res.Phases = append(s.res.Phases, phaseCount{Name: name, Sent: st.sent, Succeeded: st.ok, Failed: st.sent - st.ok, Seconds: st.wall.Seconds()})
}

// checkOpenLoop marks the run invalid when the generator could not keep
// its schedule: late sends with an idle sender, or a backlog beyond the
// bound.
func (s *serveRun) checkOpenLoop(name string, st loopStats) {
	if lag := quantile(st.genLagMs, 0.99); lag > genLagLimitMs {
		s.res.invalidate("%s: generator lag p99 %.1f ms exceeds %d ms", name, lag, genLagLimitMs)
	}
	if st.maxBacklog > maxBacklog {
		s.res.invalidate("%s: open-loop backlog reached %d requests (bound %d)", name, st.maxBacklog, maxBacklog)
	}
}

// warmUp sends every hot cell once as a single request, and one request
// of every other kind the profile sends, so the measured phases find every
// hot artifact cached: matrix, right-hand sides, preconditioner and
// intervals.
func (s *serveRun) warmUp(ctx context.Context) error {
	var kinds [numKinds]bool
	for i := 0; i < 8; i++ {
		kinds[s.prof.kindAt(i)] = true
	}
	var reqs []serveReq
	seen := map[int]bool{}
	for gi, g := range s.in.groups[:s.in.nHot] {
		for _, c := range g.cells {
			reqs = append(reqs, serveReq{kind: kindSingle, group: gi, cells: []int{c}})
		}
		if !seen[g.ident] {
			seen[g.ident] = true
			if kinds[kindBatch] {
				reqs = append(reqs, serveReq{kind: kindBatch, group: gi, cells: g.cells[:batchK]})
			}
			if kinds[kindStream] {
				reqs = append(reqs, serveReq{kind: kindStream, group: gi, cells: g.cells[:1]})
			}
		}
	}
	if tail := s.in.groups[s.in.nHot:]; len(tail) > 0 {
		for _, k := range []int{kindTail, kindInline} {
			if kinds[k] {
				reqs = append(reqs, serveReq{kind: k, group: s.in.nHot, cells: tail[0].cells})
			}
		}
	}
	for _, r := range reqs {
		if !s.do(ctx, r, "") {
			return fmt.Errorf("warm-up request failed: %v", s.res.Violations)
		}
	}
	return nil
}

// runServe runs a service workload: set up (inputs, references, tiers,
// warm-up) several times, then serveCycles cycles of an open-loop and a
// closed-loop segment.
func runServe(cfg runConfig, res *result) error {
	log := res.spans
	prof := serveProfiles[cfg.workload]
	s := &serveRun{res: res, log: log, prof: prof, byTrace: map[string][2]float64{}}
	ctx := context.Background()
	err := res.repeatSetup(func(last bool) (func(), error) {
		log.on.Store(cfg.traced && last)
		defer log.on.Store(false)
		in, err := buildServeInputs(prof, cfg.seed, log)
		if err != nil {
			return nil, err
		}
		t, err := startTiers(log, cfg.traced)
		if err != nil {
			return nil, err
		}
		s.in, s.t = in, t
		log.on.Store(false) // the warm-up is not measured
		s.gen = newReqGen(prof, in, cfg.seed^0x5eed)
		if err := s.warmUp(ctx); err != nil {
			t.close()
			return nil, err
		}
		return t.close, nil
	})
	if err != nil {
		return err
	}
	defer s.t.close()
	res.Notes = append(res.Notes, fmt.Sprintf("open loop at %.0f req/s, latency limit %.0f ms; closed loop with %d clients; %d cells",
		prof.openRate, prof.sloMs, runtime.NumCPU(), len(s.in.cells)))

	before, err := s.t.totals(ctx)
	if err != nil {
		return err
	}
	// Each cycle runs an open-loop segment, then a closed-loop one. A
	// traced run first repeats the open-loop segment untraced, for the
	// tracing overhead, and measures the runtime costs over those untraced
	// segments only.
	arrivals := rand.New(rand.NewSource(cfg.seed ^ 0xa771))
	openDur, closedDur := cfg.budget*6/10/serveCycles, cfg.budget*4/10/serveCycles
	if cfg.traced {
		openDur, closedDur = cfg.budget*3/10/serveCycles, cfg.budget*3/10/serveCycles
	}
	var open, closed, untraced phaseSeries
	var goCost goSample
	for c := 0; c < serveCycles; c++ {
		if cfg.traced {
			g0 := sampleGo()
			untraced.add(s.openLoop(ctx, arrivals, openDur))
			goCost = goCost.plus(g0, sampleGo())
			log.on.Store(true)
		}
		g0 := sampleGo()
		open.add(s.openLoop(ctx, arrivals, openDur))
		closed.add(s.closedLoop(ctx, closedDur))
		if !cfg.traced {
			goCost = goCost.plus(g0, sampleGo())
		}
		log.on.Store(false)
	}
	goOps := open.all.sent + closed.all.sent
	if cfg.traced {
		s.record("open-untraced", untraced.all)
		goOps = untraced.all.sent
	}
	s.record("open", open.all)
	s.checkOpenLoop("open", open.all)
	s.record("closed", closed.all)
	res.setGoMetrics(goCost, goOps)
	after, err := s.t.totals(ctx)
	if err != nil {
		return err
	}
	select {
	case err := <-s.t.serveErr:
		return fmt.Errorf("serving: %w", err)
	default:
	}

	res.set("lat_p50_ms", median(open.p50))
	res.set("lat_p90_ms", median(open.p90))
	res.set("bench.lat_p99_ms", quantile(open.all.latMs, 0.99))
	res.set("slo_ok_share", ratio(float64(open.all.sloOK), float64(open.all.sent)))
	res.set("ops_per_s", median(closed.rps))
	res.Notes = append(res.Notes, fmt.Sprintf("per cycle: open p50 %.3g ms, open p90 %.3g ms, closed %.4g req/s",
		open.p50, open.p90, closed.rps))
	for k, ms := range open.all.kindLatMs {
		if len(ms) > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("open loop, %s requests: %d, p50 %.3g ms, p90 %.3g ms",
				kindNames[k], len(ms), quantile(ms, 0.5), quantile(ms, 0.9)))
		}
	}
	res.set("bench.gen_lag_p99_ms", quantile(open.all.genLagMs, 0.99))
	res.set("bench.open_backlog_max", float64(open.all.maxBacklog))
	hits, misses := after.hits-before.hits, after.misses-before.misses
	res.set("server.cache_hit_share", ratio(float64(hits), float64(hits+misses)))
	res.set("server.cache_evictions", float64(after.evictions-before.evictions))
	res.set("server.rejected", float64(after.rejected-before.rejected))
	res.set("server.expired", float64(after.expired-before.expired))
	res.set("server.coalesced_share", ratio(float64(s.coalesced), float64(s.responses)))
	res.set("bench.trace_overhead_share", 0)
	if cfg.traced {
		res.set("bench.trace_overhead_share", median(open.p50)/median(untraced.p50)-1)
		s.setServiceLayers(open.all.sent + closed.all.sent)
		res.setCoreMetrics(s.in.obs)
		res.set("core.online_drift_share", 0)
		res.NotExercised = append(res.NotExercised, "core.*.online", "core.online_drift_share", "core recovery and fault counts (fault-free traffic)")
		var pm []probeMatrix // the hot identities and as many tail ones
		for _, id := range s.in.idents[:min(len(s.in.idents), 2*len(prof.hot))] {
			pm = append(pm, probeMatrix{label: id.label, a: id.a})
		}
		runProbes(res, pm, pool.Default())
		var builds []float64
		for _, id := range s.in.idents {
			builds = append(builds, id.buildMs)
		}
		res.set("harness.build_ms", meanOf(builds))
	}
	return nil
}

// setServiceLayers derives the api, router and server layer metrics from
// the traced phases' spans and responses.
func (s *serveRun) setServiceLayers(requests int) {
	r := s.res
	s.log.linkServiceParents()
	var client, wire, rHandle, rSelf, fwd, sHandle, sSelf, queue, solve []float64
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, spans := range s.log.byTrace() {
		c := durationsMs(spans, "api.client")
		rh := durationsMs(spans, "router.handle")
		f := durationsMs(spans, "router.forward")
		sh := durationsMs(spans, "server.handle")
		qs, answered := s.byTrace[id]
		if len(c) != 1 || len(rh) != 1 || !answered {
			continue
		}
		client = append(client, c[0])
		wire = append(wire, c[0]-rh[0])
		rHandle = append(rHandle, rh[0])
		fwd = append(fwd, sumOf(f))
		rSelf = append(rSelf, rh[0]-sumOf(f))
		sHandle = append(sHandle, sumOf(sh))
		sSelf = append(sSelf, sumOf(sh)-qs[0]-qs[1])
		queue = append(queue, qs[0])
		solve = append(solve, qs[1])
	}
	r.set("api.client_ms_p50", quantile(client, 0.5))
	r.set("api.client_ms_p99", quantile(client, 0.99))
	r.set("api.wire_ms_p50", quantile(wire, 0.5))
	r.set("router.handle_ms_p50", quantile(rHandle, 0.5))
	r.set("router.self_ms_p50", quantile(rSelf, 0.5))
	r.set("router.forward_ms_p50", quantile(fwd, 0.5))
	r.set("server.handle_ms_p50", quantile(sHandle, 0.5))
	r.set("server.self_ms_p50", quantile(sSelf, 0.5))
	r.set("server.queue_ms_p50", quantile(queue, 0.5))
	r.set("server.queue_ms_p99", quantile(queue, 0.99))
	r.set("server.solve_ms_p50", quantile(solve, 0.5))
	r.set("server.solve_ms_p99", quantile(solve, 0.99))
	r.set("router.attempts_per_req", ratio(float64(s.t.fwd.attempts.Load()), float64(requests)))
	ct := s.t.ct
	r.set("api.req_bytes_mean", ratio(float64(ct.reqBytes.Load()), float64(ct.reqs.Load())))
	r.set("api.resp_bytes_mean", ratio(float64(ct.rspBytes.Load()), float64(ct.reqs.Load())))
	r.Notes = append(r.Notes, fmt.Sprintf("%d traced requests joined across client, router and shard spans", len(client)))
}

// setServiceZeros reports the service layers as 0 on a workload without
// HTTP traffic.
func setServiceZeros(r *result) {
	for _, n := range []string{
		"api.client_ms_p50", "api.client_ms_p99", "api.wire_ms_p50", "api.req_bytes_mean", "api.resp_bytes_mean",
		"router.handle_ms_p50", "router.self_ms_p50", "router.forward_ms_p50", "router.attempts_per_req",
		"server.handle_ms_p50", "server.self_ms_p50", "server.queue_ms_p50", "server.queue_ms_p99",
		"server.solve_ms_p50", "server.solve_ms_p99", "server.cache_hit_share", "server.cache_evictions",
		"server.coalesced_share", "server.rejected", "server.expired", "bench.open_backlog_max",
	} {
		r.set(n, 0)
	}
}
