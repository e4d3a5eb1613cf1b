package core

import (
	"fmt"
	"math"

	"repro/internal/abft"
	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// BlockConfig parameterises a blocked multi-RHS resilient solve. The axes
// mirror Config; fault injection is deliberately absent — the blocked tier
// shares one live matrix and one checksum encoding across the right-hand
// sides, which is only sound when nothing mutates them mid-block, so
// SolveBlock is a fault-free tier (the service's batch path, where ABFT
// verification still guards against real silent errors, is exactly that).
type BlockConfig struct {
	// Scheme selects the resilience method: ABFTDetection or ABFTCorrection.
	// OnlineDetection has no protected product to amortise and is not
	// supported here (callers fall back to sequential solves).
	Scheme Scheme
	// S and D override the model-optimal checkpoint and verification
	// intervals when > 0 (D is forced to 1 for the ABFT schemes, as in the
	// sequential driver).
	S, D int
	// Tol is the relative residual tolerance (default 1e-8).
	Tol float64
	// MaxIters caps the useful iterations per right-hand side (default 20·n).
	MaxIters int
	// Costs calibrates the time accounting; zero value means defaults.
	Costs CostParams
	// Pool, when non-nil, runs the block's protected product and each
	// lane's ABFT iteration (as in Config) and the confirmation and
	// final-residual products on the worker pool; the arithmetic is
	// identical either way.
	Pool *pool.Pool
	// OnIteration, when non-nil, is called after every useful iteration of
	// every right-hand side with the RHS index, the iteration count and the
	// recurrence scalar ρ — the same values the sequential driver's
	// OnIteration would deliver for that system solved alone.
	OnIteration func(rhs, it int, rho float64)
	// Ws supplies the reusable block arena; a warm workspace makes repeated
	// block solves allocation-free. Must not be shared by concurrent solves.
	Ws *BlockWorkspace
}

// BlockWorkspace is the reusable arena of the blocked driver: one shared
// working matrix copy and one shared checksum encoding (the amortisation
// win — the encoding is built once per block instead of once per solve),
// plus a per-lane core.Workspace carrying each right-hand side's private
// vectors, guards and checkpoint stores. Storage grows with the widest
// block seen and is recycled afterwards.
type BlockWorkspace struct {
	live  *sparse.CSR
	prot  *abft.Protected
	lanes []*blockLane
	// gathered active-column headers for the shared product, and the
	// returned solution headers — reused across rounds and solves.
	ps, qs [][]float64
	idx    []int
	xs     [][]float64
	onIter func(rhs, it int, rho float64)
}

// NewBlockWorkspace returns an empty block workspace; storage is created on
// first use and recycled afterwards.
func NewBlockWorkspace() *BlockWorkspace { return &BlockWorkspace{} }

// Prewarm builds the shared working matrix copy and checksum encoding ahead
// of the first block solve, so a cache handing out warm workspaces pays the
// construction cost at fill time instead of on the request path. Optional;
// never changes results.
func (bw *BlockWorkspace) Prewarm(a *sparse.CSR, scheme Scheme) {
	live := bw.liveCopy(a)
	if scheme != OnlineDetection {
		bw.prot = renew(bw.prot, live, abftMode(scheme), nil)
	}
}

func (bw *BlockWorkspace) begin() *BlockWorkspace {
	if bw == nil {
		return &BlockWorkspace{}
	}
	return bw
}

// liveCopy mirrors Workspace.liveCopy for the shared slot.
func (bw *BlockWorkspace) liveCopy(a *sparse.CSR) *sparse.CSR {
	if bw.live != nil && bw.live.Rows == a.Rows && bw.live.Cols == a.Cols && len(bw.live.Val) == len(a.Val) {
		bw.live.CopyFrom(a)
		return bw.live
	}
	bw.live = a.Clone()
	return bw.live
}

// lane returns the j-th per-RHS lane, growing the pool as needed. The
// OnIteration closure is built once per lane and reads the workspace's
// current callback, so warm solves install a new callback without
// allocating.
func (bw *BlockWorkspace) lane(j int) *blockLane {
	for len(bw.lanes) <= j {
		bl := &blockLane{ws: NewWorkspace(), idx: len(bw.lanes), bw: bw}
		bl.cb = func(it int, rho float64) {
			if f := bl.bw.onIter; f != nil {
				f(bl.idx, it, rho)
			}
		}
		bw.lanes = append(bw.lanes, bl)
	}
	return bw.lanes[j]
}

// blockLane is the per-RHS solve state of one block: a private workspace
// (vectors, guards, checkpoint stores) plus the lockstep bookkeeping that
// the sequential driver keeps in local variables of its loop.
type blockLane struct {
	ws  *Workspace
	idx int
	bw  *BlockWorkspace
	cb  func(it int, rho float64)

	// outR/outX hold the pre-product guard outcomes across the shared
	// product (the sequential driver computes and consumes them inside one
	// iterate call).
	outR, outX abft.Outcome
	pending    bool
	done       bool
	err        error

	finalRetries int
	maxTotal     int64
}

// SolveBlock runs the resilient CG of the configured ABFT scheme on the k
// systems A·x_j = bs[j] simultaneously: every iteration gathers the active
// direction vectors and computes all products q_j = A·p_j in ONE protected
// traversal of the CSR arrays (abft.Protected.MulVecBlock), paying the
// Rowidx checksum accumulation once per block instead of once per system.
// Convergence, verification and detection state stay fully independent per
// right-hand side, and each lane's entire trajectory — iterates, residual
// history, statistics — is bitwise identical to solving that system alone
// with Solve, because the blocked product computes each column with exactly
// the sequential kernel's arithmetic and the shared Rowidx sums are bitwise
// equal to the per-solve sums (they depend only on Rowidx).
//
// Per-lane statistics and errors land in sts[j] and errs[j] (both must have
// length ≥ len(bs)); the returned solutions alias workspace memory. The
// caller's matrix is never modified.
func SolveBlock(a *sparse.CSR, bs [][]float64, cfg BlockConfig, sts []Stats, errs []error) ([][]float64, error) {
	n := a.Rows
	k := len(bs)
	if k == 0 {
		return nil, nil
	}
	if a.Cols != n {
		return nil, fmt.Errorf("core: SolveBlock needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	for j, b := range bs {
		if len(b) != n {
			return nil, fmt.Errorf("core: SolveBlock dimension mismatch: A %dx%d, len(bs[%d])=%d", a.Rows, a.Cols, j, len(b))
		}
	}
	if len(sts) < k || len(errs) < k {
		return nil, fmt.Errorf("core: SolveBlock needs len(sts) and len(errs) ≥ %d", k)
	}
	if cfg.Scheme != ABFTDetection && cfg.Scheme != ABFTCorrection {
		return nil, fmt.Errorf("core: SolveBlock supports the ABFT schemes only, got %v", cfg.Scheme)
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-8
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = 20 * n
	}
	if cfg.Costs == (CostParams{}) {
		cfg.Costs = DefaultCostParams()
	}

	bw := cfg.Ws.begin()
	bw.onIter = cfg.OnIteration
	live := bw.liveCopy(a)
	costs := NewCosts(live, cfg.Scheme, cfg.Costs)
	mode := abftMode(cfg.Scheme)
	bw.prot = renew(bw.prot, live, mode, cfg.Pool)
	prot := bw.prot

	d, s := cfg.D, cfg.S
	if d == 0 || s == 0 {
		od, os := OptimalIntervals(a, cfg.Scheme, 0, cfg.Costs)
		if d == 0 {
			d = od
		}
		if s == 0 {
			s = os
		}
	}
	d = 1 // ABFT schemes verify every iteration by construction

	// Per-lane setup, mirroring Solve's exactly: same take order, same
	// initial checkpointing, same cost charges.
	setup := SetupCost(live, cfg.Scheme, cfg.Costs)
	for j := 0; j < k; j++ {
		lane := bw.lane(j)
		ws := lane.ws.begin()
		run := &ws.rs
		exec := run.exec // preserve the TMR executor's resident replica scratch
		laneCfg := Config{
			Scheme: cfg.Scheme, S: s, D: d, Tol: cfg.Tol, MaxIters: cfg.MaxIters,
			Costs: cfg.Costs, Pool: cfg.Pool, OnIteration: lane.cb, Ws: ws,
		}
		*run = runState{
			cfg:   laneCfg,
			costs: costs,
			live:  live,
			b:     bs[j],
			x:     ws.takeZero(n),
			r:     ws.takeCopy(bs[j]), // x0 = 0 ⇒ r0 = b
			p:     ws.takeCopy(bs[j]),
			q:     ws.take(n),
			rr:    ws.take(n),
			d:     d,
			s:     s,
		}
		run.stats = Stats{Scheme: cfg.Scheme, D: d, S: s}
		ws.state = fault.State{A: live, R: run.r, P: run.p, Q: run.q, X: run.x}
		run.state = &ws.state
		run.exec = exec
		run.exec.Pool = cfg.Pool
		run.prot = prot
		run.rGuard = ws.guard(0, run.r, mode)
		run.pGuard = ws.guard(1, run.p, mode)
		run.xGuard = ws.guard(2, run.x, mode)
		run.stats.SimTime += setup

		run.store, run.initStore = ws.stores()
		run.view = ws.liveView(live, nil)
		run.view.Vectors["x"] = run.x
		run.view.Vectors["r"] = run.r
		run.view.Vectors["p"] = run.p
		run.normB = vec.Norm2(bs[j])
		if run.normB == 0 {
			run.normB = 1
		}
		run.rho = vec.Norm2Sq(run.r)
		run.saveCheckpoint(false) // initial state; re-reading inputs is free
		run.initStore.Save(run.view)

		lane.pending, lane.done, lane.err = false, false, nil
		lane.outR, lane.outX = abft.Outcome{}, abft.Outcome{}
		lane.finalRetries = 0
		lane.maxTotal = int64(cfg.MaxIters)*10 + 1000
	}

	// Lockstep rounds: each active lane advances to its product point, the
	// gathered products run as one protected block traversal, and each lane
	// completes its iteration on the shared Rowidx sums.
	for {
		bw.ps, bw.qs, bw.idx = bw.ps[:0], bw.qs[:0], bw.idx[:0]
		for j := 0; j < k; j++ {
			lane := bw.lanes[j]
			if lane.done {
				continue
			}
			lane.advance()
			if lane.pending {
				rs := &lane.ws.rs
				bw.ps = append(bw.ps, rs.p)
				bw.qs = append(bw.qs, rs.q)
				bw.idx = append(bw.idx, j)
			}
		}
		if len(bw.idx) == 0 {
			break
		}
		sr := prot.MulVecBlock(bw.qs, bw.ps)
		for _, j := range bw.idx {
			bw.lanes[j].finish(sr)
		}
	}

	// Finalisation mirrors Solve: compose SimTime and recompute the true
	// residual on the caller's pristine matrix.
	bw.xs = bw.xs[:0]
	for j := 0; j < k; j++ {
		lane := bw.lanes[j]
		rs := &lane.ws.rs
		st := &rs.stats
		st.SimTime = st.TimeIter + st.TimeVerif + st.TimeCkpt + st.TimeRecovery + st.SimTime
		rr := rs.rr
		a.MulVecParallel(cfg.Pool, rr, rs.x)
		vec.Sub(rr, rs.b, rr)
		st.FinalResidual = vec.Norm2(rr) / rs.normB
		sts[j] = *st
		errs[j] = lane.err
		bw.xs = append(bw.xs, rs.x)
	}
	return bw.xs, nil
}

// advance replays the head of the sequential driver's loop for one lane —
// convergence test with confirmed true residual, iteration budget, the
// pre-product cost charges and guard checks — and stops either because the
// lane finished (done) or because its product q ← A·p is pending in the
// next shared block traversal.
func (bl *blockLane) advance() {
	rs := &bl.ws.rs
	cfg := rs.cfg
	st := &rs.stats
	for {
		if math.Sqrt(rs.rho) <= cfg.Tol*rs.normB {
			st.TimeVerif += rs.costs.Titer // one confirmation SpMxV
			rs.live.MulVecRobustParallel(cfg.Pool, rs.q, rs.x)
			vec.Sub(rs.q, rs.b, rs.q)
			confirmTol := math.Max(10*cfg.Tol, 1e-6) * rs.normB
			if tr := vec.Norm2(rs.q); tr <= confirmTol && !math.IsNaN(tr) {
				st.Converged = true
				st.UsefulIterations = rs.it
				bl.done = true
				return
			}
			bl.finalRetries++
			if bl.finalRetries >= maxFinalCheckRetries {
				st.UsefulIterations = rs.it
				bl.err = fmt.Errorf("core: %v: convergence confirmation kept failing (latent corruption)", cfg.Scheme)
				bl.done = true
				return
			}
			rs.rollback()
			continue
		}
		if rs.it >= cfg.MaxIters || st.TotalIterations >= bl.maxTotal {
			st.UsefulIterations = rs.it
			bl.err = fmt.Errorf("core: %v: not converged after %d useful (%d total) iterations",
				cfg.Scheme, rs.it, st.TotalIterations)
			bl.done = true
			return
		}

		st.TotalIterations++
		// Pre-product half of the ABFT iteration (no fault injection in
		// block mode): cost charges and the memory-fault checks on the
		// vectors written last iteration.
		st.TimeIter += rs.costs.Titer
		st.TimeVerif += rs.costs.Tverif
		bl.outR, bl.outX = rs.rGuard.CheckPair(cfg.Pool, rs.r, rs.xGuard, rs.x)
		bl.pending = true
		return
	}
}

// finish completes one lane's iteration after the shared block product:
// verification against the shared Rowidx sums, the CG recurrences, and the
// post-iteration bookkeeping — exactly the sequence the sequential driver
// runs, so outcomes and checkpoint cadence match bitwise.
func (bl *blockLane) finish(sr abft.RowSums) {
	rs := &bl.ws.rs
	cfg := rs.cfg
	bl.pending = false
	if !rs.settleABFT(bl.outR, bl.outX, sr) || !rs.recurrences(true) {
		rs.rollback()
		return
	}
	rs.it++
	if cfg.OnIteration != nil {
		cfg.OnIteration(rs.it, rs.rho)
	}
	if rs.it > rs.highWater {
		rs.highWater = rs.it
		rs.stuck = 0
	}
	if rs.it%rs.d == 0 { // chunk boundary (d = 1 for the ABFT schemes)
		if (rs.it/rs.d)%rs.s == 0 && rs.it > rs.last {
			rs.saveCheckpoint(true)
		}
	}
}
