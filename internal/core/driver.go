package core

import (
	"fmt"
	"math"

	"repro/internal/abft"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/tmr"
	"repro/internal/vec"
)

// maxFinalCheckRetries bounds the convergence re-verification loop: a
// latent corruption that was checkpointed (e.g. a Val flip in a column
// where the iterate happens to be zero) can make the final residual check
// fail repeatedly; after this many failures the solve aborts.
const maxFinalCheckRetries = 20

// Solve runs the resilient CG of the configured scheme on Ax = b and
// returns the solution, the execution statistics and an error when the
// method did not converge. The caller's matrix is never modified: faults
// are injected into an internal working copy.
func Solve(a *sparse.CSR, b []float64, cfg Config) ([]float64, Stats, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, Stats{}, fmt.Errorf("core: dimension mismatch: A %dx%d, len(b)=%d", a.Rows, a.Cols, len(b))
	}
	cfg = cfg.withDefaults(n)
	ws := cfg.Ws.begin()

	live := ws.liveCopy(a)
	costs := NewCosts(live, cfg.Scheme, cfg.Costs)

	alpha := 0.0
	if cfg.Injector != nil {
		alpha = cfg.Injector.Alpha()
	}
	d, s := cfg.D, cfg.S
	if d == 0 || s == 0 {
		od, os := OptimalIntervals(a, cfg.Scheme, alpha, cfg.Costs)
		if d == 0 {
			d = od
		}
		if s == 0 {
			s = os
		}
	}
	if cfg.Scheme != OnlineDetection {
		d = 1 // ABFT schemes verify every iteration by construction
	}

	run := &ws.rs
	exec := run.exec // preserve the TMR executor's resident replica scratch
	*run = runState{
		cfg:   cfg,
		costs: costs,
		live:  live,
		b:     b,
		x:     ws.takeZero(n),
		r:     ws.takeCopy(b), // x0 = 0 ⇒ r0 = b
		p:     ws.takeCopy(b),
		q:     ws.take(n),
		rr:    ws.take(n),
		d:     d,
		s:     s,
	}
	run.stats = Stats{Scheme: cfg.Scheme, D: d, S: s}
	st := &run.stats
	ws.state = fault.State{A: live, R: run.r, P: run.p, Q: run.q, X: run.x}
	run.state = &ws.state

	run.exec = exec
	run.exec.Pool = cfg.Pool
	if cfg.Scheme != OnlineDetection {
		mode := abftMode(cfg.Scheme)
		run.prot = ws.protected(live, mode, cfg.Pool)
		run.rGuard = ws.guard(0, run.r, mode)
		run.pGuard = ws.guard(1, run.p, mode)
		run.xGuard = ws.guard(2, run.x, mode)
		st.SimTime += SetupCost(live, cfg.Scheme, cfg.Costs)
	}

	run.store, run.initStore = ws.stores()
	run.view = ws.liveView(live, nil)
	run.view.Vectors["x"] = run.x
	run.view.Vectors["r"] = run.r
	run.view.Vectors["p"] = run.p
	run.normB = vec.Norm2(b)
	if run.normB == 0 {
		run.normB = 1
	}
	run.rho = vec.Norm2Sq(run.r)
	run.saveCheckpoint(false) // initial state; re-reading inputs is free
	run.initStore.Save(run.view)

	err := run.loop()
	st.SimTime = st.TimeIter + st.TimeVerif + st.TimeCkpt + st.TimeRecovery + st.SimTime
	if cfg.Injector != nil {
		st.FaultsInjected = cfg.Injector.Stats().Flips
	}
	// The reported residual uses the caller's pristine matrix.
	rr := run.rr
	a.MulVecParallel(cfg.Pool, rr, run.x)
	vec.Sub(rr, b, rr)
	st.FinalResidual = vec.Norm2(rr) / run.normB
	return run.x, *st, err
}

// runState carries the live solver state through the iteration loop.
type runState struct {
	cfg   Config
	costs Costs
	live  *sparse.CSR
	b     []float64
	x     []float64
	r     []float64
	p     []float64
	q     []float64
	rr    []float64 // scratch for onlineVerify and the final residual
	state *fault.State
	store *checkpoint.Store
	view  *checkpoint.State // reusable live-state view for save/rollback
	stats Stats

	prot   *abft.Protected
	rGuard *abft.VectorGuard
	pGuard *abft.VectorGuard
	xGuard *abft.VectorGuard
	exec   tmr.Executor

	normB float64
	rho   float64
	it    int // useful iterations completed (rolls back with the state)
	d, s  int
	last  int // iteration of the last checkpoint

	// Livelock escalation: a checkpoint that itself carries (sub-tolerance)
	// corruption can fail verification deterministically on every retry.
	// After stuckLimit rollbacks with no forward progress the driver
	// restores the pristine initial state instead ("re-reading the input
	// data", which the paper notes is how the first frame recovers).
	initStore *checkpoint.Store
	highWater int
	stuck     int
}

// stuckLimit is the number of no-progress rollbacks tolerated before
// escalating to the initial state.
const stuckLimit = 5

func (rs *runState) loop() error {
	cfg := rs.cfg
	st := &rs.stats
	maxTotal := int64(cfg.MaxIters)*10 + 1000
	finalRetries := 0
	emit := detectionEmitter(cfg.OnDetection, st)

	for {
		// Convergence test on the recurrence residual, confirmed against a
		// recomputed true residual so grossly corrupted state cannot be
		// returned. The confirmation threshold is floored at the detection
		// capability of the verification mechanisms (~1e-6 relative):
		// sub-threshold false negatives leave a drift the paper explicitly
		// accepts ("the algorithm still converges towards the correct
		// answer"), and demanding more here would loop forever on a
		// consistently-corrupted-but-harmless system.
		if math.Sqrt(rs.rho) <= cfg.Tol*rs.normB {
			st.TimeVerif += rs.costs.Titer // one confirmation SpMxV
			rs.live.MulVecRobustParallel(cfg.Pool, rs.q, rs.x)
			vec.Sub(rs.q, rs.b, rs.q)
			confirmTol := math.Max(10*cfg.Tol, 1e-6) * rs.normB
			if tr := vec.Norm2(rs.q); tr <= confirmTol && !math.IsNaN(tr) {
				st.Converged = true
				st.UsefulIterations = rs.it
				return nil
			}
			finalRetries++
			if finalRetries >= maxFinalCheckRetries {
				st.UsefulIterations = rs.it
				return fmt.Errorf("core: %v: convergence confirmation kept failing (latent corruption)", cfg.Scheme)
			}
			rs.rollback()
			continue
		}
		if rs.it >= cfg.MaxIters || st.TotalIterations >= maxTotal {
			st.UsefulIterations = rs.it
			return fmt.Errorf("core: %v: not converged after %d useful (%d total) iterations",
				cfg.Scheme, rs.it, st.TotalIterations)
		}

		st.TotalIterations++
		var deferredQ []fault.Event
		if cfg.Injector != nil {
			_, deferredQ = cfg.Injector.InjectIterationSplit(rs.state)
		}

		ok := rs.iterate(deferredQ)
		if !ok {
			if emit != nil {
				emit(rs.it, true)
			}
			rs.rollback()
			continue
		}

		rs.it++
		if cfg.OnIteration != nil {
			cfg.OnIteration(rs.it, rs.rho)
		}
		if emit != nil {
			emit(rs.it, false)
		}
		if rs.it > rs.highWater {
			rs.highWater = rs.it
			rs.stuck = 0
		}
		if rs.it%rs.d == 0 { // chunk boundary
			if cfg.Scheme == OnlineDetection {
				st.TimeVerif += rs.costs.Tverif
				if !rs.onlineVerify() {
					st.Detections++
					if emit != nil {
						emit(rs.it, true)
					}
					rs.rollback()
					continue
				}
			}
			if (rs.it/rs.d)%rs.s == 0 && rs.it > rs.last {
				rs.saveCheckpoint(true)
			}
		}
	}
}

// iterate performs one CG iteration on the live (possibly corrupted)
// state. It returns false when an uncorrectable error was detected and the
// caller must roll back.
func (rs *runState) iterate(deferredQ []fault.Event) bool {
	st := &rs.stats
	abftScheme := rs.cfg.Scheme != OnlineDetection

	if abftScheme {
		st.TimeIter += rs.costs.Titer
		st.TimeVerif += rs.costs.Tverif

		// Memory-fault checks on the vectors written last iteration.
		outR, outX := rs.rGuard.CheckPair(rs.cfg.Pool, rs.r, rs.xGuard, rs.x)

		sr := rs.prot.MulVec(rs.q, rs.p)
		for _, ev := range deferredQ {
			rs.cfg.Injector.ApplyEvent(rs.state, ev)
		}
		if !rs.settleABFT(outR, outX, sr) {
			return false
		}
	} else {
		st.TimeIter += rs.costs.Titer
		rs.live.MulVecRobustParallel(rs.cfg.Pool, rs.q, rs.p)
		for _, ev := range deferredQ {
			rs.cfg.Injector.ApplyEvent(rs.state, ev)
		}
	}

	return rs.recurrences(abftScheme)
}

// settleABFT verifies a completed protected product against the shared
// runtime Rowidx sums and resolves the joint detection outcome of the two
// vector guards and the product. It is the post-product half of an ABFT
// iteration, shared verbatim by the sequential and the blocked drivers so
// their detection behaviour is identical by construction.
func (rs *runState) settleABFT(outR, outX abft.Outcome, sr abft.RowSums) bool {
	st := &rs.stats
	outQ := rs.prot.Verify(rs.q, rs.p, rs.pGuard.Ref(), sr)

	vecCorrect := TcorrectVector(rs.live, rs.cfg.Costs)
	names := [3]string{"rGuard", "xGuard", "product"}
	for i, out := range [3]abft.Outcome{outR, outX, outQ} {
		if !out.Detected {
			continue
		}
		st.Detections++
		if !out.Corrected {
			rs.trace("it=%d %s detected uncorrectable class=%v", rs.it, names[i], out.Class)
			return false
		}
		st.Corrections++
		// Guard repairs (r, x) are O(n); product repairs may recompute
		// the O(nnz) column checksums.
		if i < 2 || out.Class == abft.ClassX {
			st.TimeVerif += vecCorrect
		} else {
			st.TimeVerif += rs.costs.Tcorrect
		}
		// A matrix repair restores the original entry only to rounding;
		// re-anchor the bitwise checksum identity on the repaired matrix.
		if i == 2 && (out.Class == abft.ClassVal || out.Class == abft.ClassColid || out.Class == abft.ClassRowidx) {
			rs.prot.Reencode()
		}
	}
	return true
}

// recurrences runs the CG recurrences (paper Algorithm 1, lines 6–10) after
// the product q = A·p is in place. ABFT schemes run the vector kernels
// under TMR (selective reliability for the computation); both schemes treat
// non-finite or non-positive curvature as a detected error.
func (rs *runState) recurrences(abftScheme bool) bool {
	st := &rs.stats
	var pq float64
	if abftScheme {
		pq = rs.exec.Dot(rs.p, rs.q)
	} else {
		pq = vec.DotPool(rs.cfg.Pool, rs.p, rs.q)
	}
	if pq <= 0 || math.IsNaN(pq) || math.IsInf(pq, 0) {
		st.Detections++
		return false
	}
	alpha := rs.rho / pq

	if abftScheme {
		rs.xGuard.RefreshSums(rs.exec.Axpy(alpha, rs.p, rs.x))
		rs.rGuard.RefreshSums(rs.exec.Axpy(-alpha, rs.q, rs.r))
	} else {
		vec.AxpyPool(rs.cfg.Pool, alpha, rs.p, rs.x)
		vec.AxpyPool(rs.cfg.Pool, -alpha, rs.q, rs.r)
	}

	var rhoNew float64
	if abftScheme {
		rhoNew = rs.exec.Norm2Sq(rs.r)
	} else {
		rhoNew = vec.Norm2SqPool(rs.cfg.Pool, rs.r)
	}
	if math.IsNaN(rhoNew) || math.IsInf(rhoNew, 0) {
		st.Detections++
		return false
	}
	beta := rhoNew / rs.rho
	if abftScheme {
		rs.pGuard.RefreshSums(rs.exec.Xpay(beta, rs.r, rs.p))
	} else {
		vec.XpayPool(rs.cfg.Pool, beta, rs.r, rs.p)
	}
	rs.rho = rhoNew
	return true
}

// onlineVerify implements Chen's periodic tests (paper Section 3.1): the
// residual is recomputed as b − Ax and compared with the recurrence
// residual, and the A-orthogonality of the current direction p against the
// last product q = A·p_prev is checked. Any discrepancy — including
// non-finite values — reports an error.
func (rs *runState) onlineVerify() bool {
	rr := rs.rr
	rs.live.MulVecRobustParallel(rs.cfg.Pool, rr, rs.x)
	vec.Sub(rr, rs.b, rr)

	normRR := vec.Norm2(rr)
	normR := vec.Norm2(rs.r)
	if math.IsNaN(normRR) || math.IsNaN(normR) || math.IsInf(normRR, 0) || math.IsInf(normR, 0) {
		return false
	}
	diff := vec.MaxAbsDiff(rr, rs.r)
	scale := math.Max(rs.normB, math.Max(normRR, normR))
	if diff > 1e-6*scale {
		return false
	}

	// Orthogonality: after the p-update, p_{i+1}ᵀ A p_i = 0 up to rounding.
	normP := vec.Norm2(rs.p)
	normQ := vec.Norm2(rs.q)
	if normP == 0 || normQ == 0 || math.IsNaN(normP) || math.IsNaN(normQ) {
		return false
	}
	ortho := math.Abs(vec.Dot(rs.p, rs.q)) / (normP * normQ)
	return ortho <= 1e-6 && !math.IsNaN(ortho)
}

// saveCheckpoint snapshots the full resilient state (matrix included)
// through the reusable live-state view. The view must carry the recurrence
// scalar: the initial-state store deep-copies the same view, and an
// escalated rollback resumes from its rho.
func (rs *runState) saveCheckpoint(charge bool) {
	rs.view.Iteration = rs.it
	rs.view.Scalars["rho"] = rs.rho
	rs.store.Save(rs.view)
	rs.last = rs.it
	if charge {
		rs.stats.Checkpoints++
		rs.stats.TimeCkpt += rs.costs.Tcp
	}
}

func (rs *runState) trace(format string, args ...any) {
	if rs.cfg.Trace != nil {
		rs.cfg.Trace(format, args...)
	}
}

// rollback restores the last checkpoint (escalating to the pristine
// initial state after stuckLimit no-progress retries) and re-arms the
// guards and the matrix checksum encoding.
func (rs *runState) rollback() {
	store := rs.store
	rs.stuck++
	if rs.stuck > stuckLimit {
		rs.trace("it=%d escalating rollback to initial state after %d stuck retries", rs.it, rs.stuck-1)
		store = rs.initStore
		rs.stuck = 0
		rs.highWater = 0
		rs.last = 0
	}
	store.Restore(rs.view)
	rs.it = rs.view.Iteration
	rs.rho = rs.view.Scalars["rho"]
	rs.stats.Rollbacks++
	rs.stats.TimeRecovery += rs.costs.Trec
	if rs.cfg.Scheme != OnlineDetection {
		rs.rGuard.Refresh(rs.r)
		rs.pGuard.Refresh(rs.p)
		rs.xGuard.Refresh(rs.x)
		// The restored matrix predates any later forward repairs, whose ulp
		// residues were absorbed into the current encoding; re-anchor it.
		rs.prot.Reencode()
	}
}
