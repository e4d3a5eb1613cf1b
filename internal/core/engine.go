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

// stuckLimit is the number of no-progress rollbacks tolerated before
// escalating to the initial state.
const stuckLimit = 5

// method is the part of a resilient solve that differs between Krylov
// methods: the recurrence and what it checkpoints besides the engine's
// vectors and ρ. Everything else — convergence confirmation, budgets,
// fault injection, detection accounting, verification, checkpointing and
// rollback — is the engine's.
type method interface {
	// norm is the quantity the convergence test compares with Tol·‖b‖.
	norm() float64
	// step runs one iteration on the live, possibly corrupted, state.
	step() stepResult
	// save and restore copy the recurrence scalars other than ρ into and
	// out of a checkpoint.
	save(sc map[string]float64)
	restore(sc map[string]float64)
}

// stepResult is how an iteration ended.
type stepResult int

const (
	// stepRollback: an uncorrectable error was detected; roll back.
	stepRollback stepResult = iota
	// stepDone: one full iteration completed.
	stepDone
	// stepHalf: BiCGstab met the tolerance at its half step. The iteration
	// counts, but the next convergence test confirms it before any
	// high-water, stuck or checkpoint bookkeeping.
	stepHalf
)

// rhoOnly is embedded by the methods whose only checkpointed scalar is ρ,
// which the engine saves itself.
type rhoOnly struct{}

func (rhoOnly) save(map[string]float64)    {}
func (rhoOnly) restore(map[string]float64) {}

// engine is the resilient iteration every driver runs (paper Section 4.2):
// each iteration is verified — by the ABFT-protected product and the
// vector guards every iteration, or by Chen's tests every d iterations
// under Online-Detection — then the solve corrects forward or rolls back
// to the last checkpoint, and it checkpoints every s chunks.
type engine struct {
	name  string // method name for error messages
	cfg   Config
	costs Costs
	m     method

	live        *sparse.CSR // working copy of A, in corruptible memory
	b           []float64
	x, r, p, q  []float64 // iterate, residual, direction, q = A·p
	rr          []float64 // scratch for the confirmation, Online verification and final residual
	normB       float64
	rho         float64 // recurrence scalar reported to OnIteration and checkpointed
	state       *fault.State
	deferred    []fault.Event // product-output faults of this iteration
	store       *checkpoint.Store
	initStore   *checkpoint.Store
	view        *checkpoint.State // reusable live-state view for save/rollback
	prot, protM *abft.Protected   // A's and (PCG) M's encodings; nil under Online-Detection
	rGuard      *abft.VectorGuard
	pGuard      *abft.VectorGuard
	xGuard      *abft.VectorGuard
	outR, outX  abft.Outcome // guard outcomes held across the protected product
	exec        tmr.Executor
	vecCorrect  float64 // model time of one O(n) vector repair
	tconfirm    float64 // model time of one convergence confirmation
	emit        func(it int, rolledBack bool)
	stats       Stats
	err         error

	it           int // useful iterations completed (rolls back with the state)
	d, s         int
	last         int // iteration of the last checkpoint
	finalRetries int
	maxTotal     int64

	// Livelock escalation: a checkpoint that itself carries (sub-tolerance)
	// corruption can fail verification deterministically on every retry.
	// After stuckLimit rollbacks with no forward progress the engine
	// restores the pristine initial state instead ("re-reading the input
	// data", which the paper notes is how the first frame recovers).
	highWater int
	stuck     int
}

// prepare is the set-up shared by the sequential drivers: it validates the
// system, applies the configuration defaults, refreshes the workspace's
// working copy of a and — under the ABFT schemes — its checksum encoding,
// chooses the intervals and returns the workspace's engine over them.
func (w *Workspace) prepare(name string, a *sparse.CSR, b []float64, cfg Config) (*engine, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("core: %s: dimension mismatch: A %dx%d, len(b)=%d", name, a.Rows, a.Cols, len(b))
	}
	cfg = cfg.withDefaults(n)
	w.live = liveCopy(w.live, a)
	var prot *abft.Protected
	if cfg.Scheme != OnlineDetection {
		w.prot = renew(w.prot, w.live, abftMode(cfg.Scheme), cfg.Pool)
		prot = w.prot
	}
	d, s := intervals(a, cfg)
	return w.engine(name, w.live, prot, NewCosts(w.live, cfg.Scheme, cfg.Costs), b, cfg, d, s), nil
}

// intervals returns the verification and checkpoint intervals: cfg's when
// set, model-optimal at the injector's fault rate otherwise, and d = 1
// under the ABFT schemes, which verify every iteration by construction.
func intervals(a *sparse.CSR, cfg Config) (d, s int) {
	d, s = cfg.D, cfg.S
	if cfg.Scheme != OnlineDetection {
		d = 1
	}
	if d == 0 || s == 0 {
		alpha := 0.0
		if cfg.Injector != nil {
			alpha = cfg.Injector.Alpha()
		}
		od, os := OptimalIntervals(a, cfg.Scheme, alpha, cfg.Costs)
		if d == 0 {
			d = od
		}
		if s == 0 {
			s = os
		}
	}
	return d, s
}

// engine resets the workspace's engine for a solve of live·x = b from
// x0 = 0 (so r0 = b) and takes its vectors. prot is live's encoding (nil
// under Online-Detection). The method then sets p and ρ, adds its own
// state and costs, and calls start.
func (w *Workspace) engine(name string, live *sparse.CSR, prot *abft.Protected, costs Costs, b []float64, cfg Config, d, s int) *engine {
	n := live.Rows
	e := &w.eng
	exec := e.exec // preserve the TMR executor's resident replica scratch
	*e = engine{
		name:       name,
		cfg:        cfg,
		costs:      costs,
		live:       live,
		b:          b,
		x:          w.takeZero(n),
		r:          w.takeCopy(b),
		p:          w.takeZero(n),
		q:          w.takeZero(n),
		rr:         w.take(n),
		prot:       prot,
		exec:       exec,
		vecCorrect: TcorrectVector(live, cfg.Costs),
		tconfirm:   costs.Titer,
		d:          d,
		s:          s,
		maxTotal:   int64(cfg.MaxIters)*10 + 1000,
	}
	e.exec.Pool = cfg.Pool
	e.stats = Stats{Scheme: cfg.Scheme, D: d, S: s}
	if prot != nil {
		e.stats.SimTime += SetupCost(live, cfg.Scheme, cfg.Costs)
	}
	e.emit = detectionEmitter(cfg.OnDetection, &e.stats)
	w.state = fault.State{A: live, R: e.r, P: e.p, Q: e.q, X: e.x}
	e.state = &w.state
	e.store, e.initStore = w.stores()
	e.view = w.liveView(live, nil)
	e.view.Vectors["x"] = e.x
	e.view.Vectors["r"] = e.r
	e.view.Vectors["p"] = e.p
	e.normB = vec.Norm2(b)
	if e.normB == 0 {
		e.normB = 1
	}
	return e
}

// start arms the vector guards over the initial state and checkpoints it
// into both stores (re-reading the inputs is free).
func (e *engine) start(w *Workspace, m method) {
	e.m = m
	if e.prot != nil {
		mode := abftMode(e.cfg.Scheme)
		e.rGuard = w.guard(0, e.r, mode)
		e.pGuard = w.guard(1, e.p, mode)
		e.xGuard = w.guard(2, e.x, mode)
	}
	e.save(false)
	e.initStore.Save(e.view)
}

// solve runs the loop to its end and returns the solution, the statistics
// and the error of a solve that did not converge. The reported residual
// is recomputed on the caller's pristine matrix a.
func (e *engine) solve(a *sparse.CSR) ([]float64, Stats, error) {
	for e.head() {
		e.tail(e.m.step())
	}
	return e.finish(a)
}

// head runs the top of one round: the convergence test, confirmed against
// a recomputed true residual so grossly corrupted state cannot be
// returned, and the iteration budget. It returns true when an iteration
// should run, with this round's faults injected; false ends the solve,
// with e.err set when it failed.
func (e *engine) head() bool {
	cfg := &e.cfg
	st := &e.stats
	for {
		// The confirmation threshold is floored at the detection capability
		// of the verification mechanisms (~1e-6 relative): sub-threshold
		// false negatives leave a drift the paper explicitly accepts ("the
		// algorithm still converges towards the correct answer"), and
		// demanding more here would loop forever on a
		// consistently-corrupted-but-harmless system.
		if e.m.norm() <= cfg.Tol*e.normB {
			st.TimeVerif += e.tconfirm
			e.live.MulVecRobustParallel(cfg.Pool, e.rr, e.x)
			vec.Sub(e.rr, e.b, e.rr)
			confirmTol := math.Max(10*cfg.Tol, 1e-6) * e.normB
			if tr := vec.Norm2(e.rr); tr <= confirmTol && !math.IsNaN(tr) {
				st.Converged = true
				st.UsefulIterations = e.it
				return false
			}
			e.finalRetries++
			if e.finalRetries >= maxFinalCheckRetries {
				st.UsefulIterations = e.it
				e.err = fmt.Errorf("core: %s %v: convergence confirmation kept failing (latent corruption)", e.name, cfg.Scheme)
				return false
			}
			e.rollback()
			continue
		}
		if e.it >= cfg.MaxIters || st.TotalIterations >= e.maxTotal {
			st.UsefulIterations = e.it
			e.err = fmt.Errorf("core: %s %v: not converged after %d useful (%d total) iterations",
				e.name, cfg.Scheme, e.it, st.TotalIterations)
			return false
		}
		st.TotalIterations++
		e.deferred = nil
		if cfg.Injector != nil {
			_, e.deferred = cfg.Injector.InjectIterationSplit(e.state)
		}
		return true
	}
}

// tail runs the bottom of one round: rollback after a failed iteration;
// otherwise the hooks, the high-water mark and, at a chunk boundary, the
// Online-Detection tests and the periodic checkpoint.
func (e *engine) tail(res stepResult) {
	st := &e.stats
	if res == stepRollback {
		if e.emit != nil {
			e.emit(e.it, true)
		}
		e.rollback()
		return
	}
	e.it++
	if e.cfg.OnIteration != nil {
		e.cfg.OnIteration(e.it, e.rho)
	}
	if e.emit != nil {
		e.emit(e.it, false)
	}
	if res == stepHalf {
		return
	}
	if e.it > e.highWater {
		e.highWater = e.it
		e.stuck = 0
	}
	if e.it%e.d != 0 {
		return
	}
	if e.cfg.Scheme == OnlineDetection {
		st.TimeVerif += e.costs.Tverif
		if !e.onlineVerify() {
			st.Detections++
			if e.emit != nil {
				e.emit(e.it, true)
			}
			e.rollback()
			return
		}
	}
	if (e.it/e.d)%e.s == 0 && e.it > e.last {
		e.save(true)
	}
}

// product computes q = A·p on the live state. Under the ABFT schemes it
// is the protected product, verified together with the guarded r and x;
// it returns false when the iteration must roll back.
func (e *engine) product() bool {
	if e.prot == nil {
		e.stats.TimeIter += e.costs.Titer
		e.live.MulVecRobustParallel(e.cfg.Pool, e.q, e.p)
		e.applyDeferred(fault.TargetVecQ)
		return true
	}
	e.beforeProduct()
	sr := e.prot.MulVec(e.q, e.p)
	e.applyDeferred(fault.TargetVecQ)
	return e.afterProduct(sr)
}

// beforeProduct is the pre-product half of an ABFT iteration: its cost
// charges and the memory-fault checks on the vectors written last
// iteration. The blocked driver runs the shared product between the two
// halves, so its lanes detect exactly what a sequential solve detects.
func (e *engine) beforeProduct() {
	e.stats.TimeIter += e.costs.Titer
	e.stats.TimeVerif += e.costs.Tverif
	e.outR, e.outX = e.rGuard.CheckPair(e.cfg.Pool, e.r, e.xGuard, e.x)
}

// afterProduct verifies the completed product against the runtime Rowidx
// sums and settles the joint outcome of the two guards and the product.
func (e *engine) afterProduct(sr abft.RowSums) bool {
	outQ := e.prot.Verify(e.q, e.p, e.pGuard.Ref(), sr)
	return e.settle(e.outR, nil) && e.settle(e.outX, nil) && e.settle(outQ, e.prot)
}

// settle accounts for one verification outcome of a vector guard (prot
// nil) or of prot's product: it counts a detection, and a forward
// correction with its model time. It returns false when the error is
// uncorrectable and the iteration must roll back.
func (e *engine) settle(out abft.Outcome, prot *abft.Protected) bool {
	if !out.Detected {
		return true
	}
	e.stats.Detections++
	if !out.Corrected {
		e.trace("it=%d detected uncorrectable class=%v", e.it, out.Class)
		return false
	}
	e.stats.Corrections++
	e.stats.TimeVerif += correctionCost(prot == nil, out.Class, e.costs, e.vecCorrect)
	// A matrix repair restores the original entry only to rounding;
	// re-anchor the bitwise checksum identity on the repaired matrix.
	if prot != nil && (out.Class == abft.ClassVal || out.Class == abft.ClassColid || out.Class == abft.ClassRowidx) {
		prot.Reencode()
	}
	return true
}

// correctionCost is the model time charged for one forward correction.
// Guard repairs and a product's input-vector (ClassX) repairs are O(n);
// every other product repair may recompute the O(nnz) column checksums.
func correctionCost(guard bool, class abft.ErrorClass, costs Costs, vecCorrect float64) float64 {
	if guard || class == abft.ClassX {
		return vecCorrect
	}
	return costs.Tcorrect
}

// applyDeferred applies this iteration's faults on a product's output
// right after the product wrote it.
func (e *engine) applyDeferred(target fault.Target) {
	for _, ev := range e.deferred {
		if ev.Target == target {
			e.cfg.Injector.ApplyEvent(e.state, ev)
		}
	}
}

// onlineVerify implements Chen's periodic tests (paper Section 3.1): the
// residual is recomputed as b − Ax and compared with the recurrence
// residual, and the A-orthogonality of the current direction p against the
// last product q = A·p_prev is checked. Any discrepancy — including
// non-finite values — reports an error.
func (e *engine) onlineVerify() bool {
	rr := e.rr
	e.live.MulVecRobustParallel(e.cfg.Pool, rr, e.x)
	vec.Sub(rr, e.b, rr)

	normRR := vec.Norm2(rr)
	normR := vec.Norm2(e.r)
	if math.IsNaN(normRR) || math.IsNaN(normR) || math.IsInf(normRR, 0) || math.IsInf(normR, 0) {
		return false
	}
	diff := vec.MaxAbsDiff(rr, e.r)
	scale := math.Max(e.normB, math.Max(normRR, normR))
	if diff > 1e-6*scale {
		return false
	}

	// Orthogonality: after the p-update, p_{i+1}ᵀ A p_i = 0 up to rounding.
	normP := vec.Norm2(e.p)
	normQ := vec.Norm2(e.q)
	if normP == 0 || normQ == 0 || math.IsNaN(normP) || math.IsNaN(normQ) {
		return false
	}
	ortho := math.Abs(vec.Dot(e.p, e.q)) / (normP * normQ)
	return ortho <= 1e-6 && !math.IsNaN(ortho)
}

// save snapshots the full resilient state (matrices included) through the
// reusable live-state view. The view must carry the recurrence scalars:
// the initial-state store deep-copies the same view, and an escalated
// rollback resumes from them.
func (e *engine) save(charge bool) {
	e.view.Iteration = e.it
	e.view.Scalars["rho"] = e.rho
	e.m.save(e.view.Scalars)
	e.store.Save(e.view)
	e.last = e.it
	if charge {
		e.stats.Checkpoints++
		e.stats.TimeCkpt += e.costs.Tcp
	}
}

// rollback restores the last checkpoint (escalating to the pristine
// initial state after stuckLimit no-progress retries) and re-arms the
// guards and the checksum encodings.
func (e *engine) rollback() {
	store := e.store
	e.stuck++
	if e.stuck > stuckLimit {
		e.trace("it=%d escalating rollback to initial state after %d stuck retries", e.it, e.stuck-1)
		store = e.initStore
		e.stuck = 0
		e.highWater = 0
		e.last = 0
	}
	store.Restore(e.view)
	e.it = e.view.Iteration
	e.rho = e.view.Scalars["rho"]
	e.m.restore(e.view.Scalars)
	e.stats.Rollbacks++
	e.stats.TimeRecovery += e.costs.Trec
	if e.prot != nil {
		e.rGuard.Refresh(e.r)
		e.pGuard.Refresh(e.p)
		e.xGuard.Refresh(e.x)
		// The restored matrices predate any later forward repairs, whose
		// ulp residues were absorbed into the current encodings; re-anchor.
		e.prot.Reencode()
		if e.protM != nil {
			e.protM.Reencode()
		}
	}
}

// finish composes SimTime and the injector's flip count and recomputes the
// true relative residual on the caller's pristine matrix a.
func (e *engine) finish(a *sparse.CSR) ([]float64, Stats, error) {
	st := &e.stats
	st.SimTime = st.TimeIter + st.TimeVerif + st.TimeCkpt + st.TimeRecovery + st.SimTime
	if e.cfg.Injector != nil {
		st.FaultsInjected = e.cfg.Injector.Stats().Flips
	}
	a.MulVecParallel(e.cfg.Pool, e.rr, e.x)
	vec.Sub(e.rr, e.b, e.rr)
	st.FinalResidual = vec.Norm2(e.rr) / e.normB
	return e.x, *st, e.err
}

func (e *engine) trace(format string, args ...any) {
	if e.cfg.Trace != nil {
		e.cfg.Trace(format, args...)
	}
}
