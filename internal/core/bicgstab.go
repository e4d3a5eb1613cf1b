package core

import (
	"fmt"
	"math"

	"repro/internal/abft"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/sparse"
	"repro/internal/tmr"
	"repro/internal/vec"
)

// This file implements a resilient BiCGstab driver. The paper's Section 3
// claims its techniques apply to "any iterative solver that use sparse
// matrix vector multiplies and vector operations. This list includes many
// of the non-stationary iterative solvers such as CGNE, BiCG, BiCGstab".
// BiCGstab performs two SpMxVs per iteration (v = Ap and t = As); both are
// ABFT-protected with the same machinery as the CG driver, and the
// checkpoint additionally carries the shadow residual r̂ and the recurrence
// scalars (ρ, α, ω).

// BiCGstabConfig parameterises a resilient BiCGstab solve. Only the ABFT
// schemes are supported: Chen's orthogonality test is CG-specific, so
// OnlineDetection has no faithful BiCGstab counterpart.
type BiCGstabConfig struct {
	Scheme   Scheme // ABFTDetection or ABFTCorrection
	S        int
	Tol      float64
	MaxIters int
	Injector *fault.Injector
	Costs    CostParams
	// Pool, as in Config, runs the hot kernels across the worker pool with
	// deterministic blocked arithmetic.
	Pool *pool.Pool
	// OnIteration, when non-nil, is called after every useful iteration with
	// the iteration count and the current BiCG recurrence scalar ρ. The
	// harness uses it to fingerprint the iterate trajectory.
	OnIteration func(it int, rho float64)
	// OnDetection, as in Config: called per fault-detection episode.
	OnDetection func(DetectionEvent)
	// Ws, as in Config: a reusable arena making repeated solves
	// allocation-free in steady state.
	Ws *Workspace
}

// bicgRun keeps the mutable loop state of one resilient BiCGstab solve in
// the workspace, so the checkpoint/rollback helpers are methods instead of
// capturing closures — a workspace-carrying warm solve allocates nothing.
type bicgRun struct {
	view             *checkpoint.State
	store, initStore *checkpoint.Store
	costs            Costs
	stats            Stats
	exec             tmr.Executor // kept across solves: resident TMR replica scratch
	prot             *abft.Protected
	rGuard           *abft.VectorGuard
	pGuard           *abft.VectorGuard
	sGuard           *abft.VectorGuard
	xGuard           *abft.VectorGuard
	r, p, x          []float64
	it               int
	rho, alpha       float64
	omega            float64
	last, stuck      int
	highWater        int
}

// save checkpoints the live state (optionally charging checkpoint time).
func (run *bicgRun) save(charge bool) {
	run.view.Iteration = run.it
	run.view.Scalars["rho"] = run.rho
	run.view.Scalars["alpha"] = run.alpha
	run.view.Scalars["omega"] = run.omega
	run.store.Save(run.view)
	run.last = run.it
	if charge {
		run.stats.Checkpoints++
		run.stats.TimeCkpt += run.costs.Tcp
	}
}

// rollback restores the last checkpoint (or the initial state after too
// many consecutive failed recoveries) and re-arms the guards and checksum
// encodings over the restored data.
func (run *bicgRun) rollback() {
	use := run.store
	run.stuck++
	if run.stuck > stuckLimit {
		use = run.initStore
		run.stuck = 0
		run.highWater = 0
		run.last = 0
	}
	use.Restore(run.view)
	run.it = run.view.Iteration
	run.rho = run.view.Scalars["rho"]
	run.alpha = run.view.Scalars["alpha"]
	run.omega = run.view.Scalars["omega"]
	run.stats.Rollbacks++
	run.stats.TimeRecovery += run.costs.Trec
	run.rGuard.Refresh(run.r)
	run.pGuard.Refresh(run.p)
	run.xGuard.Refresh(run.x)
	run.prot.Reencode()
}

// SolveBiCGstab runs the resilient BiCGstab on Ax = b for general
// (possibly nonsymmetric) A.
func SolveBiCGstab(a *sparse.CSR, b []float64, cfg BiCGstabConfig) ([]float64, Stats, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, Stats{}, fmt.Errorf("core: BiCGstab dimension mismatch: A %dx%d, len(b)=%d", a.Rows, a.Cols, len(b))
	}
	if cfg.Scheme == OnlineDetection {
		return nil, Stats{}, fmt.Errorf("core: BiCGstab supports the ABFT schemes only")
	}
	base := Config{
		Scheme: cfg.Scheme, S: cfg.S, Tol: cfg.Tol,
		MaxIters: cfg.MaxIters, Injector: cfg.Injector, Costs: cfg.Costs,
	}
	base = base.withDefaults(n)
	ws := cfg.Ws.begin()

	live := ws.liveCopy(a)
	costs := NewCosts(live, base.Scheme, base.Costs)
	costs.Titer *= 2 // two products and roughly twice the vector work per iteration

	alpha := 0.0
	if cfg.Injector != nil {
		alpha = cfg.Injector.Alpha()
	}
	s := base.S
	if s == 0 {
		_, s = OptimalIntervals(a, base.Scheme, alpha, base.Costs)
	}

	mode := abftMode(base.Scheme)

	r := ws.takeCopy(b) // x0 = 0
	rHat := ws.takeCopy(r)
	p := ws.takeZero(n)
	v := ws.takeZero(n)
	sv := ws.takeZero(n)
	tv := ws.take(n)
	x := ws.takeZero(n)
	rr := ws.take(n)

	run := &ws.br
	exec := run.exec // preserve the TMR executor's resident replica scratch
	*run = bicgRun{
		costs:  costs,
		stats:  Stats{Scheme: base.Scheme, D: 1, S: s},
		prot:   ws.protected(live, mode, cfg.Pool),
		rGuard: ws.guard(0, r, mode),
		pGuard: ws.guard(1, p, mode),
		sGuard: ws.guard(2, sv, mode),
		xGuard: ws.guard(3, x, mode),
		r:      r, p: p, x: x,
		rho: 1, alpha: 1, omega: 1,
	}
	run.exec = exec
	run.exec.Pool = cfg.Pool
	st := &run.stats
	prot := run.prot
	rGuard, pGuard, sGuard, xGuard := run.rGuard, run.pGuard, run.sGuard, run.xGuard
	st.SimTime += SetupCost(live, base.Scheme, base.Costs)

	ws.state = fault.State{A: live, R: r, P: p, Q: v, X: x}
	state := &ws.state
	run.store, run.initStore = ws.stores()
	run.view = ws.liveView(live, nil)
	run.view.Vectors["x"] = x
	run.view.Vectors["r"] = r
	run.view.Vectors["rHat"] = rHat
	run.view.Vectors["p"] = p
	run.view.Vectors["v"] = v

	normB := vec.Norm2(b)
	if normB == 0 {
		normB = 1
	}
	run.save(false)
	run.initStore.Save(run.view)

	maxTotal := int64(base.MaxIters)*10 + 1000
	finalRetries := 0
	emit := detectionEmitter(cfg.OnDetection, st)

	for {
		if vec.Norm2(r) <= base.Tol*normB {
			st.TimeVerif += costs.Titer / 2
			live.MulVecRobustParallel(cfg.Pool, tv, x)
			vec.Sub(tv, b, tv)
			confirmTol := math.Max(10*base.Tol, 1e-6) * normB
			if tr := vec.Norm2(tv); tr <= confirmTol && !math.IsNaN(tr) {
				st.Converged = true
				st.UsefulIterations = run.it
				break
			}
			finalRetries++
			if finalRetries >= maxFinalCheckRetries {
				st.UsefulIterations = run.it
				return finish(cfg.Pool, a, b, x, rr, normB, st, cfg.Injector,
					fmt.Errorf("core: BiCGstab %v: convergence confirmation kept failing", base.Scheme))
			}
			run.rollback()
			continue
		}
		if run.it >= base.MaxIters || st.TotalIterations >= maxTotal {
			st.UsefulIterations = run.it
			return finish(cfg.Pool, a, b, x, rr, normB, st, cfg.Injector,
				fmt.Errorf("core: BiCGstab %v: not converged after %d useful (%d total) iterations",
					base.Scheme, run.it, st.TotalIterations))
		}

		st.TotalIterations++
		var deferred []fault.Event
		if cfg.Injector != nil {
			_, deferred = cfg.Injector.InjectIterationSplit(state)
		}
		st.TimeIter += costs.Titer
		st.TimeVerif += costs.Tverif

		// Memory-fault checks on the guarded vectors.
		bad := false
		outR, outX := rGuard.CheckPair(cfg.Pool, r, xGuard, x)
		for _, out := range [2]abft.Outcome{outR, outX} {
			if out.Detected {
				st.Detections++
				if !out.Corrected {
					bad = true
					break
				}
				st.Corrections++
				st.TimeVerif += TcorrectVector(live, base.Costs)
			}
		}
		if bad {
			if emit != nil {
				emit(run.it, true)
			}
			run.rollback()
			continue
		}

		rhoNew := run.exec.Dot(rHat, r)
		if rhoNew == 0 || math.IsNaN(rhoNew) || math.IsInf(rhoNew, 0) {
			st.Detections++
			if emit != nil {
				emit(run.it, true)
			}
			run.rollback()
			continue
		}
		if run.it == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / run.rho) * (run.alpha / run.omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-run.omega*v[i])
			}
		}
		run.rho = rhoNew
		pGuard.Refresh(p)

		// First protected product: v = A·p.
		srV := prot.MulVec(v, p)
		for _, ev := range deferred {
			if ev.Target == fault.TargetVecQ {
				cfg.Injector.ApplyEvent(state, ev)
			}
		}
		outV := prot.Verify(v, p, pGuard.Ref(), srV)
		if outV.Detected {
			st.Detections++
			if !outV.Corrected {
				if emit != nil {
					emit(run.it, true)
				}
				run.rollback()
				continue
			}
			st.Corrections++
			st.TimeVerif += costs.Tcorrect
			if outV.Class == abft.ClassVal || outV.Class == abft.ClassColid || outV.Class == abft.ClassRowidx {
				prot.Reencode()
			}
		}

		den := run.exec.Dot(rHat, v)
		if den == 0 || math.IsNaN(den) || math.IsInf(den, 0) {
			st.Detections++
			if emit != nil {
				emit(run.it, true)
			}
			run.rollback()
			continue
		}
		run.alpha = run.rho / den
		sGuard.RefreshSums(run.exec.AxpyTo(sv, -run.alpha, v, r))

		// Early half-step convergence.
		if vec.Norm2(sv) <= base.Tol*normB {
			xGuard.RefreshSums(run.exec.Axpy(run.alpha, p, x))
			copy(r, sv)
			rGuard.RefreshSums(sGuard.Ref()) // r is now s, whose sums the s-guard holds
			run.it++
			if cfg.OnIteration != nil {
				cfg.OnIteration(run.it, run.rho)
			}
			if emit != nil {
				emit(run.it, false)
			}
			continue // the top-of-loop confirmation validates it
		}

		// Second protected product: t = A·s.
		srT := prot.MulVec(tv, sv)
		outT := prot.Verify(tv, sv, sGuard.Ref(), srT)
		if outT.Detected {
			st.Detections++
			if !outT.Corrected {
				if emit != nil {
					emit(run.it, true)
				}
				run.rollback()
				continue
			}
			st.Corrections++
			st.TimeVerif += costs.Tcorrect
			if outT.Class == abft.ClassVal || outT.Class == abft.ClassColid || outT.Class == abft.ClassRowidx {
				prot.Reencode()
			}
		}

		tt := run.exec.Norm2Sq(tv)
		if tt == 0 || math.IsNaN(tt) || math.IsInf(tt, 0) {
			st.Detections++
			if emit != nil {
				emit(run.it, true)
			}
			run.rollback()
			continue
		}
		run.omega = run.exec.Dot(tv, sv) / tt
		if run.omega == 0 || math.IsNaN(run.omega) || math.IsInf(run.omega, 0) {
			st.Detections++
			if emit != nil {
				emit(run.it, true)
			}
			run.rollback()
			continue
		}

		run.exec.Axpy(run.alpha, p, x)
		xGuard.RefreshSums(run.exec.Axpy(run.omega, sv, x))
		rGuard.RefreshSums(run.exec.AxpyTo(r, -run.omega, tv, sv))

		run.it++
		if cfg.OnIteration != nil {
			cfg.OnIteration(run.it, run.rho)
		}
		if emit != nil {
			emit(run.it, false)
		}
		if run.it > run.highWater {
			run.highWater = run.it
			run.stuck = 0
		}
		if run.it%s == 0 && run.it > run.last {
			run.save(true)
		}
	}
	return finish(cfg.Pool, a, b, x, rr, normB, st, cfg.Injector, nil)
}

// finish computes the final statistics common to the drivers. rr is
// caller-provided length-n scratch for the true-residual product.
func finish(pl *pool.Pool, a *sparse.CSR, b, x, rr []float64, normB float64, st *Stats, inj *fault.Injector, err error) ([]float64, Stats, error) {
	st.SimTime = st.TimeIter + st.TimeVerif + st.TimeCkpt + st.TimeRecovery + st.SimTime
	if inj != nil {
		st.FaultsInjected = inj.Stats().Flips
	}
	a.MulVecParallel(pl, rr, x)
	vec.Sub(rr, b, rr)
	st.FinalResidual = vec.Norm2(rr) / normB
	return x, *st, err
}
