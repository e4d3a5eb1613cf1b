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

// This file implements the resilient *preconditioned* CG driver, the
// extension the paper's conclusion targets: "diagonal, approximate inverse,
// and triangular preconditioners seem to be particularly attracting, since
// it should be possible to treat them by adapting the techniques described
// in this paper". A preconditioner applied as an explicit sparse matrix
// (Jacobi or a sparse approximate inverse, see internal/precond) is
// protected by exactly the same ABFT-SpMxV machinery as A: its own
// checksum rows, its own detect/correct verification, and inclusion in the
// checkpointed state so matrix faults on M are also recoverable.

// PCGConfig parameterises a resilient preconditioned solve.
type PCGConfig struct {
	// Scheme selects the resilience method (OnlineDetection uses Chen-style
	// residual verification on the preconditioned recurrences).
	Scheme Scheme
	// M is the explicit sparse preconditioner (e.g. precond.Jacobi or
	// precond.Neumann output). Must be SPD for PCG.
	M *sparse.CSR
	// S, D, Tol, MaxIters, Injector, Costs, Trace, Pool, OnIteration, Ws:
	// as in Config.
	S, D        int
	Tol         float64
	MaxIters    int
	Injector    *fault.Injector
	Costs       CostParams
	Trace       func(format string, args ...any)
	Pool        *pool.Pool
	OnIteration func(it int, rho float64)
	OnDetection func(DetectionEvent)
	Ws          *Workspace
}

// SolvePCG runs the resilient preconditioned CG on Ax = b. Both A and M
// live in corruptible memory; both products are ABFT-protected under the
// ABFT schemes. Statistics are reported exactly as for Solve.
func SolvePCG(a *sparse.CSR, b []float64, cfg PCGConfig) ([]float64, Stats, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, Stats{}, fmt.Errorf("core: PCG dimension mismatch: A %dx%d, len(b)=%d", a.Rows, a.Cols, len(b))
	}
	if cfg.M == nil || cfg.M.Rows != n || cfg.M.Cols != n {
		return nil, Stats{}, fmt.Errorf("core: PCG needs an n×n preconditioner")
	}
	base := Config{
		Scheme: cfg.Scheme, S: cfg.S, D: cfg.D, Tol: cfg.Tol,
		MaxIters: cfg.MaxIters, Injector: cfg.Injector, Costs: cfg.Costs,
		Trace: cfg.Trace, Pool: cfg.Pool, OnIteration: cfg.OnIteration,
		OnDetection: cfg.OnDetection,
	}
	base = base.withDefaults(n)
	ws := cfg.Ws.begin()

	liveA := ws.liveCopy(a)
	liveM := ws.liveMCopy(cfg.M)
	costs := NewCosts(liveA, base.Scheme, base.Costs)
	// The preconditioner product adds its own iteration and verification
	// cost on top of the CG baseline.
	costs.Titer += float64(liveM.FlopsMulVec()) * base.Costs.FlopTime
	if base.Scheme != OnlineDetection {
		costs.Tverif += float64(12*int64(n)) * base.Costs.FlopTime
	}
	// Checkpoints now carry M as well.
	extraCp := float64(liveM.MemoryWords()) * base.Costs.WordTime
	costs.Tcp += extraCp
	costs.Trec += extraCp

	alpha := 0.0
	if cfg.Injector != nil {
		alpha = cfg.Injector.Alpha()
	}
	d, s := base.D, base.S
	if d == 0 || s == 0 {
		od, os := OptimalIntervals(a, base.Scheme, alpha, base.Costs)
		if d == 0 {
			d = od
		}
		if s == 0 {
			s = os
		}
	}
	if base.Scheme != OnlineDetection {
		d = 1
	}

	p := &ws.pr
	exec := p.exec // preserve the TMR executor's resident replica scratch
	*p = pcgRun{
		cfg:   base,
		costs: costs,
		a:     liveA,
		m:     liveM,
		b:     b,
		x:     ws.takeZero(n),
		r:     ws.takeCopy(b),
		z:     ws.take(n),
		p:     ws.takeZero(n),
		q:     ws.take(n),
		rr:    ws.take(n),
		d:     d,
		s:     s,
	}
	p.stats = Stats{Scheme: base.Scheme, D: d, S: s}
	st := &p.stats
	ws.state = fault.State{A: liveA, M: liveM, R: p.r, P: p.p, Q: p.q, X: p.x, Z: p.z}
	p.state = &ws.state
	p.exec = exec
	p.exec.Pool = cfg.Pool

	if base.Scheme != OnlineDetection {
		mode := abftMode(base.Scheme)
		p.protA = ws.protected(liveA, mode, cfg.Pool)
		p.protM = ws.protectedM(liveM, mode, cfg.Pool)
		p.rGuard = ws.guard(0, p.r, mode)
		p.pGuard = ws.guard(1, p.p, mode)
		p.xGuard = ws.guard(2, p.x, mode)
		st.SimTime += SetupCost(liveA, base.Scheme, base.Costs)
		st.SimTime += SetupCost(liveM, base.Scheme, base.Costs)
	}

	p.normB = vec.Norm2(b)
	if p.normB == 0 {
		p.normB = 1
	}
	// z0 = M r0, p0 = z0, rho0 = rᵀz.
	p.m.MulVecRobustParallel(cfg.Pool, p.z, p.r)
	copy(p.p, p.z)
	p.rho = vec.DotPool(cfg.Pool, p.r, p.z)
	if base.Scheme != OnlineDetection {
		p.rGuard.Refresh(p.r)
		p.pGuard.Refresh(p.p)
		p.xGuard.Refresh(p.x)
	}

	p.store, p.initStore = ws.stores()
	p.view = ws.liveView(liveA, liveM)
	p.view.Vectors["x"] = p.x
	p.view.Vectors["r"] = p.r
	p.view.Vectors["p"] = p.p
	p.view.Vectors["z"] = p.z
	p.save(false)
	p.initStore.Save(p.view)

	err := p.loop()
	st.SimTime = st.TimeIter + st.TimeVerif + st.TimeCkpt + st.TimeRecovery + st.SimTime
	if cfg.Injector != nil {
		st.FaultsInjected = cfg.Injector.Stats().Flips
	}
	rr := p.rr
	a.MulVecParallel(cfg.Pool, rr, p.x)
	vec.Sub(rr, b, rr)
	st.FinalResidual = vec.Norm2(rr) / p.normB
	return p.x, *st, err
}

type pcgRun struct {
	cfg   Config
	costs Costs
	a, m  *sparse.CSR
	b     []float64
	x     []float64
	r     []float64
	z     []float64
	p     []float64
	q     []float64
	rr    []float64 // scratch for onlineVerify and the final residual
	state *fault.State
	stats Stats
	view  *checkpoint.State // reusable live-state view for save/rollback

	protA, protM           *abft.Protected
	rGuard, pGuard, xGuard *abft.VectorGuard
	exec                   tmr.Executor

	store, initStore *checkpoint.Store
	normB            float64
	rho              float64
	it               int
	d, s             int
	last             int
	highWater        int
	stuck            int
}

func (p *pcgRun) save(charge bool) {
	p.view.Iteration = p.it
	p.view.Scalars["rho"] = p.rho
	p.store.Save(p.view)
	p.last = p.it
	if charge {
		p.stats.Checkpoints++
		p.stats.TimeCkpt += p.costs.Tcp
	}
}

func (p *pcgRun) loop() error {
	cfg := p.cfg
	st := &p.stats
	maxTotal := int64(cfg.MaxIters)*10 + 1000
	finalRetries := 0
	emit := detectionEmitter(cfg.OnDetection, st)

	for {
		// Convergence on ‖r‖ (not the preconditioned ρ = rᵀz), matching the
		// unprotected baseline's criterion exactly.
		if vec.Norm2(p.r) <= cfg.Tol*p.normB {
			st.TimeVerif += p.costs.Titer
			p.a.MulVecRobustParallel(cfg.Pool, p.q, p.x)
			vec.Sub(p.q, p.b, p.q)
			confirmTol := math.Max(10*cfg.Tol, 1e-6) * p.normB
			if tr := vec.Norm2(p.q); tr <= confirmTol && !math.IsNaN(tr) {
				st.Converged = true
				st.UsefulIterations = p.it
				return nil
			}
			finalRetries++
			if finalRetries >= maxFinalCheckRetries {
				st.UsefulIterations = p.it
				return fmt.Errorf("core: PCG %v: convergence confirmation kept failing", cfg.Scheme)
			}
			p.rollback()
			continue
		}
		if p.it >= cfg.MaxIters || st.TotalIterations >= maxTotal {
			st.UsefulIterations = p.it
			return fmt.Errorf("core: PCG %v: not converged after %d useful (%d total) iterations",
				cfg.Scheme, p.it, st.TotalIterations)
		}

		st.TotalIterations++
		var deferred []fault.Event
		if cfg.Injector != nil {
			_, deferred = cfg.Injector.InjectIterationSplit(p.state)
		}
		if !p.iterate(deferred) {
			if emit != nil {
				emit(p.it, true)
			}
			p.rollback()
			continue
		}

		p.it++
		if cfg.OnIteration != nil {
			cfg.OnIteration(p.it, p.rho)
		}
		if emit != nil {
			emit(p.it, false)
		}
		if p.it > p.highWater {
			p.highWater = p.it
			p.stuck = 0
		}
		if p.it%p.d == 0 {
			if cfg.Scheme == OnlineDetection {
				st.TimeVerif += p.costs.Tverif
				if !p.onlineVerify() {
					st.Detections++
					if emit != nil {
						emit(p.it, true)
					}
					p.rollback()
					continue
				}
			}
			if (p.it/p.d)%p.s == 0 && p.it > p.last {
				p.save(true)
			}
		}
	}
}

func (p *pcgRun) iterate(deferred []fault.Event) bool {
	st := &p.stats
	abftScheme := p.cfg.Scheme != OnlineDetection
	st.TimeIter += p.costs.Titer

	applyDeferred := func(target fault.Target) {
		for _, ev := range deferred {
			if ev.Target == target {
				p.cfg.Injector.ApplyEvent(p.state, ev)
			}
		}
	}

	if abftScheme {
		st.TimeVerif += p.costs.Tverif

		outR, outX := p.rGuard.CheckPair(p.cfg.Pool, p.r, p.xGuard, p.x)

		srA := p.protA.MulVec(p.q, p.p)
		applyDeferred(fault.TargetVecQ)
		outQ := p.protA.Verify(p.q, p.p, p.pGuard.Ref(), srA)

		for i, out := range [3]abft.Outcome{outR, outX, outQ} {
			if !out.Detected {
				continue
			}
			st.Detections++
			if !out.Corrected {
				return false
			}
			st.Corrections++
			if i == 2 && (out.Class == abft.ClassVal || out.Class == abft.ClassColid || out.Class == abft.ClassRowidx) {
				st.TimeVerif += p.costs.Tcorrect
				p.protA.Reencode()
			} else {
				st.TimeVerif += TcorrectVector(p.a, p.cfg.Costs)
			}
		}
	} else {
		p.a.MulVecRobustParallel(p.cfg.Pool, p.q, p.p)
		applyDeferred(fault.TargetVecQ)
	}

	var pq float64
	if abftScheme {
		pq = p.exec.Dot(p.p, p.q)
	} else {
		pq = vec.DotPool(p.cfg.Pool, p.p, p.q)
	}
	if pq <= 0 || math.IsNaN(pq) || math.IsInf(pq, 0) {
		st.Detections++
		return false
	}
	alpha := p.rho / pq

	if abftScheme {
		p.xGuard.RefreshSums(p.exec.Axpy(alpha, p.p, p.x))
		p.rGuard.RefreshSums(p.exec.Axpy(-alpha, p.q, p.r))
	} else {
		vec.AxpyPool(p.cfg.Pool, alpha, p.p, p.x)
		vec.AxpyPool(p.cfg.Pool, -alpha, p.q, p.r)
	}

	// The preconditioner application z ← M·r, protected like the A-product
	// (its own checksums; the r-guard provides the input reference).
	if abftScheme {
		srM := p.protM.MulVec(p.z, p.r)
		applyDeferred(fault.TargetVecZ)
		outZ := p.protM.Verify(p.z, p.r, p.rGuard.Ref(), srM)
		if outZ.Detected {
			st.Detections++
			if !outZ.Corrected {
				return false
			}
			st.Corrections++
			st.TimeVerif += p.costs.Tcorrect
			if outZ.Class == abft.ClassVal || outZ.Class == abft.ClassColid || outZ.Class == abft.ClassRowidx {
				p.protM.Reencode()
			}
		}
	} else {
		p.m.MulVecRobustParallel(p.cfg.Pool, p.z, p.r)
		applyDeferred(fault.TargetVecZ)
	}

	var rhoNew float64
	if abftScheme {
		rhoNew = p.exec.Dot(p.r, p.z)
	} else {
		rhoNew = vec.DotPool(p.cfg.Pool, p.r, p.z)
	}
	if math.IsNaN(rhoNew) || math.IsInf(rhoNew, 0) {
		st.Detections++
		return false
	}
	beta := rhoNew / p.rho
	if abftScheme {
		p.pGuard.RefreshSums(p.exec.Xpay(beta, p.z, p.p))
	} else {
		vec.XpayPool(p.cfg.Pool, beta, p.z, p.p)
	}
	p.rho = rhoNew
	return true
}

// onlineVerify for PCG: the recomputed-residual test is unchanged; the
// orthogonality test uses the preconditioned direction.
func (p *pcgRun) onlineVerify() bool {
	rr := p.rr
	p.a.MulVecRobustParallel(p.cfg.Pool, rr, p.x)
	vec.Sub(rr, p.b, rr)

	normRR := vec.Norm2(rr)
	normR := vec.Norm2(p.r)
	if math.IsNaN(normRR) || math.IsNaN(normR) || math.IsInf(normRR, 0) || math.IsInf(normR, 0) {
		return false
	}
	diff := vec.MaxAbsDiff(rr, p.r)
	scale := math.Max(p.normB, math.Max(normRR, normR))
	if diff > 1e-6*scale {
		return false
	}
	normP := vec.Norm2(p.p)
	normQ := vec.Norm2(p.q)
	if normP == 0 || normQ == 0 || math.IsNaN(normP) || math.IsNaN(normQ) {
		return false
	}
	ortho := math.Abs(vec.Dot(p.p, p.q)) / (normP * normQ)
	return ortho <= 1e-6 && !math.IsNaN(ortho)
}

func (p *pcgRun) rollback() {
	store := p.store
	p.stuck++
	if p.stuck > stuckLimit {
		store = p.initStore
		p.stuck = 0
		p.highWater = 0
		p.last = 0
	}
	store.Restore(p.view)
	p.it = p.view.Iteration
	p.rho = p.view.Scalars["rho"]
	p.stats.Rollbacks++
	p.stats.TimeRecovery += p.costs.Trec
	if p.cfg.Scheme != OnlineDetection {
		p.rGuard.Refresh(p.r)
		p.pGuard.Refresh(p.p)
		p.xGuard.Refresh(p.x)
		p.protA.Reencode()
		p.protM.Reencode()
	}
}
