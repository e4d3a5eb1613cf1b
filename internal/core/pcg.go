package core

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/sparse"
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

// SolvePCG runs the resilient preconditioned CG on Ax = b with the
// explicit sparse preconditioner m (e.g. precond.Jacobi or precond.Neumann
// output; SPD for PCG). Both A and M live in corruptible memory; both
// products are ABFT-protected under the ABFT schemes, and Online-Detection
// applies Chen's tests to the preconditioned recurrences. Statistics are
// reported exactly as for Solve.
func SolvePCG(a, m *sparse.CSR, b []float64, cfg Config) ([]float64, Stats, error) {
	if m == nil || m.Rows != a.Rows || m.Cols != a.Rows {
		return nil, Stats{}, fmt.Errorf("core: PCG needs an n×n preconditioner")
	}
	ws := cfg.Ws.begin()
	e, err := ws.prepare("PCG", a, b, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	cfg = e.cfg
	n := a.Rows
	ws.liveM = liveCopy(ws.liveM, m)
	liveM := ws.liveM
	// The preconditioner product adds its own iteration and verification
	// cost on top of the CG baseline, and checkpoints now carry M as well.
	e.costs.Titer += float64(liveM.FlopsMulVec()) * cfg.Costs.FlopTime
	e.tconfirm = e.costs.Titer // a confirmation is charged one PCG iteration
	if e.prot != nil {
		e.costs.Tverif += float64(12*int64(n)) * cfg.Costs.FlopTime
		ws.protM = renew(ws.protM, liveM, abftMode(cfg.Scheme), cfg.Pool)
		e.protM = ws.protM
		e.stats.SimTime += SetupCost(liveM, cfg.Scheme, cfg.Costs)
	}
	extraCp := float64(liveM.MemoryWords()) * cfg.Costs.WordTime
	e.costs.Tcp += extraCp
	e.costs.Trec += extraCp

	p := &ws.pcg
	*p = pcg{e: e, m: liveM, z: ws.take(n)}
	ws.state.M, ws.state.Z = liveM, p.z
	e.view.M = liveM
	e.view.Vectors["z"] = p.z
	// z0 = M r0, p0 = z0, rho0 = rᵀz.
	liveM.MulVecRobustParallel(cfg.Pool, p.z, e.r)
	copy(e.p, p.z)
	e.rho = vec.DotPool(cfg.Pool, e.r, p.z)
	e.start(ws, p)
	return e.solve(a)
}

// pcg is the preconditioned CG recurrence. Its convergence test reads ‖r‖
// (not the preconditioned ρ = rᵀz), matching the unprotected baseline's
// criterion exactly.
type pcg struct {
	rhoOnly
	e *engine
	m *sparse.CSR // working copy of the preconditioner
	z []float64   // z = M·r
}

func (p *pcg) norm() float64 { return vec.Norm2(p.e.r) }

func (p *pcg) step() stepResult {
	e := p.e
	st := &e.stats
	pl := e.cfg.Pool
	if !e.product() {
		return stepRollback
	}
	abftScheme := e.prot != nil

	var pq float64
	if abftScheme {
		pq = e.exec.Dot(e.p, e.q)
	} else {
		pq = vec.DotPool(pl, e.p, e.q)
	}
	if pq <= 0 || math.IsNaN(pq) || math.IsInf(pq, 0) {
		st.Detections++
		return stepRollback
	}
	alpha := e.rho / pq

	if abftScheme {
		e.xGuard.RefreshSums(e.exec.Axpy(alpha, e.p, e.x))
		e.rGuard.RefreshSums(e.exec.Axpy(-alpha, e.q, e.r))
	} else {
		vec.AxpyPool(pl, alpha, e.p, e.x)
		vec.AxpyPool(pl, -alpha, e.q, e.r)
	}

	// The preconditioner application z ← M·r, protected like the A-product
	// (its own checksums; the r-guard provides the input reference).
	if abftScheme {
		sr := e.protM.MulVec(p.z, e.r)
		e.applyDeferred(fault.TargetVecZ)
		if !e.settle(e.protM.Verify(p.z, e.r, e.rGuard.Ref(), sr), e.protM) {
			return stepRollback
		}
	} else {
		p.m.MulVecRobustParallel(pl, p.z, e.r)
		e.applyDeferred(fault.TargetVecZ)
	}

	var rhoNew float64
	if abftScheme {
		rhoNew = e.exec.Dot(e.r, p.z)
	} else {
		rhoNew = vec.DotPool(pl, e.r, p.z)
	}
	if math.IsNaN(rhoNew) || math.IsInf(rhoNew, 0) {
		st.Detections++
		return stepRollback
	}
	beta := rhoNew / e.rho
	if abftScheme {
		e.pGuard.RefreshSums(e.exec.Xpay(beta, p.z, e.p))
	} else {
		vec.XpayPool(pl, beta, p.z, e.p)
	}
	e.rho = rhoNew
	return stepDone
}
