package core

import (
	"math"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// Solve runs the resilient CG of the configured scheme on Ax = b and
// returns the solution, the execution statistics and an error when the
// method did not converge. The caller's matrix is never modified: faults
// are injected into an internal working copy.
func Solve(a *sparse.CSR, b []float64, cfg Config) ([]float64, Stats, error) {
	ws := cfg.Ws.begin()
	e, err := ws.prepare("CG", a, b, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	ws.startCG(e)
	return e.solve(a)
}

// startCG starts e on the CG recurrence from x0 = 0: r0 = p0 = b and
// ρ0 = ‖r0‖².
func (w *Workspace) startCG(e *engine) {
	w.cg = cg{e: e}
	copy(e.p, e.b)
	e.rho = vec.Norm2Sq(e.r)
	e.start(w, &w.cg)
}

// cg is the conjugate gradient recurrence (paper Algorithm 1). Its
// convergence test reads √ρ = ‖r‖ of the recurrence.
type cg struct {
	rhoOnly
	e *engine
}

func (m *cg) norm() float64 { return math.Sqrt(m.e.rho) }

func (m *cg) step() stepResult {
	if !m.e.product() || !m.recurrences() {
		return stepRollback
	}
	return stepDone
}

// recurrences runs the CG recurrences (paper Algorithm 1, lines 6–10) after
// the product q = A·p is in place. ABFT schemes run the vector kernels
// under TMR (selective reliability for the computation); both schemes treat
// non-finite or non-positive curvature as a detected error.
func (m *cg) recurrences() bool {
	e := m.e
	pl := e.cfg.Pool
	abftScheme := e.prot != nil
	var pq float64
	if abftScheme {
		pq = e.exec.Dot(e.p, e.q)
	} else {
		pq = vec.DotPool(pl, e.p, e.q)
	}
	if pq <= 0 || math.IsNaN(pq) || math.IsInf(pq, 0) {
		e.stats.Detections++
		return false
	}
	alpha := e.rho / pq

	if abftScheme {
		e.xGuard.RefreshSums(e.exec.Axpy(alpha, e.p, e.x))
		e.rGuard.RefreshSums(e.exec.Axpy(-alpha, e.q, e.r))
	} else {
		vec.AxpyPool(pl, alpha, e.p, e.x)
		vec.AxpyPool(pl, -alpha, e.q, e.r)
	}

	var rhoNew float64
	if abftScheme {
		rhoNew = e.exec.Norm2Sq(e.r)
	} else {
		rhoNew = vec.Norm2SqPool(pl, e.r)
	}
	if math.IsNaN(rhoNew) || math.IsInf(rhoNew, 0) {
		e.stats.Detections++
		return false
	}
	beta := rhoNew / e.rho
	if abftScheme {
		e.pGuard.RefreshSums(e.exec.Xpay(beta, e.r, e.p))
	} else {
		vec.XpayPool(pl, beta, e.r, e.p)
	}
	e.rho = rhoNew
	return true
}
