package core

import (
	"fmt"
	"math"

	"repro/internal/abft"
	"repro/internal/fault"
	"repro/internal/sparse"
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

// SolveBiCGstab runs the resilient BiCGstab on Ax = b for general
// (possibly nonsymmetric) A. Only the ABFT schemes are supported — Chen's
// orthogonality test is CG-specific, so OnlineDetection has no faithful
// BiCGstab counterpart — and, as under every ABFT scheme, d = 1.
func SolveBiCGstab(a *sparse.CSR, b []float64, cfg Config) ([]float64, Stats, error) {
	if cfg.Scheme == OnlineDetection {
		return nil, Stats{}, fmt.Errorf("core: BiCGstab supports the ABFT schemes only")
	}
	ws := cfg.Ws.begin()
	e, err := ws.prepare("BiCGstab", a, b, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	n := a.Rows
	// Two products and roughly twice the vector work per iteration; the
	// convergence confirmation stays one product.
	e.costs.Titer *= 2
	e.tconfirm = e.costs.Titer / 2

	m := &ws.bicg
	*m = bicgstab{
		e:     e,
		rHat:  ws.takeCopy(b),
		s:     ws.takeZero(n),
		t:     ws.take(n),
		alpha: 1,
		omega: 1,
	}
	m.sGuard = ws.guard(3, m.s, abftMode(e.cfg.Scheme))
	e.rho = 1
	e.view.Vectors["rHat"] = m.rHat
	e.view.Vectors["v"] = e.q
	e.start(ws, m)
	return e.solve(a)
}

// bicgstab is the BiCGstab recurrence. Its convergence test reads ‖r‖;
// the engine's q holds v = A·p, and the checkpoint additionally carries
// the shadow residual r̂, v and the recurrence scalars α and ω.
type bicgstab struct {
	e            *engine
	rHat, s, t   []float64
	sGuard       *abft.VectorGuard
	alpha, omega float64
}

func (m *bicgstab) norm() float64 { return vec.Norm2(m.e.r) }

func (m *bicgstab) save(sc map[string]float64) {
	sc["alpha"] = m.alpha
	sc["omega"] = m.omega
}

func (m *bicgstab) restore(sc map[string]float64) {
	m.alpha = sc["alpha"]
	m.omega = sc["omega"]
}

// bad reports a breakdown or a corrupted recurrence scalar as a detected
// error.
func (m *bicgstab) bad(v float64) bool {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		m.e.stats.Detections++
		return true
	}
	return false
}

func (m *bicgstab) step() stepResult {
	e := m.e
	st := &e.stats
	r, p, v, x := e.r, e.p, e.q, e.x
	st.TimeIter += e.costs.Titer
	st.TimeVerif += e.costs.Tverif

	// Memory-fault checks on the guarded vectors.
	outR, outX := e.rGuard.CheckPair(e.cfg.Pool, r, e.xGuard, x)
	if !e.settle(outR, nil) || !e.settle(outX, nil) {
		return stepRollback
	}

	rhoNew := e.exec.Dot(m.rHat, r)
	if m.bad(rhoNew) {
		return stepRollback
	}
	if e.it == 0 {
		copy(p, r)
	} else {
		beta := (rhoNew / e.rho) * (m.alpha / m.omega)
		for i := range p {
			p[i] = r[i] + beta*(p[i]-m.omega*v[i])
		}
	}
	e.rho = rhoNew
	e.pGuard.Refresh(p)

	// First protected product: v = A·p.
	sr := e.prot.MulVec(v, p)
	e.applyDeferred(fault.TargetVecQ)
	if !e.settle(e.prot.Verify(v, p, e.pGuard.Ref(), sr), e.prot) {
		return stepRollback
	}

	den := e.exec.Dot(m.rHat, v)
	if m.bad(den) {
		return stepRollback
	}
	m.alpha = e.rho / den
	m.sGuard.RefreshSums(e.exec.AxpyTo(m.s, -m.alpha, v, r))

	// Early half-step convergence.
	if vec.Norm2(m.s) <= e.cfg.Tol*e.normB {
		e.xGuard.RefreshSums(e.exec.Axpy(m.alpha, p, x))
		copy(r, m.s)
		e.rGuard.RefreshSums(m.sGuard.Ref()) // r is now s, whose sums the s-guard holds
		return stepHalf
	}

	// Second protected product: t = A·s.
	sr = e.prot.MulVec(m.t, m.s)
	if !e.settle(e.prot.Verify(m.t, m.s, m.sGuard.Ref(), sr), e.prot) {
		return stepRollback
	}

	tt := e.exec.Norm2Sq(m.t)
	if m.bad(tt) {
		return stepRollback
	}
	m.omega = e.exec.Dot(m.t, m.s) / tt
	if m.bad(m.omega) {
		return stepRollback
	}

	e.exec.Axpy(m.alpha, p, x)
	e.xGuard.RefreshSums(e.exec.Axpy(m.omega, m.s, x))
	e.rGuard.RefreshSums(e.exec.AxpyTo(r, -m.omega, m.t, m.s))
	return stepDone
}
