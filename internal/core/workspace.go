package core

import (
	"repro/internal/abft"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// Workspace is the reusable arena of the resilient drivers. A solve that
// carries one (Config.Ws) draws its working matrix copy, iteration
// vectors, checksum encodings, vector guards and checkpoint stores from
// the workspace instead of the heap, so repeated solves — the inner loop
// of every fault campaign — allocate nothing once the workspace is warm.
// Reuse across different solvers, schemes and matrix sizes is supported
// (storage grows as needed); sharing one workspace between concurrent
// solves is not.
type Workspace struct {
	live, liveM *sparse.CSR
	bufs        [][]float64
	next        int
	prot, protM *abft.Protected
	guards      [4]*abft.VectorGuard
	store       *checkpoint.Store
	initStore   *checkpoint.Store
	state       fault.State
	view        checkpoint.State
	eng         engine
	cg          cg
	pcg         pcg
	bicg        bicgstab
}

// NewWorkspace returns an empty workspace; storage is created on first use
// and recycled afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// Prewarm builds the workspace's working matrix copy and — for the ABFT
// schemes — its Rowidx/column checksum encodings for a ahead of the first
// solve, so a cache that hands out warm workspaces pays the construction
// cost at cache-fill time instead of on the request path. A later solve
// carrying this workspace against a same-shaped matrix reuses the storage
// built here. Prewarming is optional and never changes results.
func (w *Workspace) Prewarm(a *sparse.CSR, scheme Scheme) {
	w.live = liveCopy(w.live, a)
	if scheme != OnlineDetection {
		w.prot = renew(w.prot, w.live, abftMode(scheme), nil)
	}
}

// begin resets the take cursor for a new solve; a nil receiver yields a
// fresh single-use workspace so drivers can call it unconditionally.
func (w *Workspace) begin() *Workspace {
	if w == nil {
		return &Workspace{}
	}
	w.next = 0
	return w
}

// take returns the next length-n scratch buffer, NOT zeroed: the take
// order inside each driver is fixed, and every use site initialises its
// buffer explicitly.
func (w *Workspace) take(n int) []float64 {
	if w.next < len(w.bufs) {
		b := w.bufs[w.next]
		if cap(b) >= n {
			w.bufs[w.next] = b[:n]
			w.next++
			return b[:n]
		}
	}
	b := make([]float64, n)
	if w.next < len(w.bufs) {
		w.bufs[w.next] = b
	} else {
		w.bufs = append(w.bufs, b)
	}
	w.next++
	return b
}

// takeZero is take with the buffer cleared.
func (w *Workspace) takeZero(n int) []float64 {
	b := w.take(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// takeCopy is take initialised to a copy of src.
func (w *Workspace) takeCopy(src []float64) []float64 {
	b := w.take(len(src))
	copy(b, src)
	return b
}

// liveCopy returns a working copy of a: live refreshed in place when the
// shapes match, so the caller's matrix is never aliased and a warm
// workspace never reallocates it, or a new clone.
func liveCopy(live, a *sparse.CSR) *sparse.CSR {
	if live != nil && live.Rows == a.Rows && live.Cols == a.Cols && len(live.Val) == len(a.Val) {
		live.CopyFrom(a)
		return live
	}
	return a.Clone()
}

// renew returns p re-armed over a (a new wrapper when p is nil), its
// products and verifications running on pl.
func renew(p *abft.Protected, a *sparse.CSR, mode abft.Mode, pl *pool.Pool) *abft.Protected {
	if p == nil {
		p = abft.NewProtected(a, mode)
	} else {
		p.Renew(a, mode)
	}
	p.Pool = pl
	return p
}

// guard returns the i-th reusable vector guard re-armed over v.
func (w *Workspace) guard(i int, v []float64, mode abft.Mode) *abft.VectorGuard {
	if w.guards[i] == nil {
		w.guards[i] = abft.NewGuard(v, mode)
	} else {
		w.guards[i].Reset(v, mode)
	}
	return w.guards[i]
}

// stores returns the rolling checkpoint store and the initial-state store.
// Stale snapshots from a previous solve are simply overwritten by the
// driver's first Save (in place when shapes match).
func (w *Workspace) stores() (store, initStore *checkpoint.Store) {
	if w.store == nil {
		w.store = checkpoint.NewStore()
		w.initStore = checkpoint.NewStore()
	}
	return w.store, w.initStore
}

// liveView returns the reusable checkpoint view of the live state, with
// fresh matrix slots and cleared vector/scalar maps (a previous solve may
// have registered different names).
func (w *Workspace) liveView(a, m *sparse.CSR) *checkpoint.State {
	v := &w.view
	v.A, v.M = a, m
	v.Iteration = 0
	if v.Vectors == nil {
		v.Vectors = make(map[string][]float64, 8)
	} else {
		clear(v.Vectors)
	}
	if v.Scalars == nil {
		v.Scalars = make(map[string]float64, 4)
	} else {
		clear(v.Scalars)
	}
	return v
}
