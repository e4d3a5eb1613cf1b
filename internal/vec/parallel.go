package vec

import (
	"sync"

	"repro/internal/pool"
)

// This file provides pool-parallel variants of the hot level-1 kernels. The
// reductions (DotPool, Norm2SqPool) use a *deterministic blocked* scheme:
// the vector is cut into fixed BlockSize blocks, each block is summed
// left-to-right, and the per-block partials are folded in block order on the
// calling goroutine. The block boundaries depend only on the vector length,
// so the result is bitwise identical for any worker count — including one —
// and residual histories of the solvers stay reproducible when parallelism
// is toggled. A nil pool runs the same blocked algorithm sequentially.
//
// The element-wise kernels (AxpyPool, AxpyToPool, XpayPool) are trivially
// deterministic: each output element depends only on its own inputs.

// BlockSize is the reduction block length. Vectors no longer than BlockSize
// reduce in a single block, which makes the blocked kernels bit-identical
// to their plain sequential counterparts on small inputs.
const BlockSize = 4096

// minParallel is the length below which the element-wise kernels skip the
// pool: dispatch overhead dwarfs the O(n) work.
const minParallel = 2 * BlockSize

// blocks returns the number of BlockSize blocks covering a length-n vector.
func blocks(n int) int { return (n + BlockSize - 1) / BlockSize }

// reduction is the state of one pooled blocked reduction. Reductions are
// recycled through reductions with their block body bound once, so a
// pooled DotPool or Norm2SqPool hands the pool a long-lived function value
// and allocates nothing in steady state. Partials are indexed, not
// appended, so stale contents never leak into a fold.
type reduction struct {
	a, b     []float64 // b == nil: sum of squares of a
	partials []float64
	body     func(blo, bhi int)
}

var reductions = sync.Pool{New: func() any {
	r := &reduction{}
	r.body = r.blocks
	return r
}}

// blocks computes the partials of blocks [blo, bhi), each summed
// left-to-right by the plain kernel.
func (r *reduction) blocks(blo, bhi int) {
	a, b, n := r.a, r.b, len(r.a)
	for bi := blo; bi < bhi; bi++ {
		lo := bi * BlockSize
		hi := lo + BlockSize
		if hi > n {
			hi = n
		}
		if b == nil {
			r.partials[bi] = Norm2Sq(a[lo:hi])
		} else {
			r.partials[bi] = Dot(a[lo:hi], b[lo:hi])
		}
	}
}

// foldBlocks computes the block partials of aᵀb (of ‖a‖₂² when b is nil)
// across the pool and folds them in ascending block order.
func foldBlocks(p *pool.Pool, a, b []float64) float64 {
	nb := blocks(len(a))
	r := reductions.Get().(*reduction)
	if cap(r.partials) < nb {
		r.partials = make([]float64, nb)
	}
	r.a, r.b, r.partials = a, b, r.partials[:nb]
	p.Run(nb, 1, r.body)
	var s float64
	for _, v := range r.partials {
		s += v
	}
	r.a, r.b = nil, nil
	reductions.Put(r)
	return s
}

// DotPool returns aᵀb using the deterministic blocked reduction, parallel
// across p (sequential when p is nil, same result bit for bit). The
// sequential path folds block partials inline — no scratch — and the
// pooled path recycles its state, so neither allocates once warm.
func DotPool(p *pool.Pool, a, b []float64) float64 {
	checkLen("DotPool", a, b)
	switch {
	case len(a) <= BlockSize:
		return Dot(a, b)
	case p == nil:
		var total float64
		for lo := 0; lo < len(a); lo += BlockSize {
			hi := min(lo+BlockSize, len(a))
			total += Dot(a[lo:hi], b[lo:hi])
		}
		return total
	}
	return foldBlocks(p, a, b)
}

// Norm2SqPool returns ‖a‖₂² using the deterministic blocked reduction.
func Norm2SqPool(p *pool.Pool, a []float64) float64 {
	switch {
	case len(a) <= BlockSize:
		return Norm2Sq(a)
	case p == nil:
		var total float64
		for lo := 0; lo < len(a); lo += BlockSize {
			total += Norm2Sq(a[lo:min(lo+BlockSize, len(a))])
		}
		return total
	}
	return foldBlocks(p, a, nil)
}

// AxpyPool computes y ← y + alpha·x in place across the pool.
func AxpyPool(p *pool.Pool, alpha float64, x, y []float64) {
	checkLen("AxpyPool", x, y)
	if p == nil || len(x) < minParallel {
		Axpy(alpha, x, y)
		return
	}
	runUpdate(p, y, alpha, x, y)
}

// AxpyToPool computes dst ← y + alpha·x across the pool.
func AxpyToPool(p *pool.Pool, dst []float64, alpha float64, x, y []float64) {
	checkLen("AxpyToPool", x, y)
	checkLen("AxpyToPool", dst, y)
	if p == nil || len(x) < minParallel {
		AxpyTo(dst, alpha, x, y)
		return
	}
	runUpdate(p, dst, alpha, x, y)
}

// XpayPool computes y ← x + alpha·y in place across the pool.
func XpayPool(p *pool.Pool, alpha float64, x, y []float64) {
	checkLen("XpayPool", x, y)
	if p == nil || len(x) < minParallel {
		Xpay(alpha, x, y)
		return
	}
	runUpdate(p, y, alpha, y, x)
}

// update is the state of one pooled element-wise kernel, recycled like
// reduction. dst[i] = v[i] + alpha·u[i] is each kernel's own arithmetic:
// Axpy with (dst, u, v) = (y, x, y), AxpyTo with (dst, x, y) and Xpay
// with (y, y, x).
type update struct {
	dst, u, v []float64
	alpha     float64
	body      func(lo, hi int)
}

var updates = sync.Pool{New: func() any {
	u := &update{}
	u.body = u.run
	return u
}}

func (w *update) run(lo, hi int) {
	dst, u, v, alpha := w.dst, w.u, w.v, w.alpha
	for i := lo; i < hi; i++ {
		dst[i] = v[i] + alpha*u[i]
	}
}

func runUpdate(p *pool.Pool, dst []float64, alpha float64, u, v []float64) {
	w := updates.Get().(*update)
	w.dst, w.u, w.v, w.alpha = dst, u, v, alpha
	p.Run(len(dst), BlockSize, w.body)
	w.dst, w.u, w.v = nil, nil, nil
	updates.Put(w)
}
