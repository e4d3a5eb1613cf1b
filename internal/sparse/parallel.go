package sparse

import (
	"fmt"
	"sync"

	"repro/internal/pool"
)

// ParallelMinRows is the row-count cutoff below which the pooled kernels
// run inline on the caller: under it the work fits in cache and pool
// dispatch costs more than it saves. UsePool applies it to the row
// products here and to every pooled step of the resilient drivers' ABFT
// iteration: the protected product, its verification passes and the
// guard checks (internal/abft) and the TMR replicas (internal/tmr). The
// blocked vector kernels of internal/vec, which the unprotected and
// Online-Detection iterations use, keep their own vec.BlockSize cutoffs.
const ParallelMinRows = 2048

// UsePool reports whether a kernel over n rows (or vector entries) should
// run on p: only a pool with more than one worker pays for its dispatch,
// and only from ParallelMinRows on. Every pooled kernel computes the same
// bits either way.
func UsePool(p *pool.Pool, n int) bool {
	return p != nil && p.Workers() > 1 && n >= ParallelMinRows
}

// parallelRowGrain is the minimum number of rows per scheduled chunk,
// bounding the NNZ-balanced partition's chunk count so dispatch overhead
// stays negligible on small matrices.
const parallelRowGrain = 256

// MulVecParallel computes y ← Ax with the row range executed across the
// pool, chunked by the matrix's cached NNZ-balanced partition plan (see
// partition.go) so every chunk carries approximately equal work even under
// skewed nonzero distributions. Every output row is computed by exactly the
// same left-to-right accumulation as MulVec, and rows are written to
// disjoint slices of y, so the result is bitwise identical to the
// sequential product for any worker count and any plan. A nil pool, a
// single-worker pool or a small matrix all run sequentially.
func (m *CSR) MulVecParallel(p *pool.Pool, y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecParallel dimensions: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	if !UsePool(p, m.Rows) {
		m.MulVec(y, x)
		return
	}
	m.runRows(p, y, x, nil, nil, false)
}

// MulVecRobustParallel is MulVecParallel with MulVecRobust's tolerance of a
// corrupted representation: row pointer ranges are clamped and out-of-range
// column indices contribute nothing, so a bit flip in Colid or Rowidx
// perturbs the product instead of crashing a worker. Row i's accumulation
// order matches MulVecRobust exactly, so sequential and parallel execution
// agree bitwise. The NNZ-balanced plan may be stale for a corrupted Rowidx
// (plans are balanced on the trusted structure); that only skews the load,
// never the result.
func (m *CSR) MulVecRobustParallel(p *pool.Pool, y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecRobustParallel dimensions: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	if !UsePool(p, m.Rows) {
		m.MulVecRobust(y, x)
		return
	}
	m.runRows(p, y, x, nil, nil, true)
}

// MulVecBlockRobustParallel computes ys[j] ← A·xs[j] for every column in
// one traversal of the possibly corrupted arrays, with MulVecRobust's
// clamping and column-index guards, and the row range run across the pool
// as in MulVecRobustParallel. Each row's pointer pair is read once and
// each column's product accumulates left-to-right, so every output column
// is bitwise identical to a separate MulVecRobust call, for any worker
// count; a nil pool runs the same rows inline.
func (m *CSR) MulVecBlockRobustParallel(p *pool.Pool, ys, xs [][]float64) {
	if len(ys) != len(xs) {
		panic(fmt.Sprintf("sparse: MulVecBlockRobustParallel: %d outputs for %d inputs", len(ys), len(xs)))
	}
	for j := range xs {
		if len(xs[j]) != m.Cols || len(ys[j]) != m.Rows {
			panic(fmt.Sprintf("sparse: MulVecBlockRobustParallel dimensions: A is %dx%d, len(xs[%d])=%d, len(ys[%d])=%d",
				m.Rows, m.Cols, j, len(xs[j]), j, len(ys[j])))
		}
	}
	if !UsePool(p, m.Rows) {
		m.robustBlockRows(ys, xs, 0, m.Rows)
		return
	}
	m.runRows(p, nil, nil, ys, xs, true)
}

// rowJob is the argument set of one pooled product. Jobs are recycled
// through rowJobs with their row-range body bound once, so a pooled
// product hands the pool a long-lived function value and allocates
// nothing in steady state.
type rowJob struct {
	m      *CSR
	y, x   []float64
	ys, xs [][]float64 // non-nil: the blocked robust product
	robust bool
	body   func(lo, hi int)
}

var rowJobs = sync.Pool{New: func() any {
	j := &rowJob{}
	j.body = j.rows
	return j
}}

// runRows runs one product over m's cached plan on p.
func (m *CSR) runRows(p *pool.Pool, y, x []float64, ys, xs [][]float64, robust bool) {
	j := rowJobs.Get().(*rowJob)
	j.m, j.y, j.x, j.ys, j.xs, j.robust = m, y, x, ys, xs, robust
	p.RunRanges(m.PlanFor(p.Workers()).Bounds, j.body)
	j.m, j.y, j.x, j.ys, j.xs = nil, nil, nil, nil, nil
	rowJobs.Put(j)
}

func (j *rowJob) rows(lo, hi int) {
	switch {
	case j.ys != nil:
		j.m.robustBlockRows(j.ys, j.xs, lo, hi)
	case j.robust:
		j.m.robustRows(j.y, j.x, lo, hi)
	default:
		j.m.plainRows(j.y, j.x, lo, hi)
	}
}

// plainRows is MulVec's row kernel over rows [lo, hi).
func (m *CSR) plainRows(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.Rowidx[i]; k < m.Rowidx[i+1]; k++ {
			s += m.Val[k] * x[m.Colid[k]]
		}
		y[i] = s
	}
}

// robustRows is MulVecRobust's row kernel over rows [lo, hi).
func (m *CSR) robustRows(y, x []float64, lo, hi int) {
	nnz := len(m.Val)
	for i := lo; i < hi; i++ {
		rlo, rhi := m.Rowidx[i], m.Rowidx[i+1]
		if rlo < 0 {
			rlo = 0
		}
		if rhi > nnz {
			rhi = nnz
		}
		var s float64
		for k := rlo; k < rhi; k++ {
			if ind := m.Colid[k]; uint(ind) < uint(len(x)) {
				s += m.Val[k] * x[ind]
			}
		}
		y[i] = s
	}
}

// robustBlockRows is robustRows for every column of a block over rows
// [lo, hi): each row's clamped range is computed once and reused across
// the columns.
func (m *CSR) robustBlockRows(ys, xs [][]float64, lo, hi int) {
	nnz := len(m.Val)
	for i := lo; i < hi; i++ {
		rlo, rhi := m.Rowidx[i], m.Rowidx[i+1]
		if rlo < 0 {
			rlo = 0
		}
		if rhi > nnz {
			rhi = nnz
		}
		for j := range xs {
			x := xs[j]
			var s float64
			for k := rlo; k < rhi; k++ {
				if ind := m.Colid[k]; uint(ind) < uint(len(x)) {
					s += m.Val[k] * x[ind]
				}
			}
			ys[j][i] = s
		}
	}
}
