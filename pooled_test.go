package repro

import (
	"math"
	"testing"

	"repro/internal/abft"
	"repro/internal/checksum"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// This file pins the bitwise contract of the pooled ABFT iteration on every
// matrix of the paper suite: the protected product, the blocked protected
// product, the verification and the pre-product guard checks must give
// exactly the sequential bits and outcomes at every worker count, on
// intact and on corrupted matrices.

var poolWorkers = []int{1, 2, 3, 4, 8}

// refProtectedMulVec is the protected product as a single fused sequential
// traversal — clamped row ranges, skipped out-of-range columns, sr
// accumulated row by row in index order — the reference every pooled
// product must match bit for bit.
func refProtectedMulVec(a *sparse.CSR, y, x []float64) abft.RowSums {
	n := a.Rows
	nnz := len(a.Val)
	var sr abft.RowSums
	for i := 0; i < n; i++ {
		lo, hi := a.Rowidx[i], a.Rowidx[i+1]
		fv := float64(lo)
		sr.S1 += fv
		sr.S2 += float64(i+1) * fv
		if lo < 0 {
			lo = 0
		}
		if hi > nnz {
			hi = nnz
		}
		var s float64
		for k := lo; k < hi; k++ {
			if ind := a.Colid[k]; uint(ind) < uint(len(x)) {
				s += a.Val[k] * x[ind]
			}
		}
		y[i] = s
	}
	fv := float64(a.Rowidx[n])
	sr.S1 += fv
	sr.S2 += float64(n+1) * fv
	return sr
}

// matrixFlips are the single bit flips the fault model aims at the three
// CSR arrays, each at a mid-matrix entry, plus the intact matrix.
var matrixFlips = []struct {
	name  string
	apply func(a *sparse.CSR)
}{
	{"intact", func(*sparse.CSR) {}},
	{"Rowidx", func(a *sparse.CSR) { a.Rowidx[a.Rows/2] ^= 1 << 4 }},
	{"Colid", func(a *sparse.CSR) { a.Colid[len(a.Colid)/3] ^= 1 << 3 }},
	{"Val", func(a *sparse.CSR) {
		k := len(a.Val) / 2
		a.Val[k] = math.Float64frombits(math.Float64bits(a.Val[k]) ^ 1<<60)
	}},
}

func sumsEqual(a, b abft.RowSums) bool {
	return math.Float64bits(a.S1) == math.Float64bits(b.S1) && math.Float64bits(a.S2) == math.Float64bits(b.S2)
}

func TestPooledProtectedProductsBitwiseOnSuite(t *testing.T) {
	for id, clean := range suiteInstances(t) {
		xs := [][]float64{randVec(clean.Cols, int64(id)), randVec(clean.Cols, int64(id)+1), randVec(clean.Cols, int64(id)+2)}
		for _, flip := range matrixFlips {
			a := clean.Clone()
			flip.apply(a)
			yRefs := make([][]float64, len(xs))
			var srRef abft.RowSums
			for j := range xs {
				yRefs[j] = make([]float64, a.Rows)
				srRef = refProtectedMulVec(a, yRefs[j], xs[j])
			}
			p := abft.NewProtected(a, abft.DetectCorrect)
			for _, workers := range append([]int{0}, poolWorkers...) {
				var pl *pool.Pool
				if workers > 0 {
					pl = pool.New(workers)
				}
				p.Pool = pl
				y := make([]float64, a.Rows)
				if sr := p.MulVec(y, xs[0]); !bitsEqual(yRefs[0], y) || !sumsEqual(sr, srRef) {
					t.Errorf("matrix %d, %s flip, %d workers: MulVec differs from the sequential reference", id, flip.name, workers)
				}
				ys := [][]float64{make([]float64, a.Rows), make([]float64, a.Rows), make([]float64, a.Rows)}
				sr := p.MulVecBlock(ys, xs)
				if !sumsEqual(sr, srRef) {
					t.Errorf("matrix %d, %s flip, %d workers: MulVecBlock sr differs", id, flip.name, workers)
				}
				for j := range xs {
					if !bitsEqual(yRefs[j], ys[j]) {
						t.Errorf("matrix %d, %s flip, %d workers: MulVecBlock column %d differs", id, flip.name, workers, j)
					}
				}
				if pl != nil {
					pl.Close()
				}
			}
		}
	}
}

// verifyFault is one fault striking a protected product between the
// checksum encoding and the verification.
type verifyFault struct {
	name string
	// before strikes the matrix or x ahead of the product; after strikes y
	// in the product–verification window.
	before func(a *sparse.CSR, x []float64)
	after  func(y []float64)
}

var verifyFaults = []verifyFault{
	{"none", nil, nil},
	{"y", nil, func(y []float64) { y[len(y)/3] += 1e3 }},
	{"x", func(_ *sparse.CSR, x []float64) { x[len(x)/4] -= 7 }, nil},
	{"Val", func(a *sparse.CSR, _ []float64) { a.Val[len(a.Val)/2] += 1e3 }, nil},
	{"Colid", func(a *sparse.CSR, _ []float64) { a.Colid[len(a.Colid)/5] ^= 1 << 2 }, nil},
	{"Rowidx", func(a *sparse.CSR, _ []float64) { a.Rowidx[a.Rows/2] ^= 1 << 3 }, nil},
	{"y+x", func(_ *sparse.CSR, x []float64) { x[1] = math.Inf(1) }, func(y []float64) { y[2] = -5 }},
}

// verifyRun runs one protected product and its verification under a
// fault, returning everything the verification decides or repairs.
func verifyRun(clean *sparse.CSR, x0 []float64, mode abft.Mode, pl *pool.Pool, f verifyFault) (abft.Outcome, abft.Stats, *sparse.CSR, []float64, []float64) {
	a := clean.Clone()
	p := abft.NewProtected(a, mode)
	p.Pool = pl
	x := append([]float64(nil), x0...)
	ref := checksum.NewVector(x)
	if f.before != nil {
		f.before(a, x)
	}
	y := make([]float64, a.Rows)
	sr := p.MulVec(y, x)
	if f.after != nil {
		f.after(y)
	}
	out := p.Verify(y, x, ref, sr)
	return out, p.Stats(), a, x, y
}

func TestPooledVerifyMatchesSequentialOnSuite(t *testing.T) {
	for id, clean := range suiteInstances(t) {
		x0 := randVec(clean.Cols, int64(id))
		for _, mode := range []abft.Mode{abft.Detect, abft.DetectCorrect} {
			for _, f := range verifyFaults {
				wantOut, wantStats, wantA, wantX, wantY := verifyRun(clean, x0, mode, nil, f)
				if f.name == "none" && wantOut.Detected {
					t.Fatalf("matrix %d %v: false positive", id, mode)
				}
				if f.name != "none" && !wantOut.Detected {
					t.Errorf("matrix %d %v: %s fault not detected", id, mode, f.name)
				}
				for _, workers := range poolWorkers {
					pl := pool.New(workers)
					out, stats, a, x, y := verifyRun(clean, x0, mode, pl, f)
					pl.Close()
					if out != wantOut || stats != wantStats {
						t.Errorf("matrix %d %v %s, %d workers: outcome %+v stats %+v, sequential %+v %+v",
							id, mode, f.name, workers, out, stats, wantOut, wantStats)
					}
					if !a.Equal(wantA) || !bitsEqual(x, wantX) || !bitsEqual(y, wantY) {
						t.Errorf("matrix %d %v %s, %d workers: repaired state differs from sequential", id, mode, f.name, workers)
					}
				}
			}
		}
	}
}

// TestPooledGuardPairMatchesCheckOnSuite runs the pre-product guard pair
// on the pool and checks each outcome and repair against a lone Check.
func TestPooledGuardPairMatchesCheckOnSuite(t *testing.T) {
	strikes := []struct {
		name  string
		apply func(v []float64)
	}{
		{"none", func([]float64) {}},
		{"value", func(v []float64) { v[len(v)/2] += 0.5 }},
		{"NaN", func(v []float64) { v[len(v)/3] = math.NaN() }},
		{"two", func(v []float64) { v[3] += 1; v[len(v)-4] -= 2 }},
	}
	for id, a := range suiteInstances(t) {
		for _, mode := range []abft.Mode{abft.Detect, abft.DetectCorrect} {
			for _, sr := range strikes {
				for _, sx := range strikes {
					r0, x0 := randVec(a.Rows, int64(id)), randVec(a.Rows, int64(id)+7)
					run := func(pl *pool.Pool, pair bool) (abft.Outcome, abft.Outcome, []float64, []float64) {
						r, x := append([]float64(nil), r0...), append([]float64(nil), x0...)
						gr, gx := abft.NewGuard(r, mode), abft.NewGuard(x, mode)
						sr.apply(r)
						sx.apply(x)
						if pair {
							outR, outX := gr.CheckPair(pl, r, gx, x)
							return outR, outX, r, x
						}
						return gr.Check(r), gx.Check(x), r, x
					}
					wantR, wantX, wr, wx := run(nil, false)
					for _, workers := range poolWorkers {
						pl := pool.New(workers)
						outR, outX, r, x := run(pl, true)
						pl.Close()
						if outR != wantR || outX != wantX || !bitsEqual(r, wr) || !bitsEqual(x, wx) {
							t.Errorf("matrix %d %v r:%s x:%s, %d workers: CheckPair differs from Check", id, mode, sr.name, sx.name, workers)
						}
					}
				}
			}
		}
	}
}
