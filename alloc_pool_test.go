//go:build !race

package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pool"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// The allocation gates of the pooled warm path. Pool dispatch recycles its
// job state through sync.Pool, which drops items at random under the race
// detector, so these gates hold only in normal builds.

// TestZeroAllocPooledVecKernels gates the pooled level-1 kernels, whose
// per-call state is recycled instead of captured in a closure.
func TestZeroAllocPooledVecKernels(t *testing.T) {
	x := randVec(3*vec.BlockSize, 1)
	y := randVec(3*vec.BlockSize, 2)
	p := pool.New(2)
	defer p.Close()
	assertZeroAllocs(t, "vec.DotPool", func() { vec.DotPool(p, x, y) })
	assertZeroAllocs(t, "vec.Norm2SqPool", func() { vec.Norm2SqPool(p, x) })
	assertZeroAllocs(t, "vec.AxpyPool", func() { vec.AxpyPool(p, 1e-9, x, y) })
	assertZeroAllocs(t, "vec.XpayPool", func() { vec.XpayPool(p, 1, x, y) })
}

// TestZeroAllocPooledSolvers gates the pooled warm path: every resilient
// driver on a 2-worker pool and a suite matrix above
// sparse.ParallelMinRows, so the pooled protected product, verification,
// guard pair, TMR replicas and row products all take their pool paths.
func TestZeroAllocPooledSolvers(t *testing.T) {
	sm, _ := harness.SuiteByID(1312)
	a := sm.Generate(8)
	if a.Rows < sparse.ParallelMinRows {
		t.Fatalf("suite matrix has %d rows, below the pool cutoff %d", a.Rows, sparse.ParallelMinRows)
	}
	b, _ := harness.RHS(a, 1)
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(2)
	defer p.Close()
	ws := core.NewWorkspace()
	type namedSolve struct {
		name  string
		solve func() ([]float64, core.Stats, error)
	}
	solves := []namedSolve{
		{"core.SolvePCG", func() ([]float64, core.Stats, error) {
			return core.SolvePCG(a, m, b, core.Config{Scheme: core.ABFTCorrection, Tol: 1e-8, S: 4, Pool: p, Ws: ws})
		}},
		{"core.SolveBiCGstab", func() ([]float64, core.Stats, error) {
			return core.SolveBiCGstab(a, b, core.Config{Scheme: core.ABFTCorrection, Tol: 1e-8, S: 4, Pool: p, Ws: ws})
		}},
	}
	for _, scheme := range []core.Scheme{core.ABFTDetection, core.ABFTCorrection, core.OnlineDetection} {
		cfg := core.Config{Scheme: scheme, Tol: 1e-8, S: 4, D: 2, Pool: p, Ws: ws}
		solves = append(solves, namedSolve{"core.Solve/" + scheme.String(),
			func() ([]float64, core.Stats, error) { return core.Solve(a, b, cfg) }})
	}
	for _, sc := range solves {
		assertZeroAllocs(t, sc.name, func() {
			if _, st, err := sc.solve(); err != nil || !st.Converged {
				t.Fatalf("%s: err=%v converged=%v", sc.name, err, st.Converged)
			}
		})
	}

	bs := [][]float64{b, make([]float64, len(b)), make([]float64, len(b))}
	for i := range b {
		bs[1][i], bs[2][i] = b[i]+1, 2*b[i]
	}
	sts := make([]core.Stats, len(bs))
	errs := make([]error, len(bs))
	block := core.BlockConfig{Scheme: core.ABFTCorrection, Tol: 1e-8, S: 4, Pool: p, Ws: core.NewBlockWorkspace()}
	assertZeroAllocs(t, "core.SolveBlock", func() {
		if _, err := core.SolveBlock(a, bs, block, sts, errs); err != nil {
			t.Fatal(err)
		}
		for j := range bs {
			if errs[j] != nil || !sts[j].Converged {
				t.Fatalf("core.SolveBlock lane %d: err=%v converged=%v", j, errs[j], sts[j].Converged)
			}
		}
	})
}
