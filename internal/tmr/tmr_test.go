package tmr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/checksum"
	"repro/internal/pool"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func TestDotNoFault(t *testing.T) {
	var e Executor
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := e.Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if v, m := e.Stats(); v != 1 || m != 0 {
		t.Fatalf("stats = %d votes, %d mismatches", v, m)
	}
}

func TestDotOutvotesSingleTransient(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		e := Executor{Corrupt: func(replica int, scalar *float64, _ []float64) {
			if replica == victim && scalar != nil {
				*scalar += 1e6
			}
		}}
		a := []float64{1, 2, 3}
		b := []float64{4, 5, 6}
		if got := e.Dot(a, b); got != 32 {
			t.Fatalf("victim %d: Dot = %v, want 32", victim, got)
		}
		if _, m := e.Stats(); m != 1 {
			t.Fatalf("victim %d: mismatch not recorded", victim)
		}
	}
}

func TestNorm2Sq(t *testing.T) {
	var e Executor
	if got := e.Norm2Sq([]float64{3, 4}); got != 25 {
		t.Fatalf("Norm2Sq = %v", got)
	}
}

func TestAxpyNoFault(t *testing.T) {
	var e Executor
	x := []float64{1, 2}
	y := []float64{10, 20}
	e.Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("Axpy = %v", y)
	}
}

func TestAxpyOutvotesSingleTransient(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		e := Executor{Corrupt: func(replica int, _ *float64, out []float64) {
			if replica == victim && out != nil {
				out[0] += 42
			}
		}}
		x := []float64{1, 2}
		y := []float64{10, 20}
		e.Axpy(2, x, y)
		if y[0] != 12 || y[1] != 24 {
			t.Fatalf("victim %d: Axpy = %v", victim, y)
		}
		if _, m := e.Stats(); m != 1 {
			t.Fatalf("victim %d: mismatch not recorded", victim)
		}
	}
}

func TestAxpyTo(t *testing.T) {
	var e Executor
	x := []float64{1, 2}
	y := []float64{10, 20}
	dst := make([]float64, 2)
	e.AxpyTo(dst, -1, x, y)
	if dst[0] != 9 || dst[1] != 18 {
		t.Fatalf("AxpyTo = %v", dst)
	}
	if y[0] != 10 {
		t.Fatal("AxpyTo modified y")
	}
}

func TestXpay(t *testing.T) {
	var e Executor
	x := []float64{1, 2}
	y := []float64{10, 20}
	e.Xpay(0.5, x, y)
	if y[0] != 6 || y[1] != 12 {
		t.Fatalf("Xpay = %v", y)
	}
}

func TestXpayOutvotesTransient(t *testing.T) {
	e := Executor{Corrupt: func(replica int, _ *float64, out []float64) {
		if replica == 2 && out != nil {
			out[1] = -999
		}
	}}
	x := []float64{1, 2}
	y := []float64{10, 20}
	e.Xpay(0.5, x, y)
	if y[1] != 12 {
		t.Fatalf("Xpay with transient = %v", y)
	}
}

func TestMatchesPlainKernels(t *testing.T) {
	var e Executor
	x := []float64{0.1, -2.5, 3.75, 4}
	y := []float64{1, 2, 3, 4}
	yCopy := append([]float64(nil), y...)
	e.Axpy(1.5, x, y)
	vec.Axpy(1.5, x, yCopy)
	for i := range y {
		if y[i] != yCopy[i] {
			t.Fatal("TMR Axpy differs from plain Axpy")
		}
	}
	if e.Dot(x, y) != vec.Dot(x, y) {
		t.Fatal("TMR Dot differs from plain Dot")
	}
}

func TestFlops(t *testing.T) {
	if FlopsDot(10) != 3*vec.FlopsDot(10) || FlopsAxpy(10) != 3*vec.FlopsAxpy(10) {
		t.Fatal("TMR flops must be 3x plain")
	}
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// replicaLengths straddle the pool cutoff and the reduction block size.
var replicaLengths = []int{1, 100, sparse.ParallelMinRows - 1, sparse.ParallelMinRows, 5000, 2*vec.BlockSize + 17}

// kernels runs every TMR kernel once on fresh copies of the same inputs
// and returns the scalars, the written vectors and the returned sums.
func kernels(e *Executor, n int) (scalars []float64, outs [][]float64, sums []checksum.Vector) {
	x, y := randVec(n, 1), randVec(n, 2)
	scalars = []float64{e.Dot(x, y), e.Norm2Sq(y)}
	ya := append([]float64(nil), y...)
	dst := make([]float64, n)
	yx := append([]float64(nil), y...)
	sums = []checksum.Vector{e.Axpy(0.37, x, ya), e.AxpyTo(dst, -1.25, x, y), e.Xpay(0.81, x, yx)}
	return scalars, [][]float64{ya, dst, yx}, sums
}

func TestReplicaParallelMatchesSequentialExecutor(t *testing.T) {
	for _, n := range replicaLengths {
		var seq Executor
		wantS, wantO, wantSums := kernels(&seq, n)
		x, y := randVec(n, 1), randVec(n, 2)
		if math.Float64bits(wantS[0]) != math.Float64bits(vec.DotPool(nil, x, y)) ||
			math.Float64bits(wantS[1]) != math.Float64bits(vec.Norm2SqPool(nil, y)) {
			t.Fatalf("n=%d: sequential TMR reductions differ from the blocked kernels", n)
		}
		for i, out := range wantO {
			if s1, s2 := checksum.Sums(out); math.Float64bits(s1) != math.Float64bits(wantSums[i].S1) ||
				math.Float64bits(s2) != math.Float64bits(wantSums[i].S2) {
				t.Errorf("n=%d kernel %d: vote sums %+v, checksum.Sums of the output (%v, %v)", n, i, wantSums[i], s1, s2)
			}
		}
		for _, workers := range []int{1, 2, 3, 4, 8} {
			p := pool.New(workers)
			par := Executor{Pool: p}
			gotS, gotO, gotSums := kernels(&par, n)
			p.Close()
			for i := range wantS {
				if math.Float64bits(gotS[i]) != math.Float64bits(wantS[i]) {
					t.Errorf("n=%d workers=%d: reduction %d = %v, sequential %v", n, workers, i, gotS[i], wantS[i])
				}
			}
			for i := range wantO {
				for j := range wantO[i] {
					if math.Float64bits(gotO[i][j]) != math.Float64bits(wantO[i][j]) {
						t.Fatalf("n=%d workers=%d: kernel %d entry %d differs", n, workers, i, j)
					}
				}
				if gotSums[i] != wantSums[i] {
					t.Errorf("n=%d workers=%d: kernel %d sums differ", n, workers, i)
				}
			}
		}
	}
}

func TestReplicaParallelOutvotesTransient(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	for _, n := range []int{sparse.ParallelMinRows, 2*vec.BlockSize + 17} {
		var seq Executor
		wantS, wantO, _ := kernels(&seq, n)
		for victim := 0; victim < 3; victim++ {
			e := Executor{Pool: p, Corrupt: func(replica int, scalar *float64, out []float64) {
				if replica != victim {
					return
				}
				if scalar != nil {
					*scalar *= -3
				} else {
					out[len(out)/2] += 1e6
				}
			}}
			gotS, gotO, _ := kernels(&e, n)
			for i := range wantS {
				if gotS[i] != wantS[i] {
					t.Errorf("n=%d victim %d: reduction %d not outvoted", n, victim, i)
				}
			}
			for i := range wantO {
				if !vec.Equal(gotO[i], wantO[i]) {
					t.Errorf("n=%d victim %d: kernel %d not outvoted", n, victim, i)
				}
			}
			if v, m := e.Stats(); v != 5 || m != 5 {
				t.Errorf("n=%d victim %d: %d votes, %d mismatches, want 5 and 5", n, victim, v, m)
			}
		}
	}
}
