// Package tmr implements triple modular redundancy for the cheap vector
// kernels of the solvers (dot products, norms, axpy updates), as prescribed
// by the paper's Section 3: "As ABFT methods for vector operations is as
// costly as a repeated computation, we use triple modular redundancy (TMR)
// for them for simplicity … we compute the dots, norms and axpy operations
// in the resilient mode."
//
// Each operation is executed three times and the results voted: two
// matching replicas win. On deterministic hardware the three replicas are
// bit-identical unless a transient fault strikes one of them; the Corrupt
// hook lets tests and fault campaigns inject exactly such a transient into
// a chosen replica.
package tmr

import (
	"repro/internal/checksum"
	"repro/internal/pool"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Executor runs vector kernels in triple modular redundancy.
type Executor struct {
	// Corrupt, when non-nil, is invoked once per replica with the replica
	// index (0–2) and the scalar result or output vector, and may perturb it
	// to simulate a transient computation fault in that replica. It runs on
	// the caller's goroutine, in replica order, after all three replicas
	// have finished and before the vote.
	Corrupt func(replica int, scalar *float64, vector []float64)

	// Pool, when non-nil, runs the three replicas concurrently: each
	// replica is a separate execution into its own buffer (or its own
	// partial sums), split into the vec.BlockSize blocks of the
	// deterministic blocked kernels, and the replica×block tasks are spread
	// over the pool (sparse.UsePool decides, by worker count and length).
	// Each replica computes exactly the bits of the sequential kernel, so
	// the voting invariant and every result are those of a nil Pool, which
	// runs the same tasks on the caller.
	Pool *pool.Pool

	votes      int64
	mismatches int64

	// Resident scratch, reused across calls so steady-state TMR iterations
	// allocate nothing: the element-wise replicas' outputs and the
	// reductions' per-replica block partials and results.
	replicas [3][]float64
	partials [3][]float64
	scalars  [3]float64

	job replicaJob
}

// replicaJob is the argument set of one replicated kernel. body is bound
// once to the executor's own job, so dispatching the replica×block tasks
// to the pool allocates nothing.
type replicaJob struct {
	op    int // opDot, opNorm2Sq or opUpdate
	nb    int // blocks per replica
	a, b  []float64
	alpha float64
	out   *[3][]float64 // opUpdate: replica outputs; otherwise block partials
	body  func(lo, hi int)
	bound *replicaJob // the job body is bound to; a copied Executor rebinds
}

const (
	opDot = iota
	opNorm2Sq
	opUpdate
)

// Stats reports how many votes were taken and how many had a dissenting
// replica (i.e. a transient was outvoted).
func (e *Executor) Stats() (votes, mismatches int64) { return e.votes, e.mismatches }

// voteScalar returns the majority of three scalars; when all three differ it
// returns the second (detectable by the caller comparing replicas — with
// independent transients this is negligible, as the paper assumes).
func (e *Executor) voteScalar(r [3]float64) float64 {
	a, b, c := r[0], r[1], r[2]
	e.votes++
	if a == b || a == c {
		if a != b || a != c {
			e.mismatches++
		}
		return a
	}
	e.mismatches++
	return b // b == c, or total disagreement
}

// Dot computes aᵀb with TMR. Each replica is vec.DotPool's blocked
// reduction, so the result is bitwise vec.DotPool(nil, a, b) when no
// replica is corrupted.
func (e *Executor) Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tmr: Dot length mismatch")
	}
	return e.reduce(opDot, a, b)
}

// Norm2Sq computes ‖a‖₂² with TMR (bitwise vec.Norm2SqPool's blocked
// reduction, as in Dot).
func (e *Executor) Norm2Sq(a []float64) float64 {
	return e.reduce(opNorm2Sq, a, nil)
}

// reduce runs three replicas of a blocked reduction and votes.
func (e *Executor) reduce(op int, a, b []float64) float64 {
	nb := blocks(len(a))
	for r := range e.partials {
		if cap(e.partials[r]) < nb {
			e.partials[r] = make([]float64, nb)
		}
		e.partials[r] = e.partials[r][:nb]
	}
	e.run(op, nb, a, b, 0, &e.partials)
	res := &e.scalars // the hook takes their addresses: keep them off the stack
	for r := range res {
		res[r] = fold(e.partials[r])
		if e.Corrupt != nil {
			e.Corrupt(r, &res[r], nil)
		}
	}
	return e.voteScalar(*res)
}

// fold sums block partials in ascending block order, as vec.DotPool does;
// a single block is the plain kernel's result.
func fold(partials []float64) float64 {
	if len(partials) == 1 {
		return partials[0]
	}
	var s float64
	for _, v := range partials {
		s += v
	}
	return s
}

// Axpy computes y ← y + alpha·x with TMR: each replica writes y + alpha·x
// into its own buffer, and the replicas are voted element-wise into y. It
// returns checksum.Sums of the voted y, accumulated during the vote.
func (e *Executor) Axpy(alpha float64, x, y []float64) checksum.Vector {
	if len(x) != len(y) {
		panic("tmr: Axpy length mismatch")
	}
	return e.update(y, alpha, x, y)
}

// AxpyTo computes dst ← y + alpha·x with TMR and returns checksum.Sums of
// the voted dst.
func (e *Executor) AxpyTo(dst []float64, alpha float64, x, y []float64) checksum.Vector {
	if len(x) != len(y) || len(dst) != len(y) {
		panic("tmr: AxpyTo length mismatch")
	}
	return e.update(dst, alpha, x, y)
}

// Xpay computes y ← x + alpha·y with TMR and returns checksum.Sums of the
// voted y.
func (e *Executor) Xpay(alpha float64, x, y []float64) checksum.Vector {
	if len(x) != len(y) {
		panic("tmr: Xpay length mismatch")
	}
	return e.update(y, alpha, y, x)
}

// update runs three replicas of out ← v + alpha·u (the arithmetic of
// vec.Axpy, vec.AxpyTo and vec.Xpay alike), each into its own buffer,
// passes each through the Corrupt hook and votes them element-wise into
// out. out may alias u or v: the replicas only read them, and the vote
// writes out after every replica has finished.
func (e *Executor) update(out []float64, alpha float64, u, v []float64) checksum.Vector {
	n := len(out)
	for r := range e.replicas {
		if cap(e.replicas[r]) < n {
			e.replicas[r] = make([]float64, n)
		}
		e.replicas[r] = e.replicas[r][:n]
	}
	e.run(opUpdate, blocks(n), u, v, alpha, &e.replicas)
	if e.Corrupt != nil {
		for r := range e.replicas {
			e.Corrupt(r, nil, e.replicas[r])
		}
	}
	return e.vote(out)
}

// vote writes the element-wise majority of the replica buffers into out
// and returns out's weighted sums, accumulated in checksum.Sums order.
func (e *Executor) vote(out []float64) checksum.Vector {
	b0, b1, b2 := e.replicas[0], e.replicas[1], e.replicas[2]
	e.votes++
	dissent := false
	var s1, s2 float64
	for j := range out {
		a, b, c := b0[j], b1[j], b2[j]
		if a != b || a != c {
			dissent = true
			if a != b && a != c {
				a = b // b == c, or total disagreement
			}
		}
		out[j] = a
		s1 += a
		s2 += float64(j+1) * a
	}
	if dissent {
		e.mismatches++
	}
	return checksum.Vector{S1: s1, S2: s2}
}

// blocks returns the number of vec.BlockSize blocks covering n entries
// (at least one).
func blocks(n int) int {
	if n <= vec.BlockSize {
		return 1
	}
	return (n + vec.BlockSize - 1) / vec.BlockSize
}

// run executes the 3·nb replica×block tasks of one kernel on the pool, or
// inline when the pool would not pay.
func (e *Executor) run(op, nb int, a, b []float64, alpha float64, out *[3][]float64) {
	j := &e.job
	if j.bound != j {
		j.body, j.bound = j.tasks, j
	}
	j.op, j.nb, j.a, j.b, j.alpha, j.out = op, nb, a, b, alpha, out
	if sparse.UsePool(e.Pool, len(a)) {
		e.Pool.Run(3*nb, 1, j.body)
	} else {
		j.tasks(0, 3*nb)
	}
	j.a, j.b, j.out = nil, nil, nil
}

// tasks runs tasks [lo, hi): task t is replica t/nb's block t%nb.
func (j *replicaJob) tasks(lo, hi int) {
	n := len(j.a)
	for t := lo; t < hi; t++ {
		r, bi := t/j.nb, t%j.nb
		blo := bi * vec.BlockSize
		bhi := blo + vec.BlockSize
		if bhi > n {
			bhi = n
		}
		a := j.a[blo:bhi]
		switch j.op {
		case opDot:
			j.out[r][bi] = vec.Dot(a, j.b[blo:bhi])
		case opNorm2Sq:
			j.out[r][bi] = vec.Norm2Sq(a)
		default:
			vec.AxpyTo(j.out[r][blo:bhi], j.alpha, a, j.b[blo:bhi])
		}
	}
}

// FlopsDot returns the TMR cost of a dot product: three replicas.
func FlopsDot(n int) int64 { return 3 * vec.FlopsDot(n) }

// FlopsAxpy returns the TMR cost of an axpy: three replicas.
func FlopsAxpy(n int) int64 { return 3 * vec.FlopsAxpy(n) }
