package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/abft"
	"repro/internal/checksum"
	"repro/internal/pool"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// probeMatrix is one matrix the kernel probes run on.
type probeMatrix struct {
	label string
	a     *sparse.CSR
}

// probeRow is the per-matrix detail of the kernel and setup probes. Times
// are per call; flops and bytes are computed from the array sizes, not
// measured.
type probeRow struct {
	Matrix        string  `json:"matrix"`
	Rows          int     `json:"rows"`
	NNZ           int     `json:"nnz"`
	SpmvNs        float64 `json:"spmv_ns"`
	SpmvPoolNs    float64 `json:"spmv_pool_ns"`
	MulvecDNs     float64 `json:"abft_mulvec_d_ns"`
	MulvecCNs     float64 `json:"abft_mulvec_c_ns"`
	VerifyNs      float64 `json:"abft_verify_ns"`
	DotNs         float64 `json:"dot_ns"`
	EncodeMs      float64 `json:"abft_encode_ms"`
	SpmvFlops     int64   `json:"spmv_flops_computed"`
	SpmvBytes     int64   `json:"spmv_bytes_computed"`
	MulvecFlops   int64   `json:"abft_mulvec_flops_computed"`
	VerifyFlops   int64   `json:"abft_verify_flops_computed"`
	WorkingSetKiB float64 `json:"working_set_kib_computed"`
}

// probeBatches and probeBatchTime size a kernel timing: the median over
// batches, each repeating the call for at least probeBatchTime.
const (
	probeBatches   = 5
	probeBatchTime = 3 * time.Millisecond
)

// timePerCall returns the median per-call time of fn in ns, and records one
// span per probe covering all its batches.
func timePerCall(l *spanLog, name, label string, fn func()) float64 {
	fn() // warm caches and lazy plans
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t0) >= probeBatchTime {
			break
		}
		reps *= 2
	}
	s0 := l.now()
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(reps)
	}
	l.add(name, "", label, s0, l.now(), 0)
	return median(per)
}

// runProbes times the kernels each layer contributes on the workload's
// matrices and sets the sparse, pool, vec and abft layer metrics.
func runProbes(res *result, mats []probeMatrix, pl *pool.Pool) {
	l := res.spans
	var rows []probeRow
	var sum probeRow
	for _, m := range mats {
		a := m.a
		n := a.Rows
		rng := rand.New(rand.NewSource(int64(n)))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		row := probeRow{Matrix: m.label, Rows: n, NNZ: a.NNZ()}
		row.SpmvNs = timePerCall(l, "sparse.spmv", m.label, func() { a.MulVec(y, x) })
		row.SpmvPoolNs = timePerCall(l, "sparse.spmv", m.label+"/pool", func() { a.MulVecParallel(pl, y, x) })
		row.DotNs = timePerCall(l, "vec.dot", m.label, func() { vec.DotPool(pl, x, y) })
		for _, md := range abftModes {
			p := abft.NewProtected(a.Clone(), md.mode)
			ns := timePerCall(l, "abft.mulvec", m.label+"/"+md.tag, func() { p.MulVec(y, x) })
			if md.mode == abft.Detect {
				row.MulvecDNs = ns
				continue
			}
			row.MulvecCNs = ns
			sr := p.MulVec(y, x)
			xRef := checksum.NewVector(x)
			row.VerifyNs = timePerCall(l, "abft.verify", m.label, func() { p.Verify(y, x, xRef, sr) })
			row.MulvecFlops = p.FlopsMulVec()
			row.VerifyFlops = p.FlopsVerify()
		}
		clone := a.Clone()
		var encodes []float64
		for i := 0; i < 3; i++ {
			s0 := l.now()
			t0 := time.Now()
			abft.NewProtected(clone, abft.DetectCorrect)
			encodes = append(encodes, float64(time.Since(t0).Nanoseconds())/1e6)
			l.add("abft.encode", "", m.label, s0, l.now(), 0)
		}
		row.EncodeMs = median(encodes)
		// CSR product traffic: values and column indices once, row
		// pointers once, x gathered once per nonzero in the worst case
		// (counted once here), y written once. Ints are 8 bytes.
		row.SpmvFlops = a.FlopsMulVec()
		row.SpmvBytes = int64(16*a.NNZ() + 8*(n+1) + 16*n)
		row.WorkingSetKiB = float64(row.SpmvBytes) / 1024
		rows = append(rows, row)

		sum.Rows += row.Rows
		sum.NNZ += row.NNZ
		sum.SpmvNs += row.SpmvNs
		sum.SpmvPoolNs += row.SpmvPoolNs
		sum.MulvecDNs += row.MulvecDNs
		sum.MulvecCNs += row.MulvecCNs
		sum.VerifyNs += row.VerifyNs
		sum.DotNs += row.DotNs
		sum.EncodeMs += row.EncodeMs
		sum.SpmvFlops += row.SpmvFlops
		sum.SpmvBytes += row.SpmvBytes
		sum.MulvecFlops += row.MulvecFlops
		sum.VerifyFlops += row.VerifyFlops
		sum.WorkingSetKiB = max(sum.WorkingSetKiB, row.WorkingSetKiB)
	}
	res.Probes = rows
	k := float64(len(rows))
	nnz, n := float64(sum.NNZ), float64(sum.Rows)
	res.set("sparse.spmv_ns_per_nnz", sum.SpmvNs/nnz)
	res.set("sparse.spmv_pool_ns_per_nnz", sum.SpmvPoolNs/nnz)
	res.set("sparse.spmv_flops_per_call", float64(sum.SpmvFlops)/k)
	res.set("sparse.spmv_bytes_per_call", float64(sum.SpmvBytes)/k)
	res.set("sparse.max_working_set_kib", sum.WorkingSetKiB)
	res.set("pool.spmv_speedup", sum.SpmvNs/sum.SpmvPoolNs)
	res.set("vec.dot_ns_per_elem", sum.DotNs/n)
	res.set("abft.mulvec_d_ns_per_nnz", sum.MulvecDNs/nnz)
	res.set("abft.mulvec_c_ns_per_nnz", sum.MulvecCNs/nnz)
	res.set("abft.verify_ns_per_row", sum.VerifyNs/n)
	res.set("abft.verif_over_spmv", (sum.MulvecCNs+sum.VerifyNs)/sum.SpmvNs)
	res.set("abft.mulvec_flops_per_call", float64(sum.MulvecFlops)/k)
	res.set("abft.verify_flops_per_call", float64(sum.VerifyFlops)/k)
	res.set("abft.encode_ms", sum.EncodeMs/k)

	// Dispatch cost of the pool alone: one chunk per worker, no work.
	bounds := make([]int, pl.Workers()+1)
	res.set("pool.dispatch_us", timePerCall(l, "pool.dispatch", "empty", func() { pl.RunRanges(bounds, func(int, int) {}) })/1e3)

	res.Notes = append(res.Notes, fmt.Sprintf(
		"kernel probes on a pool of %d workers: largest computed SpMV working set %.0f KiB, last-level cache %s; "+
			"flops and bytes are computed from array sizes, and no bandwidth or roofline ratio is claimed",
		pl.Workers(), sum.WorkingSetKiB, res.Fingerprint.CacheSize))
}
