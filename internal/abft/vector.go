package abft

import (
	"math"

	"repro/internal/checksum"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// VectorGuard is the reliable two-row checksum shadow of a solver vector.
// It generalises the paper's protection of the SpMxV input x (auxiliary
// copy x′ plus checksum c_x) uniformly to the other iteration vectors
// (r and x in CG): the guard is refreshed — in reliable mode, as the paper
// assumes for all checksum operations — whenever the vector is rewritten by
// a verified operation, and checked at each verification point. A single
// memory fault between refresh and check is detected (Detect mode) or
// located and repaired in place (DetectCorrect mode).
type VectorGuard struct {
	ref  checksum.Vector
	mode Mode

	pair guardPair // CheckPair's state, kept on the first guard of the pair
}

// NewGuard captures the checksum of v, assumed fault-free at this moment.
func NewGuard(v []float64, mode Mode) *VectorGuard {
	return &VectorGuard{ref: checksum.NewVector(v), mode: mode}
}

// Refresh re-captures the checksum after a verified write of v.
func (g *VectorGuard) Refresh(v []float64) { g.ref = checksum.NewVector(v) }

// RefreshSums is Refresh for a writer that already has checksum.Sums of
// the vector it wrote, such as a TMR vote (tmr.Executor), so the refresh
// costs no pass over the vector.
func (g *VectorGuard) RefreshSums(sums checksum.Vector) { g.ref = sums }

// Reset re-arms the guard over a new vector and mode, as a fresh NewGuard
// would (workspace reuse).
func (g *VectorGuard) Reset(v []float64, mode Mode) {
	g.ref = checksum.NewVector(v)
	g.mode = mode
}

// Ref returns the current reference checksum (used by Protected.Verify for
// the SpMxV input).
func (g *VectorGuard) Ref() checksum.Vector { return g.ref }

// Check verifies v against the reference. In DetectCorrect mode a single
// corrupted entry is located from the defect ratio and repaired in place
// (including Inf/NaN poisoning, reconstructed from the first checksum row).
func (g *VectorGuard) Check(v []float64) Outcome {
	d1, d2, t1, t2 := g.defects(v)
	bad := exceeds(d1, t1) || (g.mode == DetectCorrect && exceeds(d2, t2))
	if !bad {
		return Outcome{}
	}
	if g.mode == Detect {
		return Outcome{Detected: true, Class: ClassX}
	}
	return g.correct(v, d1, d2)
}

// defects returns the reference defects of v and their rounding
// tolerances from one pass over v: the weighted sums accumulate in
// checksum.Sums order and the absolute masses in
// checksum.VectorTolerance order, so the four values are bitwise those of
// Defect followed by VectorTolerance.
func (g *VectorGuard) defects(v []float64) (d1, d2, t1, t2 float64) {
	var s1, s2, a1, a2 float64
	for i, x := range v {
		w := float64(i + 1)
		s1 += x
		s2 += w * x
		ax := math.Abs(x)
		a1 += ax
		a2 += w * ax
	}
	gm := 2 * checksum.Gamma(len(v))
	return g.ref.S1 - s1, g.ref.S2 - s2, gm * a1, gm * a2
}

// CheckPair checks v against g and w against h — the two guard checks
// that precede a protected product — as two concurrent tasks on pl when
// sparse.UsePool allows it, inline otherwise. The checks share nothing, so
// each outcome (and any in-place repair) is exactly that of its own
// Check. g keeps the pair's dispatch state, so g must not be checked by
// two CheckPair calls at once.
func (g *VectorGuard) CheckPair(pl *pool.Pool, v []float64, h *VectorGuard, w []float64) (Outcome, Outcome) {
	gp := &g.pair
	gp.g, gp.v = [2]*VectorGuard{g, h}, [2][]float64{v, w}
	if gp.bound != gp {
		gp.body, gp.bound = gp.run, gp
	}
	if sparse.UsePool(pl, len(v)) {
		pl.Run(2, 1, gp.body)
	} else {
		gp.run(0, 2)
	}
	gp.g, gp.v = [2]*VectorGuard{}, [2][]float64{}
	return gp.out[0], gp.out[1]
}

// guardPair is CheckPair's dispatch state, with the pool body bound once
// so a pooled pair check allocates nothing.
type guardPair struct {
	g     [2]*VectorGuard
	v     [2][]float64
	out   [2]Outcome
	body  func(lo, hi int)
	bound *guardPair // the pair body is bound to; a copied guard rebinds
}

func (gp *guardPair) run(lo, hi int) {
	for t := lo; t < hi; t++ {
		gp.out[t] = gp.g[t].Check(gp.v[t])
	}
}

func (g *VectorGuard) correct(v []float64, d1, d2 float64) Outcome {
	fail := Outcome{Detected: true, Class: ClassMultiple}

	d := -1
	if !finite(d1) || !finite(d2) {
		// A poisoned entry (Inf/NaN) cannot be located from the ratio; scan.
		d = suspectIndex(v)
	} else {
		if d1 == 0 {
			return fail
		}
		pos := d2 / d1 // (d+1) for a single error at index d
		r := math.Round(pos)
		if math.Abs(pos-r) > math.Max(1e-8*math.Abs(pos), 0.05) {
			return fail
		}
		d = int(r) - 1
	}
	if d < 0 || d >= len(v) {
		return fail
	}
	// Reconstruct the original entry from the first checksum row by
	// exclusion. This is exact to within Σ|vᵢ| rounding regardless of the
	// corruption magnitude; the naive repair v[d] += d1 loses the original
	// value entirely when the corruption delta dwarfs it (a high exponent
	// bit flip turns an O(1) entry into O(1e19): the ulp of the delta is
	// then larger than the value being restored).
	var rest float64
	for i, x := range v {
		if i != d {
			rest += x
		}
	}
	if !finite(rest) {
		return fail
	}
	v[d] = g.ref.S1 - rest
	return g.recheck(v)
}

func (g *VectorGuard) recheck(v []float64) Outcome {
	d1, d2, t1, t2 := g.defects(v)
	if exceeds(d1, t1) || exceeds(d2, t2) {
		return Outcome{Detected: true, Class: ClassMultiple}
	}
	return Outcome{Detected: true, Corrected: true, Class: ClassX}
}

// FlopsCheck returns the per-check flop cost of a guard over a length-n
// vector: the two weighted sums plus the tolerance pass.
func FlopsCheck(mode Mode, n int) int64 {
	rows := int64(1)
	if mode == DetectCorrect {
		rows = 2
	}
	return rows * 4 * int64(n)
}

// FlopsRefresh returns the flop cost of refreshing a guard.
func FlopsRefresh(n int) int64 { return 3 * int64(n) }
