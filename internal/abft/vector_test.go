package abft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitflip"
	"repro/internal/checksum"
)

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 5
	}
	return v
}

func TestGuardCleanPasses(t *testing.T) {
	v := randVec(100, 1)
	g := NewGuard(v, DetectCorrect)
	if out := g.Check(v); out.Detected {
		t.Fatalf("false positive: %+v", out)
	}
}

func TestGuardDetectsSingleError(t *testing.T) {
	v := randVec(100, 2)
	g := NewGuard(v, Detect)
	v[37] = bitflip.Float64(v[37], 60)
	out := g.Check(v)
	if !out.Detected || out.Corrected {
		t.Fatalf("detect mode: %+v", out)
	}
}

func TestGuardCorrectsSingleError(t *testing.T) {
	for _, bit := range []uint{40, 52, 58, 62, 63} {
		v := randVec(100, 3)
		orig := append([]float64(nil), v...)
		g := NewGuard(v, DetectCorrect)
		v[71] = bitflip.Float64(v[71], bit)
		out := g.Check(v)
		if !out.Detected || !out.Corrected {
			t.Fatalf("bit %d: %+v", bit, out)
		}
		if d := math.Abs(v[71] - orig[71]); d > 1e-9*(1+math.Abs(orig[71])) {
			t.Fatalf("bit %d: repaired value %v, want %v", bit, v[71], orig[71])
		}
	}
}

func TestGuardCorrectsNaN(t *testing.T) {
	v := randVec(64, 4)
	orig := v[10]
	g := NewGuard(v, DetectCorrect)
	v[10] = math.NaN()
	out := g.Check(v)
	if !out.Corrected {
		t.Fatalf("NaN not corrected: %+v", out)
	}
	if math.Abs(v[10]-orig) > 1e-9*(1+math.Abs(orig)) {
		t.Fatalf("repaired %v, want %v", v[10], orig)
	}
}

func TestGuardCorrectsInf(t *testing.T) {
	v := randVec(64, 5)
	orig := v[0]
	g := NewGuard(v, DetectCorrect)
	v[0] = math.Inf(-1)
	if out := g.Check(v); !out.Corrected {
		t.Fatalf("Inf not corrected: %+v", out)
	}
	if math.Abs(v[0]-orig) > 1e-9*(1+math.Abs(orig)) {
		t.Fatal("bad repair")
	}
}

func TestGuardDoubleErrorUncorrectable(t *testing.T) {
	v := randVec(100, 6)
	g := NewGuard(v, DetectCorrect)
	v[3] += 7
	v[90] -= 2
	out := g.Check(v)
	if !out.Detected || out.Corrected {
		t.Fatalf("double error: %+v", out)
	}
}

func TestGuardDoubleNaNUncorrectable(t *testing.T) {
	v := randVec(50, 7)
	g := NewGuard(v, DetectCorrect)
	v[1] = math.NaN()
	v[2] = math.NaN()
	out := g.Check(v)
	if !out.Detected || out.Corrected {
		t.Fatalf("double NaN: %+v", out)
	}
}

func TestGuardRefresh(t *testing.T) {
	v := randVec(50, 8)
	g := NewGuard(v, DetectCorrect)
	v[9] = 123 // legitimate rewrite
	g.Refresh(v)
	if out := g.Check(v); out.Detected {
		t.Fatalf("refresh did not absorb the write: %+v", out)
	}
}

// Property: any significant single-entry corruption of a random vector is
// corrected back to the original value (within rounding).
func TestGuardCorrectionProperty(t *testing.T) {
	f := func(seed int64, idxRaw uint16, delta float64) bool {
		if delta != delta || math.IsInf(delta, 0) {
			return true
		}
		n := 20 + int(idxRaw)%80
		idx := int(idxRaw) % n
		v := randVec(n, seed)
		// Significant relative to the tolerance: scale the perturbation.
		if math.Abs(delta) < 1e-3 {
			delta = math.Copysign(1e-3+math.Abs(delta), delta+1)
		}
		orig := v[idx]
		g := NewGuard(v, DetectCorrect)
		v[idx] += delta
		out := g.Check(v)
		if !out.Corrected {
			return false
		}
		return math.Abs(v[idx]-orig) <= 1e-6*(1+math.Abs(orig))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGuardFlops(t *testing.T) {
	if FlopsCheck(Detect, 100) >= FlopsCheck(DetectCorrect, 100) {
		t.Fatal("detect check must be cheaper")
	}
	if FlopsRefresh(100) <= 0 {
		t.Fatal("refresh flops must be positive")
	}
}

// TestGuardFusedDefectsBitwise pins the one-pass guard check to the two
// passes it replaced: Defect and VectorTolerance, bit for bit, on clean,
// perturbed and poisoned vectors of the paper suite's lengths at scale 8.
func TestGuardFusedDefectsBitwise(t *testing.T) {
	for _, n := range []int{1, 7, 2500, 2881, 3800, 4555, 5000, 6120, 7500, 8128, 9344} {
		v := randVec(n, int64(n))
		g := NewGuard(v, DetectCorrect)
		for _, strike := range []func(w []float64){
			func([]float64) {},
			func(w []float64) { w[n/2] += 1e-3 },
			func(w []float64) { w[n-1] = -w[n-1] * 1e12 },
			func(w []float64) { w[n/3] = math.NaN() },
			func(w []float64) { w[0] = math.Inf(-1) },
		} {
			w := append([]float64(nil), v...)
			strike(w)
			d1, d2, t1, t2 := g.defects(w)
			e1, e2 := g.ref.Defect(w)
			u1, u2 := checksum.VectorTolerance(w)
			for i, pair := range [][2]float64{{d1, e1}, {d2, e2}, {t1, u1}, {t2, u2}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Errorf("n=%d: fused value %d = %v, two-pass %v", n, i, pair[0], pair[1])
				}
			}
		}
	}
}
