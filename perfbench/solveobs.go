package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// schemeTags are the metric-name suffixes of the protected schemes.
var schemeTags = map[string]string{
	"online-detection": "online",
	"abft-detection":   "abft-d",
	"abft-correction":  "abft-c",
}

// schemeTagOrder fixes the order metrics are derived in.
var schemeTagOrder = []string{"online", "abft-d", "abft-c"}

// checkTolFactor bounds the accepted true relative residual at this
// multiple of the solver tolerance: 1e-6, the bar the repository's solver
// tests hold converged solves to and the floor of the resilient solvers'
// own convergence confirmation.
const checkTolFactor = 100

// defaultTol is the harness default relative residual tolerance.
const defaultTol = 1e-8

// solveObs is one observed solve: its identity, wall time, the hook
// timestamps of a traced solve and the solver's statistics.
type solveObs struct {
	matrix string
	scheme string // scheme slug, "unprotected" included
	alpha  float64
	wallNs int64
	iterNs []int64 // OnIteration callback times, relative to the solve start
	detNs  []int64 // OnDetection callback times
	st     core.Stats
}

// trueResidual recomputes ‖b − Ax‖/‖b‖ with the plain sequential kernel on
// the pristine matrix.
func trueResidual(a *sparse.CSR, x, b []float64) float64 {
	ax := make([]float64, a.Rows)
	a.MulVec(ax, x)
	var num, den float64
	for i, bi := range b {
		d := bi - ax[i]
		num += d * d
		den += bi * bi
	}
	if den == 0 {
		den = 1
	}
	return math.Sqrt(num / den)
}

// observer runs solves through harness.SolveWith with the public hooks
// attached: OnIteration feeds the residual-history hash (always) and the
// iteration timestamps (traced runs); OnDetection is armed only when
// tracing, as the hook costs an allocation per episode.
type observer struct {
	log  *spanLog
	hist []float64
}

// solve runs one solve and returns its observation, solution and
// residual-history hash. The solution may alias the workspace.
func (o *observer) solve(label string, a *sparse.CSR, b []float64, sc harness.Scenario, seed int64, opt harness.SolveOpts) (solveObs, []float64, uint64, error) {
	ob := solveObs{matrix: label, scheme: sc.Scheme, alpha: sc.Alpha}
	traced := o.log.on.Load()
	o.hist = o.hist[:0]
	var start time.Time
	opt.OnIteration = func(_ int, rho float64) {
		o.hist = append(o.hist, rho)
		if traced {
			ob.iterNs = append(ob.iterNs, time.Since(start).Nanoseconds())
		}
	}
	if traced {
		opt.OnDetection = func(core.DetectionEvent) {
			ob.detNs = append(ob.detNs, time.Since(start).Nanoseconds())
		}
	}
	t0 := o.log.now()
	start = time.Now()
	x, st, err := harness.SolveWith(a, b, sc, seed, opt)
	ob.wallNs = time.Since(start).Nanoseconds()
	ob.st = st
	if traced {
		id := o.log.add("harness.solve", "", fmt.Sprintf("%s/%s/%g", label, sc.Scheme, sc.Alpha), t0, t0+ob.wallNs, 0)
		for _, t := range ob.iterNs {
			o.log.add("core.iter", "", "", t0+t, t0+t, id)
		}
		for _, t := range ob.detNs {
			o.log.add("core.detect", "", "", t0+t, t0+t, id)
		}
	}
	return ob, x, harness.HashBits(o.hist), err
}

// gapsUs returns the gaps between consecutive iteration callbacks, in µs.
func gapsUs(iterNs []int64) []float64 {
	if len(iterNs) < 2 {
		return nil
	}
	g := make([]float64, 0, len(iterNs)-1)
	for i := 1; i < len(iterNs); i++ {
		g = append(g, float64(iterNs[i]-iterNs[i-1])/1e3)
	}
	return g
}

// setCoreMetrics derives the core and solver layer metrics from observed
// solves. Timing metrics need traced observations; the counts are sums of
// core.Stats over the distinct solves given.
func (r *result) setCoreMetrics(obs []solveObs) {
	type agg struct {
		gaps          []float64
		recoveryUs    []float64
		det, corr, rb int64
		ckpt, faults  int64
		total, useful int64
		wallByMatrix  map[string]int64
		solves        int
	}
	aggs := map[string]*agg{}
	get := func(tag string) *agg {
		if aggs[tag] == nil {
			aggs[tag] = &agg{wallByMatrix: map[string]int64{}}
		}
		return aggs[tag]
	}
	for _, ob := range obs {
		tag := "unprotected"
		if t, ok := schemeTags[ob.scheme]; ok {
			tag = t
		}
		g := get(tag)
		g.solves++
		gaps := gapsUs(ob.iterNs)
		if ob.alpha == 0 {
			g.gaps = append(g.gaps, gaps...)
			g.wallByMatrix[ob.matrix] += ob.wallNs
		}
		if len(ob.detNs) > 0 && len(gaps) > 0 {
			typical := median(gaps)
			for _, td := range ob.detNs {
				for k := 1; k < len(ob.iterNs); k++ {
					if ob.iterNs[k-1] < td && td <= ob.iterNs[k] {
						g.recoveryUs = append(g.recoveryUs, float64(ob.iterNs[k]-ob.iterNs[k-1])/1e3-typical)
						break
					}
				}
			}
		}
		g.det += ob.st.Detections
		g.corr += ob.st.Corrections
		g.rb += ob.st.Rollbacks
		g.ckpt += ob.st.Checkpoints
		g.faults += ob.st.FaultsInjected
		g.total += ob.st.TotalIterations
		g.useful += int64(ob.st.UsefulIterations)
	}
	base := get("unprotected")
	r.set("solver.iter_us", median(base.gaps))
	var baseWall float64
	var baseN int
	for _, w := range base.wallByMatrix {
		baseWall += float64(w)
		baseN++
	}
	if baseN > 0 {
		r.set("core.protect_base_ms", baseWall/float64(baseN)/1e6)
	} else {
		r.set("core.protect_base_ms", 0)
	}
	for _, tag := range schemeTagOrder {
		g := get(tag)
		r.set("core.iter_us."+tag, median(g.gaps))
		r.set("core.recovery_us."+tag, meanOf(g.recoveryUs))
		var prot, unprot float64
		for m, w := range g.wallByMatrix {
			if bw, ok := base.wallByMatrix[m]; ok {
				prot += float64(w)
				unprot += float64(bw)
			}
		}
		r.set("core.protect_overhead."+tag, ratio(prot, unprot))
		r.set("core.reexec_share."+tag, ratio(float64(g.total-g.useful), float64(g.total)))
		r.set("core.detections."+tag, float64(g.det))
		r.set("core.corrections."+tag, float64(g.corr))
		r.set("core.rollbacks."+tag, float64(g.rb))
		r.set("core.checkpoints."+tag, float64(g.ckpt))
		r.set("core.faults_injected."+tag, float64(g.faults))
		if g.solves == 0 {
			r.NotExercised = append(r.NotExercised, "core.*."+tag)
		}
	}
	c := get("abft-c")
	r.set("core.correct_share", ratio(float64(c.corr), float64(c.det)))
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumOf(xs) / float64(len(xs))
}

// ratio is num/den, or 0 when there is no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
