package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/precond"
	"repro/internal/sparse"
)

var updateDrivers = flag.Bool("update-drivers", false, "rewrite testdata/drivers_golden.json")

// driverCase is one pinned solve of the drivers golden file.
type driverCase struct {
	name     string
	method   string // "cg", "pcg" or "bicgstab"
	scheme   Scheme
	a        *sparse.CSR
	seed     int64 // right-hand side and injector seed
	alpha    float64
	maxIters int
}

// driverRecord is what the golden file pins for one solve: the hash of the
// OnIteration (it, ρ) stream, the hash of the OnDetection episodes, whether
// the solve reported an error (its text is free to change) and every Stats
// field, floats as their IEEE-754 bits.
type driverRecord struct {
	Name   string            `json:"name"`
	Hash   string            `json:"hash"`
	Events string            `json:"events"`
	Err    bool              `json:"err"`
	Stats  map[string]string `json:"stats"`
}

// trajectory accumulates the FNV-1a hashes a record pins.
type trajectory struct {
	iters, events hash.Hash64
}

func newTrajectory() *trajectory {
	return &trajectory{iters: fnv.New64a(), events: fnv.New64a()}
}

func put(h hash.Hash64, words ...uint64) {
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
}

func (tr *trajectory) onIter(it int, rho float64) {
	put(tr.iters, uint64(it), math.Float64bits(rho))
}

func (tr *trajectory) onDetect(ev DetectionEvent) {
	rb := uint64(0)
	if ev.RolledBack {
		rb = 1
	}
	put(tr.events, uint64(ev.Iteration), uint64(ev.Detections), uint64(ev.Corrections), rb)
}

func (tr *trajectory) record(name string, st Stats, err error) driverRecord {
	rec := driverRecord{
		Name:   name,
		Hash:   fmt.Sprintf("fnv1a:%016x", tr.iters.Sum64()),
		Events: fmt.Sprintf("fnv1a:%016x", tr.events.Sum64()),
		Err:    err != nil,
		Stats:  map[string]string{},
	}
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Float64 {
			rec.Stats[v.Type().Field(i).Name] = fmt.Sprintf("%016x", math.Float64bits(f.Float()))
		} else {
			rec.Stats[v.Type().Field(i).Name] = fmt.Sprint(f.Interface())
		}
	}
	return rec
}

func driverCases() []driverCase {
	mats := []struct {
		label string
		a     *sparse.CSR
	}{
		{"poisson2d:18x18", sparse.Poisson2D(18, 18)},
		{"randomspd:240", sparse.RandomSPD(sparse.RandomSPDOptions{N: 240, Density: 0.04, DiagShift: 0.3, Seed: 5})},
	}
	methods := []struct {
		method  string
		schemes []Scheme
	}{
		{"cg", Schemes},
		{"pcg", Schemes},
		{"bicgstab", []Scheme{ABFTDetection, ABFTCorrection}},
	}
	var cases []driverCase
	for _, m := range mats {
		for _, me := range methods {
			for _, sc := range me.schemes {
				for _, alpha := range []float64{0, 1.0 / 16} {
					for seed := int64(1); seed <= 3; seed++ {
						cases = append(cases, driverCase{
							name:   fmt.Sprintf("%s/%s/%v/%g/%d", m.label, me.method, sc, alpha, seed),
							method: me.method, scheme: sc, a: m.a, seed: seed, alpha: alpha,
						})
					}
				}
			}
		}
	}
	// Stress cases: fault rates far above the paper's, with small budgets.
	// Between them they escalate rollbacks to the initial state, fail
	// convergence confirmations (CG and PCG), abort on both iteration
	// budgets and charge PCG forward corrections of both products.
	stress := mats[1]
	for _, c := range []struct {
		method   string
		scheme   Scheme
		alpha    float64
		seed     int64
		maxIters int
	}{
		{"cg", ABFTCorrection, 2, 1, 60},
		{"cg", OnlineDetection, 2, 2, 100},
		{"pcg", OnlineDetection, 0.25, 4, 30},
		{"pcg", OnlineDetection, 2, 1, 60},
		{"pcg", ABFTDetection, 3, 4, 30},
		{"pcg", ABFTCorrection, 0.25, 2, 100},
		{"bicgstab", ABFTDetection, 2, 4, 30},
		{"bicgstab", ABFTDetection, 3, 1, 30},
		{"bicgstab", ABFTCorrection, 3, 3, 30},
	} {
		cases = append(cases, driverCase{
			name:   fmt.Sprintf("stress/%s/%s/%v/%g/%d/max%d", stress.label, c.method, c.scheme, c.alpha, c.seed, c.maxIters),
			method: c.method, scheme: c.scheme, a: stress.a, seed: c.seed, alpha: c.alpha, maxIters: c.maxIters,
		})
	}
	return cases
}

// run solves the case with a fresh injector, on ws (nil = no workspace).
func (c driverCase) run(t *testing.T, ws *Workspace) driverRecord {
	t.Helper()
	b, _ := rhsFor(c.a, c.seed)
	var inj *fault.Injector
	if c.alpha > 0 {
		inj = fault.New(fault.Config{Alpha: c.alpha, Seed: c.seed})
	}
	tr := newTrajectory()
	var st Stats
	var err error
	switch c.method {
	case "cg":
		_, st, err = Solve(c.a, b, Config{
			Scheme: c.scheme, Tol: 1e-9, MaxIters: c.maxIters, Injector: inj,
			OnIteration: tr.onIter, OnDetection: tr.onDetect, Ws: ws,
		})
	case "pcg":
		m, perr := precond.Jacobi(c.a)
		if perr != nil {
			t.Fatal(perr)
		}
		_, st, err = SolvePCG(c.a, m, b, Config{
			Scheme: c.scheme, Tol: 1e-9, MaxIters: c.maxIters, Injector: inj,
			OnIteration: tr.onIter, OnDetection: tr.onDetect, Ws: ws,
		})
	case "bicgstab":
		_, st, err = SolveBiCGstab(c.a, b, Config{
			Scheme: c.scheme, Tol: 1e-9, MaxIters: c.maxIters, Injector: inj,
			OnIteration: tr.onIter, OnDetection: tr.onDetect, Ws: ws,
		})
	default:
		t.Fatalf("unknown method %q", c.method)
	}
	return tr.record(c.name, st, err)
}

// blockRecords solves three right-hand sides with SolveBlock and returns
// one record per lane.
func blockRecords(t *testing.T, ws *BlockWorkspace) []driverRecord {
	t.Helper()
	a := sparse.Poisson2D(18, 18)
	bs := make([][]float64, 3)
	trs := make([]*trajectory, 3)
	for j := range bs {
		bs[j], _ = rhsFor(a, int64(j+1))
		trs[j] = newTrajectory()
	}
	sts := make([]Stats, 3)
	errs := make([]error, 3)
	if _, err := SolveBlock(a, bs, BlockConfig{
		Scheme: ABFTCorrection, Tol: 1e-9, Ws: ws,
		OnIteration: func(rhs, it int, rho float64) { trs[rhs].onIter(it, rho) },
	}, sts, errs); err != nil {
		t.Fatal(err)
	}
	recs := make([]driverRecord, 3)
	for j := range recs {
		recs[j] = trs[j].record(fmt.Sprintf("block/poisson2d:18x18/%v/k3/rhs%d", ABFTCorrection, j), sts[j], errs[j])
	}
	return recs
}

// TestDriversGolden pins every driver's trajectory, detection episodes and
// statistics bit for bit: CG and Jacobi-PCG under the three schemes,
// BiCGstab under the two ABFT schemes, fault-free and at α = 1/16 on two
// small matrices and three seeds, one blocked k = 3 solve, and a stress
// case per method and scheme. Each solve also runs on a workspace warmed
// by every previous case and must reproduce its fresh-run record there.
func TestDriversGolden(t *testing.T) {
	var got []driverRecord
	ws := NewWorkspace()
	for _, c := range driverCases() {
		rec := c.run(t, nil)
		if warm := c.run(t, ws); !reflect.DeepEqual(warm, rec) {
			t.Errorf("%s: warm-workspace solve diverged from the fresh solve:\nfresh %+v\nwarm  %+v", c.name, rec, warm)
		}
		got = append(got, rec)
	}
	block := blockRecords(t, nil)
	bw := NewBlockWorkspace()
	for i := 0; i < 2; i++ {
		if warm := blockRecords(t, bw); !reflect.DeepEqual(warm, block) {
			t.Errorf("blocked solve %d on a workspace diverged from the fresh solve", i)
		}
	}
	got = append(got, block...)

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "drivers_golden.json")
	if *updateDrivers {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-drivers to create): %v", err)
	}
	if bytes.Equal(raw, want) {
		return
	}
	var wantRecs []driverRecord
	if err := json.Unmarshal(want, &wantRecs); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	byName := map[string]driverRecord{}
	for _, r := range wantRecs {
		byName[r.Name] = r
	}
	for _, r := range got {
		if w, ok := byName[r.Name]; !ok {
			t.Errorf("%s: not in the golden file", r.Name)
		} else if !reflect.DeepEqual(r, w) {
			t.Errorf("%s diverged from the golden file:\ngot  %+v\nwant %+v", r.Name, r, w)
		}
	}
	if len(got) != len(wantRecs) {
		t.Errorf("%d records, golden file has %d", len(got), len(wantRecs))
	}
	if !t.Failed() {
		t.Errorf("%s differs from the records in layout only; regenerate it with -update-drivers", path)
	}
}
