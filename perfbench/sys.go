package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// fingerprint identifies the hardware, toolchain and code a result came
// from. Results whose hardware differs are not comparable.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	CacheSize  string `json:"cpu_cache_size,omitempty"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

// hardware is the part of the fingerprint two compared results must share.
func (f fingerprint) hardware() string {
	return fmt.Sprintf("%s|%s|nproc=%d|gomaxprocs=%d", f.CPUModel, f.CacheSize, f.NProc, f.GOMAXPROCS)
}

func takeFingerprint(cfg runConfig) fingerprint {
	fp := fingerprint{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Workload:   cfg.workload,
		Seed:       cfg.seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				fp.CPUModel = strings.TrimSpace(v)
			case "cache size":
				fp.CacheSize = strings.TrimSpace(v)
			}
			if fp.CPUModel != "unknown" && fp.CacheSize != "" {
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			fp.Commit = rev + dirty
		}
	}
	return fp
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// hostCPU reads the aggregate line of /proc/stat: the ticks the hypervisor
// took from this VM while it had work (steal) and all ticks, user through
// steal.
func hostCPU() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// goSample is a runtime/metrics snapshot; two of them give the allocation
// and GC cost of the operations in between.
type goSample struct {
	allocs, bytes   uint64
	gcCPU, totalCPU float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleGo() goSample {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.bytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[3].Value.Float64()
	}
	return g
}

// plus adds the costs between two samples to g.
func (g goSample) plus(before, after goSample) goSample {
	g.allocs += after.allocs - before.allocs
	g.bytes += after.bytes - before.bytes
	g.gcCPU += after.gcCPU - before.gcCPU
	g.totalCPU += after.totalCPU - before.totalCPU
	return g
}

// setGoMetrics reports allocations and bytes per operation and the GC
// share of CPU time of the costs summed in cost.
func (r *result) setGoMetrics(cost goSample, ops int) {
	if ops < 1 {
		ops = 1
	}
	r.set("go.allocs_per_op", float64(cost.allocs)/float64(ops))
	r.set("go.bytes_per_op", float64(cost.bytes)/float64(ops))
	r.set("go.gc_cpu_share", ratio(cost.gcCPU, cost.totalCPU))
}

// compareRecords prints the metric-by-metric ratio of two result records.
// Records from different hardware are refused: their numbers measure
// different machines, not different code.
func compareRecords(pathA, pathB string, stdout, stderr io.Writer) int {
	type record struct {
		Workload    string             `json:"workload"`
		Traced      bool               `json:"traced"`
		Fingerprint fingerprint        `json:"fingerprint"`
		Metrics     map[string]float64 `json:"metrics"`
	}
	var recs [2]record
	for i, p := range []string{pathA, pathB} {
		raw, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return exitError
		}
		if err := json.Unmarshal(raw, &recs[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench: decoding %s: %v\n", p, err)
			return exitError
		}
	}
	a, b := recs[0], recs[1]
	if ha, hb := a.Fingerprint.hardware(), b.Fingerprint.hardware(); ha != hb {
		fmt.Fprintf(stderr, "perfbench: refusing to compare results from different hardware:\n  %s: %s\n  %s: %s\n", pathA, ha, pathB, hb)
		return exitError
	}
	if a.Workload != b.Workload || a.Traced != b.Traced {
		fmt.Fprintf(stderr, "perfbench: refusing to compare %s (traced=%v) with %s (traced=%v)\n", a.Workload, a.Traced, b.Workload, b.Traced)
		return exitError
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %s (commit %s) -> %s (commit %s)\n", a.Workload, pathA, a.Fingerprint.Commit, pathB, b.Fingerprint.Commit)
	for _, n := range names {
		va, vb := a.Metrics[n], b.Metrics[n]
		ratio := "n/a"
		if va != 0 {
			ratio = fmt.Sprintf("%.4f", vb/va)
		}
		fmt.Fprintf(stdout, "  %-34s %14.6g %14.6g  ratio %s\n", n, va, vb, ratio)
	}
	return 0
}
