package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
)

// recordSchema identifies the layout of the result record files.
const recordSchema = 1

// manifestPath is the benchmark manifest, read from the repository root
// the benchmark runs in. Its metric lists decide which metrics a run
// prints, in which order and with which unit.
const manifestPath = "BENCHMARK.json"

// outDir holds result records and span dumps, under the build directory
// the run wrapper already uses.
const outDir = ".bench_build/perfbench"

// Exit codes: a run whose outputs failed a correctness check exits with
// exitIncorrect after printing its result; anything that prevents a result
// exits with exitError and prints none.
const (
	exitIncorrect = 1
	exitError     = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 30, "measurement budget of the run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	compare := fs.Bool("compare", false, "compare the two result records named as arguments")
	writeGolden := fs.String("write-golden", "", "campaign only: write the per-cell outcomes of this seed to the named file")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two result record files")
			return exitError
		}
		return compareRecords(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return exitError
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return exitError
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return exitError
	}

	cfg := runConfig{
		workload:    *workload,
		seed:        *seed,
		budget:      time.Duration(*seconds) * time.Second,
		traced:      *traceFlag == 1,
		writeGolden: *writeGolden,
	}
	res := newResult(cfg)
	if err := wl(cfg, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return exitError
	}
	res.finish()

	defs := man.EndToEnd
	if cfg.traced {
		defs = man.PerLayer
	}
	line, err := res.resultLine(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return exitError
	}
	path, err := res.save()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return exitError
	}
	res.printSummary(stdout, defs, path)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return exitIncorrect
	}
	return 0
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload    string
	seed        int64
	budget      time.Duration
	traced      bool
	writeGolden string
}

// workloads maps each workload name to the function that runs it: it sets
// up, runs for the budget, checks every output and fills the result.
var workloads = map[string]func(runConfig, *result) error{
	"campaign":    runCampaign,
	"serve-hot":   runServe,
	"serve-churn": runServe,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metricDef is one metric entry of the manifest.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifest is the part of BENCHMARK.json the benchmark reads.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("reading the manifest (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("decoding %s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return m, fmt.Errorf("%s lists no end_to_end or per_layer metrics", path)
	}
	return m, nil
}

// result accumulates one run: its outcome counts, correctness verdict,
// every computed metric and the phase accounting.
type result struct {
	Schema      int          `json:"schema"`
	Workload    string       `json:"workload"`
	Seed        int64        `json:"seed"`
	Seconds     float64      `json:"seconds"`
	Traced      bool         `json:"traced"`
	Fingerprint fingerprint  `json:"fingerprint"`
	Correct     bool         `json:"correct"`
	Attempted   int          `json:"attempted"`
	Failed      int          `json:"failed"`
	Violations  []string     `json:"violations,omitempty"`
	Errors      []string     `json:"errors,omitempty"`
	Valid       bool         `json:"valid"`
	Invalid     []string     `json:"invalid_reasons,omitempty"`
	Phases      []phaseCount `json:"phases,omitempty"`
	// SetupSeconds holds each set-up repetition; setup_s is their median.
	SetupSeconds []float64          `json:"setup_seconds"`
	Metrics      map[string]float64 `json:"metrics"`
	// NotExercised names the per-layer metrics this workload does not
	// drive; they are reported as 0.
	NotExercised []string   `json:"not_exercised,omitempty"`
	Probes       []probeRow `json:"probes,omitempty"`
	// Notes carries free-form facts a reader needs to interpret the
	// numbers (sizes against caches, rates, limits).
	Notes []string `json:"notes,omitempty"`

	spans *spanLog
	mu    sync.Mutex // guards Correct, Violations and Errors
	// steal0 and cpu0 are the host's CPU ticks when the run started.
	steal0, cpu0 float64
}

// phaseCount reports the requests one phase sent, and how they ended.
type phaseCount struct {
	Name      string  `json:"name"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
}

// maxViolations caps the violation messages kept in a record.
const maxViolations = 20

func newResult(cfg runConfig) *result {
	steal0, cpu0 := hostCPU()
	return &result{
		steal0:      steal0,
		cpu0:        cpu0,
		Schema:      recordSchema,
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Seconds:     cfg.budget.Seconds(),
		Traced:      cfg.traced,
		Fingerprint: takeFingerprint(cfg),
		Correct:     true,
		Valid:       true,
		Metrics:     map[string]float64{},
		spans:       newSpanLog(cfg.traced),
	}
}

// violate records a wrong output: the run reports correct=false and the
// command exits nonzero.
func (r *result) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Correct = false
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// noteError keeps the first few operation errors (transport, HTTP, digest)
// for the record; the operation counts as failed.
func (r *result) noteError(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Errors) < maxViolations {
		r.Errors = append(r.Errors, err.Error())
	}
}

// setLatencies sets the latency percentiles of a sample in ms.
func (r *result) setLatencies(ms []float64) {
	sum := api.SummarizeLatencies(append([]float64(nil), ms...))
	r.set("lat_p50_ms", sum.P50Ms)
	r.set("lat_p90_ms", sum.P90Ms)
	r.set("bench.lat_p99_ms", sum.P99Ms)
}

// invalidate marks the run's measurement as not trustworthy (the load
// generator could not keep its schedule); the numbers are still reported.
func (r *result) invalidate(format string, args ...any) {
	r.Valid = false
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

// finish adds the process-wide metrics every workload reports.
func (r *result) finish() {
	r.set("mem_peak_mb", peakRSSMiB())
	steal, cpu := hostCPU()
	r.set("bench.host_steal_share", ratio(steal-r.steal0, cpu-r.cpu0))
	if r.Attempted > 0 {
		r.set("ok_share", 1-float64(r.Failed)/float64(r.Attempted))
		r.set("bench.fail_share", float64(r.Failed)/float64(r.Attempted))
	}
	sort.Strings(r.NotExercised)
}

// resultLine renders the final output line: the metrics the manifest lists
// for this kind of run, each with its unit. A listed metric the run did not
// compute is an error, so the manifest and the code cannot drift apart.
func (r *result) resultLine(defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: metrics listed in %s but not computed: %v", r.Workload, manifestPath, missing)
	}
	if out.Attempted < 1 {
		return nil, errors.New("the run attempted no operation")
	}
	return json.Marshal(out)
}

// save writes the full record (fingerprint, phases, every metric) and, for
// a traced run, the span log.
func (r *result) save() (string, error) {
	if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
		return "", err
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, b2i(r.Traced))
	path := filepath.Join(outDir, "results", tag+".json")
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return "", err
	}
	if r.Traced {
		if err := r.spans.write(filepath.Join(outDir, "traces", tag+".json")); err != nil {
			return "", err
		}
	}
	return path, nil
}

// printSummary prints the run's metrics by name and unit, its phases and
// its validity, ahead of the machine-readable result line.
func (r *result) printSummary(w io.Writer, defs []metricDef, path string) {
	fp := r.Fingerprint
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v  cpu=%q nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Traced, fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-8s sent=%d succeeded=%d failed=%d in %.2fs\n", p.Name, p.Sent, p.Succeeded, p.Failed, p.Seconds)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if !r.Valid {
		fmt.Fprintf(w, "  INVALID RUN: %v\n", r.Invalid)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	fmt.Fprintf(w, "  record: %s\n", path)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
