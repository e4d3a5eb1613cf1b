package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden result record")

// goldenScenario is the pinned regression scenario: small enough to run in
// milliseconds, faulty enough to exercise every counter.
func goldenScenario() Scenario {
	return Scenario{
		Name:     "golden/cg/abft-correction/poisson2d",
		Matrix:   MatrixSpec{Gen: "poisson2d", N: 225},
		Solver:   "cg",
		Scheme:   "abft-correction",
		Alpha:    1.0 / 32,
		Reps:     2,
		Seed:     5,
		Baseline: true,
	}
}

// TestGoldenResultRecord pins both the JSON schema and the deterministic
// content of a result record. If it fails after an intentional solver or
// schema change, regenerate with:
//
//	go test ./internal/harness -run TestGoldenResultRecord -update
func TestGoldenResultRecord(t *testing.T) {
	res, err := Run(goldenScenario(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResults(&buf, []Result{res.Canonical()}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "result_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(buf.Bytes())) {
		t.Fatalf("result record diverged from golden file (intentional? regenerate with -update):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestGoldenSchemaFields guards the JSON field *set* separately from the
// values, so a renamed or dropped key is reported as a schema break even
// when the golden file was regenerated carelessly.
func TestGoldenSchemaFields(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "result_golden.json"))
	if err != nil {
		t.Fatalf("reading the committed golden file: %v", err)
	}
	var records []map[string]any
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("golden file has %d records, want 1", len(records))
	}
	for _, key := range []string{
		"schema", "scenario", "workers", "matrix", "reps", "converged",
		"failures", "d", "s", "mean_useful_iters", "mean_total_iters",
		"detections", "corrections", "rollbacks", "checkpoints",
		"faults_injected", "mean_sim_time", "ci95_sim_time", "sim_times",
		"max_final_residual", "flops_per_iter", "residual_hash",
		"wall_seconds",
	} {
		if _, ok := records[0][key]; !ok {
			t.Errorf("schema key %q missing from the record", key)
		}
	}
	if int(records[0]["schema"].(float64)) != SchemaVersion {
		t.Errorf("golden schema version %v != %d", records[0]["schema"], SchemaVersion)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	res, err := Run(goldenScenario(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResults(&buf, []Result{res}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Scenario.Name != res.Scenario.Name {
		t.Fatalf("round trip lost the record: %+v", back)
	}
	a, _ := json.Marshal(res.Canonical())
	b, _ := json.Marshal(back[0].Canonical())
	if string(a) != string(b) {
		t.Fatal("round trip changed the canonical record")
	}
	if _, err := ReadResults(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage input must error")
	}
}

func TestMergeShards(t *testing.T) {
	mk := func(name string, mean float64) Result {
		return Result{
			Schema:      SchemaVersion,
			Scenario:    Scenario{Name: name},
			MeanSimTime: mean,
			WallSeconds: mean * 10, // differs per shard; canonical ignores it
		}
	}
	merged, err := Merge(
		[]Result{mk("b", 2), mk("a", 1)},
		[]Result{mk("c", 3), mk("a", 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 {
		t.Fatalf("merged %d records, want 3", len(merged))
	}
	for i, want := range []string{"a", "b", "c"} {
		if merged[i].Scenario.Name != want {
			t.Fatalf("merge order: %v", merged)
		}
	}
	// Same scenario, different deterministic content: conflict.
	if _, err := Merge([]Result{mk("a", 1)}, []Result{mk("a", 99)}); err == nil {
		t.Fatal("conflicting shards must fail to merge")
	}
	// Same scenario, different wall time only: fine (deduplicated).
	r1, r2 := mk("a", 1), mk("a", 1)
	r2.WallSeconds = 1234
	merged, err = Merge([]Result{r1}, []Result{r2})
	if err != nil || len(merged) != 1 {
		t.Fatalf("wall-time-only difference must dedupe: %v, %v", merged, err)
	}
	// Same scenario served by two different shards (a failover): the
	// shard label is provenance, not content — never a merge conflict.
	r1, r2 = mk("a", 1), mk("a", 1)
	r1.Shard, r2.Shard = "s0", "s2"
	merged, err = Merge([]Result{r1}, []Result{r2})
	if err != nil || len(merged) != 1 {
		t.Fatalf("shard-only difference must dedupe: %v, %v", merged, err)
	}
}

func TestHashHistory(t *testing.T) {
	h1 := HashHistory([]float64{1, 2, 3})
	h2 := HashHistory([]float64{1, 2, 3})
	h3 := HashHistory([]float64{1, 2, 4})
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	if h1 == h3 {
		t.Fatal("hash must distinguish histories")
	}
	if !strings.HasPrefix(h1, "fnv1a:") {
		t.Fatalf("hash format: %s", h1)
	}
	if HashHistory(nil) == HashHistory([]float64{0}) {
		t.Fatal("length must be part of the hash")
	}
}
