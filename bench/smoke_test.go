package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// declared returns the metric names BENCHMARK.json declares in section
// (end_to_end or per_layer).
func declared(t *testing.T, section string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def map[string]json.RawMessage
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(def[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// buildDaemons builds montsysd and montsyslb from this checkout.
func buildDaemons(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+"/", "repro/cmd/montsysd", "repro/cmd/montsyslb")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	return dir
}

// Every workload runs for about a second, untraced and traced, checks
// every answer, stops every daemon cleanly and reports exactly the
// metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and runs every workload")
	}
	bin := buildDaemons(t)
	for _, trace := range []bool{false, true} {
		want := declared(t, "end_to_end")
		if trace {
			want = declared(t, "per_layer")
		}
		for _, w := range workloads {
			o := options{bin: bin, spans: t.TempDir(), seed: 7, trace: trace,
				window: time.Second, warmup: 200 * time.Millisecond, setups: 2,
				minP99: 1, rung: 20 * time.Millisecond, traceRate: 1}
			r := newRunner(o, io.Discard)
			res, err := r.runWorkload(w)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if got := sortedKeys(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (trace %v) reports %v,\nBENCHMARK.json declares %v", w.name, trace, got, want)
			}
			for k, m := range res.Metrics {
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", w.name, k, m.Value)
				}
			}
			if len(r.procs) != 0 {
				t.Errorf("%s left %d daemons running", w.name, len(r.procs))
			}
			if trace {
				files, _ := filepath.Glob(filepath.Join(o.spans, "*.json"))
				if len(files) == 0 {
					t.Errorf("%s: traced run wrote no span file", w.name)
				}
			}
		}
	}
}

// The last line of output is one JSON object with exactly the keys
// correct, attempted, failed and metrics, each metric a value and unit.
func TestPrintLast(t *testing.T) {
	var b bytes.Buffer
	res := &result{Workload: "w", Correct: true, Attempted: 3, Failed: 1,
		Metrics: map[string]metric{"setup_s": {0.5, "s", 5}}}
	if err := printLast(&b, []*result{res}); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"correct": true, "attempted": 3.0, "failed": 1.0,
		"metrics": map[string]any{"setup_s": map[string]any{"value": 0.5, "unit": "s"}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("last line %s, want %v", b.String(), want)
	}
}

// Started from a directory without the repository, run.sh fails
// without printing a result.
func TestRunScriptNeedsRepository(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bench", "run.sh"), script, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", "modexp-hot")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Error("run.sh succeeded without the repository")
	}
	if stdout.Len() != 0 {
		t.Errorf("run.sh printed %q", stdout.String())
	}
}
