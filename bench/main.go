// Command bench is the repository's benchmark. One invocation runs one
// workload (or all of them) against the real system and prints every
// end-to-end metric by name, with its unit and sample count, then one
// JSON result object as its last line of output.
//
// Usage (from the repository root; run.sh builds this program and the
// daemons first):
//
//	bash bench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//	bash bench/run.sh compare --base DIR --head DIR [--benchmark BENCHMARK.json]
//
// The served workloads start montsysd/montsyslb subprocesses from -bin
// on fresh loopback ports and drive them closed-loop from this process;
// paper-sim and paper-gates run the paper's simulators in-process. Every
// answer is checked against a math/big result computed during setup,
// and every simulated cycle count against the paper's formulas: any
// mismatch ends the run with a nonzero exit.
//
// -trace 1 runs the same workload with tracing on part of the time,
// then a ladder of one timing step per layer, and prints the per-layer
// metrics instead of the end-to-end ones. See README.md for the
// catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// errMismatch marks a wrong answer or a wrong cycle count: the run stops
// at once and exits nonzero.
var errMismatch = errors.New("output mismatch")

// metric is one measured value. Samples is how many observations it
// rests on (ops for a latency, launches for setup_s, ...).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

// result is everything one workload run measured. -out writes it whole;
// compare reads it back.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Start     time.Time         `json:"start"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Reference is the median rate per caller of the reference kernel
	// during the window (0 in traced runs): the timing metrics are
	// scaled from it to refNominal.
	Reference float64 `json:"reference"`
}

// options are the settings one run uses.
type options struct {
	bin       string        // directory holding montsysd and montsyslb
	spans     string        // directory traced runs write span files to
	seed      int64         // input seed
	window    time.Duration // timed window
	warmup    time.Duration // untimed closed-loop warm-up before the window
	trace     bool          // traced run: per-layer metrics instead of end-to-end
	setups    int           // fleet launches per run; setup_s is their median
	minP99    int           // samples a p99 needs
	rung      time.Duration // time each ladder rung runs for
	traceRate float64       // share of requests a traced run samples through the trace plane
}

// workload is one named set of inputs and the code that drives them.
type workload struct {
	name string
	run  func(r *runner) (*result, error)
}

var workloads = []workload{
	{"modexp-hot", runModexpHot},
	{"rsa-sign", runRSASign},
	{"modexp-zipf-lb", runModexpZipfLB},
	{"paper-sim", runPaperSim},
	{"paper-gates", runPaperGates},
}

// perWorkloadLimit bounds one workload run: a run that is still going
// after it kills its daemons and exits nonzero.
const perWorkloadLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all | "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 16, "timed window per workload, in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	bin := fs.String("bin", "", "directory holding the montsysd and montsyslb binaries (required)")
	spans := fs.String("spans", ".bench_build/spans", "directory traced runs write span files to")
	out := fs.String("out", "", "also write the full result(s) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *bin == "" {
		fmt.Fprintln(stderr, "bench: usage: bench -bin DIR [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want all | %s)\n", *name, workloadNames())
		return 2
	}
	o := options{
		bin: *bin, spans: *spans, seed: *seed, trace: *trace == 1,
		window:    time.Duration(*seconds * float64(time.Second)),
		warmup:    3 * time.Second,
		setups:    9,
		minP99:    1000,
		rung:      400 * time.Millisecond,
		traceRate: 0.01,
	}

	r := newRunner(o, stderr)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-stop
		r.abort(fmt.Sprintf("interrupted by %v", s))
	}()

	var results []*result
	code := 0
	for _, w := range todo {
		res, err := r.runWorkload(w)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			if errors.Is(err, errMismatch) {
				res = &result{Workload: w.name, Metrics: map[string]metric{}}
				if err := printLast(stdout, []*result{res}); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
				}
			}
			return code
		}
		printTable(stdout, res)
		results = append(results, res)
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printLast(stdout, results); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// printTable prints one line per metric: name, value, unit, samples.
func printTable(w io.Writer, res *result) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed, res.Correct)
	if res.Reference > 0 {
		fmt.Fprintf(w, "# times scaled to a reference rate of %d/s per caller; measured %.0f/s\n",
			refNominal, res.Reference)
	}
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-16s %-34s %14.6g %-6s n=%d\n", res.Workload, k, m.Value, m.Unit, m.Samples)
	}
}

// printLast prints the one-line JSON result. For a single workload the
// metric names are the benchmark's; for several they are prefixed with
// the workload name.
func printLast(w io.Writer, results []*result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(results) > 1 {
				k = res.Workload + "." + k
			}
			line.Metrics[k] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func writeResults(path string, results []*result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
