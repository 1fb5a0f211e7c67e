package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// env is the environment a result was measured in. compare refuses to
// set results from different machines or toolchains side by side.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func currentEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(strings.NewReader(string(b)))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The go command stamps the commit when it builds inside a git
	// checkout; a plain source tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Dirty = s.Value == "true"
			}
		}
	}
	return e
}

// sameMachine reports how two environments differ in anything but the
// code measured.
func (e env) sameMachine(o env) error {
	if e.CPU != o.CPU || e.NProc != o.NProc || e.GOMAXPROCS != o.GOMAXPROCS || e.GoVersion != o.GoVersion {
		return fmt.Errorf("environments differ: %+v vs %+v", e, o)
	}
	return nil
}

// benchDef is the part of BENCHMARK.json compare needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is compare's judgement of one metric on one workload.
type verdict struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	wins, pairs             int
	label                   string
}

// Minimum paired runs per workload, and the share of pairs the change
// must win, before compare calls anything a gain.
const (
	minPairs = 10
	winShare = 0.9
)

// judge applies the gain and no-regression rules to paired runs of the
// parent (base) and the change (head); base[i] and head[i] ran as a
// pair. A gain needs the change to win at least nine pairs in ten (ties
// count for neither side) and the medians to differ by more than the
// parent's quartile spread. Where that spread exceeds the bound the
// metric is unresolved, unless every run of the change beat every run
// of the parent; otherwise a change whose median is worse by more than
// the bound is a regression.
func judge(base, head []float64, lowerBetter bool, bound float64) verdict {
	v := verdict{pairs: len(base), baseMed: median(append([]float64(nil), base...)),
		headMed: median(append([]float64(nil), head...))}
	v.baseQ1, v.baseQ3 = quartiles(base)
	v.headQ1, v.headQ3 = quartiles(head)
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	for i := range base {
		if better(head[i], base[i]) {
			v.wins++
		}
	}
	gain := v.baseMed - v.headMed
	worstHead, bestBase := slices.Max(head), slices.Min(base)
	if !lowerBetter {
		gain = -gain
		worstHead, bestBase = slices.Min(head), slices.Max(base)
	}
	spread := v.baseQ3 - v.baseQ1
	switch {
	case spread > bound*math.Abs(v.baseMed):
		v.label = "unresolved"
		if better(worstHead, bestBase) {
			v.label = "better in every run"
		}
	case float64(v.wins) >= winShare*float64(v.pairs) && gain > spread:
		v.label = "gain"
	case -gain > bound*math.Abs(v.baseMed):
		v.label = "regression"
	default:
		v.label = "within bound"
	}
	return v
}

// pairRuns pairs the i-th base run with the i-th head run of one
// workload, by start time, and checks the pairs alternate which side
// ran first and used the same seed and window.
func pairRuns(base, head []*result) error {
	if len(base) != len(head) {
		return fmt.Errorf("%d base runs but %d head runs", len(base), len(head))
	}
	if len(base) < minPairs {
		return fmt.Errorf("%d pairs; a claim needs at least %d", len(base), minPairs)
	}
	byStart := func(rs []*result) {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start.Before(rs[j].Start) })
	}
	byStart(base)
	byStart(head)
	for i := range base {
		if base[i].Seed != head[i].Seed || base[i].Seconds != head[i].Seconds {
			return fmt.Errorf("pair %d: seed/seconds %d/%g vs %d/%g", i+1,
				base[i].Seed, base[i].Seconds, head[i].Seed, head[i].Seconds)
		}
		if i > 0 && base[i].Start.Before(head[i].Start) == base[i-1].Start.Before(head[i-1].Start) {
			return fmt.Errorf("pairs %d and %d ran the same side first; alternate which side runs first", i, i+1)
		}
	}
	return nil
}

// loadResults reads every *.json result file (as written by -out) in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	var out []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(b, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rs {
			if r.Trace {
				return nil, fmt.Errorf("%s: traced run; compare reads untraced runs only", p)
			}
		}
		out = append(out, rs...)
	}
	return out, nil
}

// checkEnvs requires one machine for every run and one commit per side.
func checkEnvs(base, head []*result) error {
	all := append(append([]*result(nil), base...), head...)
	for _, r := range all[1:] {
		if err := all[0].Env.sameMachine(r.Env); err != nil {
			return err
		}
	}
	for _, side := range [][]*result{base, head} {
		for _, r := range side[1:] {
			if r.Env.Commit != side[0].Env.Commit || r.Env.Dirty != side[0].Env.Dirty {
				return fmt.Errorf("one side mixes commits %s (dirty %v) and %s (dirty %v)",
					side[0].Env.Commit, side[0].Env.Dirty, r.Env.Commit, r.Env.Dirty)
			}
		}
	}
	return nil
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("base", "", "directory of the parent commit's result files (written with -out)")
	headDir := fs.String("head", "", "directory of the change's result files")
	defPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *headDir == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench compare: usage: compare -base DIR -head DIR [-benchmark BENCHMARK.json]")
		return 2
	}
	code, err := compare(*baseDir, *headDir, *defPath, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	return code
}

func compare(baseDir, headDir, defPath string, w io.Writer) (int, error) {
	raw, err := os.ReadFile(defPath)
	if err != nil {
		return 0, err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return 0, fmt.Errorf("%s: %w", defPath, err)
	}
	base, err := loadResults(baseDir)
	if err != nil {
		return 0, err
	}
	head, err := loadResults(headDir)
	if err != nil {
		return 0, err
	}
	if err := checkEnvs(base, head); err != nil {
		return 0, err
	}
	group := func(rs []*result) map[string][]*result {
		g := map[string][]*result{}
		for _, r := range rs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	bw, hw := group(base), group(head)
	for name := range hw {
		if _, ok := bw[name]; !ok {
			return 0, fmt.Errorf("workload %s has head runs but no base runs", name)
		}
	}
	for _, name := range sortedKeys(bw) {
		if err := pairRuns(bw[name], hw[name]); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-16s %24s %24s %8s %6s  %s\n", "workload", "metric",
		"base median [q1, q3]", "head median [q1, q3]", "change", "wins", "verdict")
	for _, name := range sortedKeys(bw) {
		b, h := bw[name], hw[name]
		for _, md := range def.EndToEnd {
			bv, hv := make([]float64, len(b)), make([]float64, len(h))
			for i := range b {
				bv[i], hv[i] = b[i].Metrics[md.Name].Value, h[i].Metrics[md.Name].Value
			}
			v := judge(bv, hv, md.Better == "lower", md.Bound)
			if v.label == "regression" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-16s %10.4g [%5.4g, %5.4g] %10.4g [%5.4g, %5.4g] %+7.1f%% %3d/%-2d  %s\n",
				name, md.Name, v.baseMed, v.baseQ1, v.baseQ3, v.headMed, v.headQ1, v.headQ3,
				100*(v.headMed-v.baseMed)/v.baseMed, v.wins, v.pairs, v.label)
		}
	}
	return code, nil
}
