package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses the Prometheus text format the daemons serve on
// /metrics: comment lines are skipped, every other line is
// `name{k="v",...} value` or `name value`.
func parseProm(text string) ([]series, error) {
	var out []series
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := series{name: line[:sp], value: v}
		if br := strings.IndexByte(s.name, '{'); br >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics line %q: unterminated labels", line)
			}
			labels, err := parseLabels(s.name[br+1 : len(s.name)-1])
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			s.name, s.labels = s.name[:br], labels
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label list %q", s)
		}
		key, rest := s[:eq], s[eq+2:]
		end := strings.IndexByte(rest, '"')
		if end < 0 {
			return nil, fmt.Errorf("bad label list %q", s)
		}
		labels[key] = rest[:end]
		s = strings.TrimPrefix(rest[end+1:], ",")
	}
	return labels, nil
}

// matches reports whether s carries every label in want.
func (s series) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds the values of every series called name that carries the
// labels in want.
func sum(ss []series, name string, want map[string]string) float64 {
	var t float64
	for _, s := range ss {
		if s.name == name && s.matches(want) {
			t += s.value
		}
	}
	return t
}

// bucketDelta returns, for histogram family name, how much each
// cumulative bucket (keyed by its upper bound in seconds, +Inf
// included) grew between two scrapes, summed over every series of the
// family. The daemons write buckets only up to the highest occupied
// one, so a bound missing from a scrape holds that series' total.
func bucketDelta(before, after []series, name string) map[float64]float64 {
	cum := func(ss []series) map[string]map[float64]float64 {
		out := map[string]map[float64]float64{}
		for _, s := range ss {
			if s.name != name+"_bucket" {
				continue
			}
			le, err := strconv.ParseFloat(s.labels["le"], 64) // "+Inf" parses to +Inf
			if err != nil {
				continue
			}
			k := seriesKey(s.labels, "le")
			if out[k] == nil {
				out[k] = map[float64]float64{}
			}
			out[k][le] = s.value
		}
		return out
	}
	at := func(buckets map[float64]float64, le float64) float64 {
		best, v := math.Inf(-1), 0.0
		for b, c := range buckets {
			if b <= le && b > best {
				best, v = b, c
			}
		}
		return v
	}
	a, b := cum(before), cum(after)
	bounds := map[float64]bool{}
	for _, m := range b {
		for le := range m {
			bounds[le] = true
		}
	}
	out := map[float64]float64{}
	for k, mb := range b {
		for le := range bounds {
			out[le] += at(mb, le) - at(a[k], le)
		}
	}
	return out
}

// seriesKey renders a label set without the skipped label, in a fixed
// order, to group the buckets of one series.
func seriesKey(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k + "=" + labels[k] + ",")
	}
	return sb.String()
}

// addBuckets sums several bucketDelta results (one per daemon).
func addBuckets(ms ...map[float64]float64) map[float64]float64 {
	out := map[float64]float64{}
	for _, m := range ms {
		for le, c := range m {
			out[le] += c
		}
	}
	return out
}

// bucketQuantile estimates the q-quantile of cumulative bucket counts,
// interpolating linearly inside the bucket where the rank falls. It
// returns the estimate and the sample count.
func bucketQuantile(cum map[float64]float64, q float64) (float64, int64) {
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0, 0
	}
	total := cum[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0, 0
	}
	rank := q * total
	prevLe, prevCum := 0.0, 0.0
	for _, le := range bounds {
		c := cum[le]
		if c >= rank && c > prevCum {
			if math.IsInf(le, 1) {
				return prevLe, int64(total)
			}
			return prevLe + (le-prevLe)*(rank-prevCum)/(c-prevCum), int64(total)
		}
		prevLe, prevCum = le, c
	}
	return prevLe, int64(total)
}

// memstats holds the Go runtime counters a daemon serves on
// /debug/vars.
type memstats struct {
	Mallocs    float64
	TotalAlloc float64
	NumGC      float64
}

func parseVars(b []byte) (memstats, error) {
	var doc struct {
		Memstats *memstats `json:"memstats"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return memstats{}, fmt.Errorf("/debug/vars: %w", err)
	}
	if doc.Memstats == nil {
		return memstats{}, fmt.Errorf("/debug/vars: no memstats")
	}
	return *doc.Memstats, nil
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// parseProcStat returns the state and the user+system CPU seconds from
// the text of /proc/<pid>/stat.
func parseProcStat(text string) (state string, cpu float64, err error) {
	rp := strings.LastIndexByte(text, ')')
	if rp < 0 {
		return "", 0, fmt.Errorf("bad /proc stat %q", text)
	}
	f := strings.Fields(text[rp+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return "", 0, fmt.Errorf("bad /proc stat %q", text)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return "", 0, fmt.Errorf("bad /proc stat %q", text)
	}
	return f[0], (ut + st) / clockTicks, nil
}

// parseHWM returns VmHWM (peak resident set) in MB from the text of
// /proc/<pid>/status.
func parseHWM(text string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("bad VmHWM line %q", sc.Text())
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q: %w", sc.Text(), err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	_, cpu, err := parseProcStat(string(b))
	return cpu, err
}

func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseHWM(string(b))
}

// scrape is one daemon's counters at one instant.
type scrape struct {
	metrics []series
	mem     memstats
	cpu     float64 // user+system seconds
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func get(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

func (p *proc) scrape() (scrape, error) {
	var s scrape
	text, err := get(p.obsURL + "/metrics")
	if err != nil {
		return s, err
	}
	if s.metrics, err = parseProm(string(text)); err != nil {
		return s, err
	}
	vars, err := get(p.obsURL + "/debug/vars")
	if err != nil {
		return s, err
	}
	if s.mem, err = parseVars(vars); err != nil {
		return s, err
	}
	s.cpu, err = procCPU(p.pid())
	return s, err
}

// scrapeAll scrapes every daemon of a fleet.
func scrapeAll(ps []*proc) (map[*proc]scrape, error) {
	out := make(map[*proc]scrape, len(ps))
	for _, p := range ps {
		s, err := p.scrape()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[p] = s
	}
	return out, nil
}
