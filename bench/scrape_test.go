package main

import (
	"math"
	"testing"
)

// A /metrics page as the daemons write it: histograms list cumulative
// buckets only up to the highest occupied one.
const promBefore = `# HELP montsys_job_exec_seconds Dequeue-to-finish execution time.
# TYPE montsys_job_exec_seconds histogram
montsys_job_exec_seconds_bucket{le="0"} 0
montsys_job_exec_seconds_bucket{le="1e-06"} 2
montsys_job_exec_seconds_bucket{le="2e-06"} 4
montsys_job_exec_seconds_bucket{le="+Inf"} 4
montsys_job_exec_seconds_sum 5e-06
montsys_job_exec_seconds_count 4
montsys_mont_muls_total{kind="modexp"} 10
montsys_mont_muls_total{kind="mont"} 1
montsys_engine_info{mode="cios",variant="guarded"} 1
`

const promAfter = `montsys_job_exec_seconds_bucket{le="0"} 0
montsys_job_exec_seconds_bucket{le="1e-06"} 2
montsys_job_exec_seconds_bucket{le="2e-06"} 8
montsys_job_exec_seconds_bucket{le="4e-06"} 12
montsys_job_exec_seconds_bucket{le="+Inf"} 12
montsys_job_exec_seconds_sum 3e-05
montsys_job_exec_seconds_count 12
montsys_mont_muls_total{kind="modexp"} 40
montsys_mont_muls_total{kind="mont"} 3
`

func TestParseProm(t *testing.T) {
	ss, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 9 {
		t.Fatalf("parsed %d series, want 9", len(ss))
	}
	if got := sum(ss, "montsys_mont_muls_total", nil); got != 11 {
		t.Errorf("muls total = %g, want 11", got)
	}
	if got := sum(ss, "montsys_mont_muls_total", map[string]string{"kind": "mont"}); got != 1 {
		t.Errorf("mont muls = %g, want 1", got)
	}
	if ss[8].labels["variant"] != "guarded" || ss[8].name != "montsys_engine_info" {
		t.Errorf("labels parsed as %q %v", ss[8].name, ss[8].labels)
	}
	for _, bad := range []string{"no_value", `x{a="1" 3`, `x{a=1} 3`, "x 1.2.3"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

// The delta of a histogram is taken bound by bound, a bound missing
// from the earlier scrape holding that scrape's total; quantiles
// interpolate inside the bucket the rank falls in.
func TestBucketDeltaAndQuantile(t *testing.T) {
	a, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProm(promAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := bucketDelta(a, b, "montsys_job_exec_seconds")
	want := map[float64]float64{0: 0, 1e-6: 0, 2e-6: 4, 4e-6: 8, math.Inf(1): 8}
	for le, c := range want {
		if d[le] != c {
			t.Errorf("delta at le=%g is %g, want %g (all: %v)", le, d[le], c, d)
		}
	}
	// 8 new samples: 4 in (1µs, 2µs], 4 in (2µs, 4µs]. The median rank 4
	// is the top of the first bucket; rank 6 is halfway up the second.
	if v, n := bucketQuantile(d, 0.5); !near(v, 2e-6) || n != 8 {
		t.Errorf("p50 = %g (n=%d), want 2e-6 (n=8)", v, n)
	}
	if v, _ := bucketQuantile(d, 0.75); !near(v, 3e-6) {
		t.Errorf("p75 = %g, want 3e-6", v)
	}
	sumd := addBuckets(d, d)
	if v, n := bucketQuantile(sumd, 0.75); !near(v, 3e-6) || n != 16 {
		t.Errorf("p75 of two daemons = %g (n=%d), want 3e-6 (n=16)", v, n)
	}
	if v, n := bucketQuantile(map[float64]float64{}, 0.5); v != 0 || n != 0 {
		t.Errorf("empty histogram: %g, %d", v, n)
	}
}

func TestParseVars(t *testing.T) {
	m, err := parseVars([]byte(`{"cmdline": ["x"], "memstats": {"Mallocs": 120, "TotalAlloc": 4096, "NumGC": 3, "Frees": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if m != (memstats{Mallocs: 120, TotalAlloc: 4096, NumGC: 3}) {
		t.Errorf("memstats = %+v", m)
	}
	if _, err := parseVars([]byte(`{"cmdline": []}`)); err == nil {
		t.Error("vars without memstats accepted")
	}
}

func TestParseProc(t *testing.T) {
	// A command name may hold spaces and parentheses; fields count from
	// the last ')'.
	stat := "4242 (mont sys) d) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 130 0 0 20 0 9 0 100 1 2 3"
	st, cpu, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if st != "S" || !near(cpu, 3.8) {
		t.Errorf("state %q cpu %g, want S 3.8", st, cpu)
	}
	if _, _, err := parseProcStat("4242 (x) S 1"); err == nil {
		t.Error("short stat accepted")
	}
	hwm, err := parseHWM("Name:\tmontsysd\nVmPeak:\t  900000 kB\nVmHWM:\t   15360 kB\nVmRSS:\t 1 kB\n")
	if err != nil || !near(hwm, 15) {
		t.Errorf("VmHWM = %g MB, %v; want 15", hwm, err)
	}
	if _, err := parseHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestListenInodes(t *testing.T) {
	table := `  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode
   0: 0100007F:1F90 00000000:0000 0A 00000000:00000000 00:00000000 00000000     0        0 111 1 0 100 0 0 10 0
   1: 0100007F:1F90 0100007F:C350 01 00000000:00000000 00:00000000 00000000     0        0 222 1 0 20 4 30 10 -1
   2: 0100007F:1F91 00000000:0000 0A 00000000:00000000 00:00000000 00000000     0        0 333 1 0 100 0 0 10 0
`
	got := listenInodes(table, 0x1F90)
	if len(got) != 1 || got[0] != "111" {
		t.Errorf("listenInodes = %v, want [111] (the LISTEN entry only)", got)
	}
}
