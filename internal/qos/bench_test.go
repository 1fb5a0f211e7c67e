package qos

// What one request pays at the admission gate when -qos is armed.
// EXPERIMENTS.md ("QoS plane: uncontended overhead") records a run:
// the uncontended fast path is nanoseconds against a request path
// measured in hundreds of microseconds — under 3% overhead, and in
// practice well under 1%.

import (
	"testing"
	"time"
)

func benchPlane(b *testing.B) *Plane {
	b.Helper()
	cfg, err := ParseSpec("acme:rate=1e9,burst=1e9,weight=4,class=interactive;bulk:rate=1e9,weight=1,class=best-effort")
	if err != nil {
		b.Fatal(err)
	}
	return NewPlane(cfg, 1024, nil)
}

// BenchmarkAdmitConfigured: the uncontended fast path for a named
// tenant — bucket take, share charge, release with a latency sample.
func BenchmarkAdmitConfigured(b *testing.B) {
	p := benchPlane(b)
	now := time.Unix(1000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		release, err := p.Admit("acme", now)
		if err != nil {
			b.Fatal(err)
		}
		release(time.Millisecond)
	}
}

// BenchmarkAdmitUnlimitedDefault: an untagged legacy request folding
// into the default policy — the cost every old client pays the moment
// a server arms -qos.
func BenchmarkAdmitUnlimitedDefault(b *testing.B) {
	p := NewPlane(DefaultConfig(), 1024, nil)
	now := time.Unix(1000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		release, err := p.Admit("", now)
		if err != nil {
			b.Fatal(err)
		}
		release(0)
	}
}

// BenchmarkAdmitRateLimitedReject: the rejection path — what serving
// a hostile flood costs per rejected request (bucket check plus one
// structured error).
func BenchmarkAdmitRateLimitedReject(b *testing.B) {
	cfg, err := ParseSpec("hog:rate=0.001,burst=1,weight=1,class=batch")
	if err != nil {
		b.Fatal(err)
	}
	p := NewPlane(cfg, 1024, nil)
	now := time.Unix(1000, 0)
	if release, err := p.Admit("hog", now); err != nil {
		b.Fatal(err)
	} else {
		release(0) // drain the single burst token
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Admit("hog", now); err == nil {
			b.Fatal("expected rate-limited rejection")
		}
	}
}
