package server_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
)

// recorded is one request frame a stub backend received, and the
// channel its answer goes back on.
type recorded struct {
	payload []byte
	answer  chan []byte
}

// startRecordingBackend accepts connections on loopback and hands every
// request frame it reads to the test, answering with whatever the test
// sends back.
func startRecordingBackend(t *testing.T) (string, <-chan recorded) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	got := make(chan recorded)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				for {
					p, err := server.ReadFrame(nc, server.DefaultMaxFrame)
					if err != nil {
						return
					}
					r := recorded{p, make(chan []byte, 1)}
					select {
					case got <- r:
					case <-done:
						return
					}
					if server.WriteFrame(nc, <-r.answer) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), got
}

// TestForwardedFramesByteIdentical: behind a cluster front, every op a
// forwarding server hands on — plain, traced and tenant-tagged — reaches
// the backend with the body bytes the client encoded, and the backend's
// answer, OK or error, reaches the client byte for byte. Only the id,
// the deadline and the trace block's span may differ on the way in.
func TestForwardedFramesByteIdentical(t *testing.T) {
	backend, got := startRecordingBackend(t)
	c, err := cluster.New([]string{backend}, cluster.WithProbeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv, err := server.NewForwardingServer(c)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frames := server.ForwardedFrames(t, time.Now().Add(time.Minute))
	for _, f := range frames {
		sent, err := server.ParseRequest(f.Payload)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, code := range []server.Code{server.CodeOK, server.CodeBadKey} {
			if err := server.WriteFrame(conn, f.Payload); err != nil {
				t.Fatal(err)
			}
			var r recorded
			select {
			case r = <-got:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s never reached the backend", f.Name)
			}
			back, err := server.ParseRequest(r.payload)
			if err != nil {
				t.Fatalf("%s: backend got an undecodable frame: %v", f.Name, err)
			}
			if back.Op != sent.Op || back.WireOp != sent.WireOp ||
				back.Tenant != sent.Tenant || back.Class != sent.Class {
				t.Errorf("%s: backend got op %d (byte %d) tenant %q class %v, want op %d (byte %d) tenant %q class %v",
					f.Name, back.Op, back.WireOp, back.Tenant, back.Class,
					sent.Op, sent.WireOp, sent.Tenant, sent.Class)
			}
			if !bytes.Equal(back.Body, sent.Body) {
				t.Errorf("%s: body changed on the way in:\n got  %x\n want %x", f.Name, back.Body, sent.Body)
			}
			if back.Trace.TraceID != sent.Trace.TraceID || back.Trace.Sampled != sent.Trace.Sampled ||
				sent.Trace.Sampled && (back.Trace.SpanID == sent.Trace.SpanID || back.Trace.SpanID.IsZero()) {
				t.Errorf("%s: backend trace %+v, want a child span of %+v", f.Name, back.Trace, sent.Trace)
			}
			if back.Deadline.IsZero() || back.Deadline.After(sent.Deadline) {
				t.Errorf("%s: backend deadline %v, want one no later than %v", f.Name, back.Deadline, sent.Deadline)
			}

			answer := server.Answer(back.Op, back.ID, code, "stub: key rejected")
			r.answer <- answer
			resp, err := server.ReadFrame(conn, server.DefaultMaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			if id := binary.BigEndian.Uint64(resp[1:9]); id != sent.ID {
				t.Errorf("%s: answer carries id %d, want %d", f.Name, id, sent.ID)
			}
			if !bytes.Equal(resp[9:], answer[9:]) {
				t.Errorf("%s: code %d answer changed on the way out:\n got  %x\n want %x",
					f.Name, code, resp[9:], answer[9:])
			}
		}
	}
	if len(frames) < 8*4 {
		t.Fatalf("only %d frames: want every forwarded op in all four variants", len(frames))
	}
}

// TestForwardingPipelinedMixedSizes is TestPipelinedMixedSizes through
// a forwarding server: a cluster front over two engine backends, with
// hedges launched after a microsecond, so a hedged race's losing copy
// is still on its way to a backend when the answer is written.
func TestForwardingPipelinedMixedSizes(t *testing.T) {
	var backends []string
	for i := 0; i < 2; i++ {
		eng, err := engine.New(engine.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		// Room for every call and its hedge: the test is about answers,
		// not about shedding.
		srv, err := server.NewServer(eng, server.WithMaxInflight(64))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		backends = append(backends, ln.Addr().String())
	}
	c, err := cluster.New(backends, cluster.WithProbeInterval(time.Hour),
		cluster.WithHedgeDelayBounds(time.Microsecond, time.Microsecond),
		cluster.WithRetryBudget(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	front, err := server.NewForwardingServer(c)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(ln)
	defer front.Close()
	server.PipelineMixedSizes(t, ln.Addr().String())
}
