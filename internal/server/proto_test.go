package server

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/errs"
)

// Whole-payload encoders and plain frame I/O, for tests and stub peers
// that handle one frame at a time.

func encodeRequest(req *request) []byte { return appendRequest(nil, req) }

func encodeResponse(op Op, resp *response) []byte { return appendResponse(nil, op, resp) }

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(sealFrame(append([]byte{0, 0, 0, 0}, payload...)))
	return err
}

// readFrame reads one length-prefixed frame, rejecting payloads above
// maxFrame before allocating for them.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := frameLen(hdr[:], maxFrame)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Request frames survive an encode→frame→decode round trip for every
// op, including deadlines and empty (zero) operands.
func TestRequestRoundTrip(t *testing.T) {
	deadline := time.Unix(0, 1234567890123456789)
	cases := []*request{
		{op: OpMont, id: 7, jobs: []triple{{n: big.NewInt(101), a: big.NewInt(5), b: big.NewInt(9)}}},
		{op: OpModExp, id: 1 << 60, deadline: deadline,
			jobs: []triple{{n: big.NewInt(0xF1F1), a: big.NewInt(3), b: big.NewInt(65537)}}},
		{op: OpBatchModExp, id: 42, jobs: []triple{
			{n: big.NewInt(23), a: big.NewInt(0), b: big.NewInt(1)},
			{n: big.NewInt(101), a: big.NewInt(17), b: big.NewInt(3)},
		}},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, encodeRequest(want)); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Fatalf("op %v: %v", want.op, err)
		}
		if got.op != want.op || got.id != want.id || !got.deadline.Equal(want.deadline) {
			t.Fatalf("op %v: header mismatch: %+v vs %+v", want.op, got, want)
		}
		if len(got.jobs) != len(want.jobs) {
			t.Fatalf("op %v: %d jobs, want %d", want.op, len(got.jobs), len(want.jobs))
		}
		for i := range got.jobs {
			if got.jobs[i].n.Cmp(want.jobs[i].n) != 0 ||
				got.jobs[i].a.Cmp(want.jobs[i].a) != 0 ||
				got.jobs[i].b.Cmp(want.jobs[i].b) != 0 {
				t.Fatalf("op %v job %d: operand mismatch", want.op, i)
			}
		}
	}
}

// Response frames round trip: OK single values, top-level errors, and
// batch bodies mixing OK and per-item errors.
func TestResponseRoundTrip(t *testing.T) {
	ok := &response{id: 9, code: CodeOK, values: []*big.Int{big.NewInt(0xABCD)}}
	got, err := decodeResponse(OpModExp, encodeResponse(OpModExp, ok))
	if err != nil {
		t.Fatal(err)
	}
	if got.id != 9 || got.code != CodeOK || got.values[0].Cmp(ok.values[0]) != 0 {
		t.Fatalf("ok response mismatch: %+v", got)
	}

	fail := &response{id: 10, code: CodeOverloaded, msg: "in-flight limit reached"}
	got, err = decodeResponse(OpModExp, encodeResponse(OpModExp, fail))
	if err != nil {
		t.Fatal(err)
	}
	if got.code != CodeOverloaded || got.msg != fail.msg {
		t.Fatalf("error response mismatch: %+v", got)
	}

	batch := &response{
		id:     11,
		code:   CodeOK,
		codes:  []Code{CodeOK, CodeEvenModulus, CodeOK},
		msgs:   []string{"", "modulus must be odd", ""},
		values: []*big.Int{big.NewInt(1), nil, big.NewInt(3)},
	}
	got, err = decodeResponse(OpBatchModExp, encodeResponse(OpBatchModExp, batch))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range batch.codes {
		if got.codes[i] != c {
			t.Fatalf("batch item %d: code %v, want %v", i, got.codes[i], c)
		}
		if c == CodeOK && got.values[i].Cmp(batch.values[i]) != 0 {
			t.Fatalf("batch item %d: value mismatch", i)
		}
		if c != CodeOK && got.msgs[i] != batch.msgs[i] {
			t.Fatalf("batch item %d: msg mismatch", i)
		}
	}
}

// Malformed frames fail with ErrProtocol: bad version, unknown op,
// undeclared op variants, truncation, trailing garbage, oversized
// frames and batches.
func TestProtocolErrors(t *testing.T) {
	good := encodeRequest(&request{op: OpModExp, id: 1,
		jobs: []triple{{n: big.NewInt(23), a: big.NewInt(2), b: big.NewInt(3)}}})

	bad := append([]byte(nil), good...)
	bad[0] = 99 // version
	if _, err := decodeRequest(bad); !errors.Is(err, errs.ErrProtocol) {
		t.Errorf("bad version: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[1] = 200 // op
	if _, err := decodeRequest(bad); !errors.Is(err, errs.ErrProtocol) {
		t.Errorf("bad op: %v", err)
	}

	if _, err := decodeRequest(good[:len(good)-2]); !errors.Is(err, errs.ErrProtocol) {
		t.Errorf("truncated: %v", err)
	}

	if _, err := decodeRequest(append(append([]byte(nil), good...), 0)); !errors.Is(err, errs.ErrProtocol) {
		t.Errorf("trailing byte: %v", err)
	}

	// Tagged ping, join and goodbye: no encoder sends them and the op
	// table declares no tag for them, so they are protocol errors even
	// when a well-formed QoS block and body follow.
	for name, frame := range map[string]string{
		"tagged ping":    "0144 0000000000000001 0000000000000000 00 00000000",
		"tagged join":    "0152 0000000000000001 0000000000000000 00 00000000 00000004 62313a39 00000002 6575",
		"tagged goodbye": "0153 0000000000000001 0000000000000000 00 00000000 00000004 62313a39",
	} {
		raw, err := hex.DecodeString(strings.ReplaceAll(frame, " ", ""))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeRequest(raw); !errors.Is(err, errs.ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", name, err)
		}
	}

	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := readPooledFrame(bufio.NewReader(&buf), 64); !errors.Is(err, errs.ErrProtocol) {
		t.Errorf("oversized frame: %v", err)
	}
}

// Every row of the code table round-trips: its sentinel maps to its
// code, the code's error wraps the sentinel back and maps to the same
// code again, and every row has its own name.
func TestCodeErrorMapping(t *testing.T) {
	names := map[string]Code{}
	for _, e := range codeTable {
		if prev, dup := names[e.name]; dup {
			t.Errorf("codes %d and %d share the name %q", prev, e.code, e.name)
		}
		names[e.name] = e.code
		if e.code.String() != e.name {
			t.Errorf("Code(%d).String() = %q, want %q", e.code, e.code.String(), e.name)
		}
		if e.err == nil {
			continue
		}
		if code := CodeOf(e.err); code != e.code {
			t.Errorf("CodeOf(%v) = %v, want %v", e.err, code, e.code)
		}
		back := errFor(e.code, "boom")
		if !errors.Is(back, e.err) {
			t.Errorf("%v -> %v loses errors.Is(%v)", e.code, back, e.err)
		}
		if code := CodeOf(back); code != e.code {
			t.Errorf("CodeOf(errFor(%v)) = %v", e.code, code)
		}
	}
	// Wrapped sentinels classify identically — the shape the engine
	// actually emits (fmt.Errorf("...: %w", errs.ErrIntegrity)).
	if CodeOf(fmt.Errorf("worker 2: residue check: %w", errs.ErrIntegrity)) != CodeIntegrity {
		t.Error("wrapped ErrIntegrity should map to CodeIntegrity")
	}
	if CodeOf(nil) != CodeOK || errFor(CodeOK, "") != nil {
		t.Error("nil/OK mapping broken")
	}
	if CodeOf(errors.New("wat")) != CodeInternal {
		t.Error("unknown error should map to internal")
	}
}

// Pooled frames: every length reads back whole through readPooledFrame,
// including lengths at and around the bucket edges and above the
// largest bucket; a pooled buffer's capacity is its bucket's, and
// frameBuffered tells a wholly buffered frame from a partial one.
func TestPooledFrames(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4095, 4096, 4097, 1 << maxFrameShift, 1<<maxFrameShift + 1} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReaderSize(&buf, 2<<maxFrameShift)
		if _, err := br.Peek(1); err != nil {
			t.Fatal(err)
		}
		if !frameBuffered(br) {
			t.Errorf("%d-byte frame: not seen as buffered", n)
		}
		p, err := readPooledFrame(br, 2<<maxFrameShift)
		if err != nil {
			t.Fatalf("%d-byte frame: %v", n, err)
		}
		if !bytes.Equal(*p, payload) {
			t.Errorf("%d-byte frame read back changed", n)
		}
		if i := frameBucket(n); i >= 0 && cap(*p) != 1<<(i+minFrameShift) {
			t.Errorf("%d-byte frame: capacity %d, want bucket %d's", n, cap(*p), i)
		} else if i < 0 && n <= 1<<maxFrameShift {
			t.Errorf("%d-byte frame: no bucket", n)
		}
		putFrame(p)
	}

	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(io.LimitReader(&buf, 50))
	if _, err := br.Peek(1); err != nil {
		t.Fatal(err)
	}
	if frameBuffered(br) {
		t.Error("a partial frame is seen as buffered")
	}
}
