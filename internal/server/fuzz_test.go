package server

// Native fuzz targets over the frame codecs. The contract under test:
// no byte sequence panics a decoder, every rejection wraps
// errs.ErrProtocol — the read loop relies on that to answer a typed
// CodeProtocol instead of crashing the connection goroutine, and the
// balancer relies on it to classify the failure as non-retryable — and
// whatever decodes re-encodes to a fixpoint. Seeds come from the op
// table (tableRequests, sampleResponses), so every op × variant starts
// the mutator deep in the grammar. CI runs each target for a short
// -fuzztime as a smoke (see the fuzz Makefile target); the committed
// corpus under testdata/fuzz keeps past discoveries as regression
// inputs.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/errs"
)

// addRequestSeeds seeds f with every table frame plus a few header
// fragments.
func addRequestSeeds(f *testing.F) {
	for _, tr := range tableRequests(f) {
		f.Add(encodeRequest(tr.req))
	}
	f.Add([]byte{})
	f.Add([]byte{ProtoVersion})
	f.Add([]byte{ProtoVersion, 0xff})
}

func FuzzDecodeRequest(f *testing.F) {
	addRequestSeeds(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := decodeRequest(payload)
		if err != nil {
			if !errors.Is(err, errs.ErrProtocol) {
				t.Fatalf("decode error does not wrap ErrProtocol: %v", err)
			}
			return
		}
		// Normalization invariant: dispatch and the metrics label set
		// only ever see base ops.
		if wireOps[req.op] != (wireOp{base: req.op}) {
			t.Fatalf("decoded op %d is not a base op", req.op)
		}
	})
}

// FuzzRoundTrip: for every payload that decodes, encode(decode(p))
// decodes again to a request that encodes to the same bytes. p itself
// need not be canonical (a big with leading zero bytes, an unsampled
// trace block, an empty QoS identity), but one round trip must reach
// the canonical frame.
func FuzzRoundTrip(f *testing.F) {
	addRequestSeeds(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		canon := encodeRequest(req)
		again, err := decodeRequest(canon)
		if err != nil {
			t.Fatalf("re-encoded %s frame does not decode: %v\n frame %x", req.op, err, canon)
		}
		if b := encodeRequest(again); !bytes.Equal(b, canon) {
			t.Fatalf("%s frame is no fixpoint:\n first  %x\n second %x", req.op, canon, b)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	// A response's shape depends on the op of the request it answers, so
	// the op byte is a fuzzed input too (folded onto the table's ops —
	// the client only ever decodes under an op it sent).
	for _, s := range sampleResponses() {
		f.Add(byte(s.op), encodeResponse(s.op, s.resp))
	}
	f.Add(byte(0), []byte{})
	ops := tableOps()
	f.Fuzz(func(t *testing.T, opb byte, payload []byte) {
		op := ops[int(opb)%len(ops)]
		resp, err := decodeResponse(op, payload)
		if err != nil && !errors.Is(err, errs.ErrProtocol) {
			t.Fatalf("decode error does not wrap ErrProtocol: %v", err)
		}
		if err == nil && resp == nil {
			t.Fatal("nil response without error")
		}
	})
}

// FuzzResponseID covers the client read loop's header peek, which runs
// on every inbound frame before full decoding.
func FuzzResponseID(f *testing.F) {
	f.Add(encodeResponse(OpModExp, sampleResponses()[1].resp))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if _, err := responseID(payload); err != nil && !errors.Is(err, errs.ErrProtocol) {
			t.Fatalf("responseID error does not wrap ErrProtocol: %v", err)
		}
	})
}
