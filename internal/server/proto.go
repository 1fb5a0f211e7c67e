// Package server is the network serving layer: montsysd's TCP front
// door for the multi-core engine, plus the Go client that talks to it.
//
// The wire protocol is a compact length-prefixed binary format — the
// software analogue of the paper's MMMC handshake. Every frame is
//
//	uint32 payload length (big-endian) ‖ payload
//
// and a request payload is
//
//	byte   version (1)
//	byte   op            a byte declared by the op table (ops.go):
//	                     base ops 1–4 mont modexp batch_modexp ping,
//	                     8–12 signing (proto_crypto.go), 18–19 join
//	                     goodbye (proto_member.go); traced variants 5–7
//	                     and 13–17; tenant-tagged variants at +64
//	                     (proto_qos.go). Any other byte is CodeProtocol.
//	uint64 request id    client-chosen, echoed in the response
//	int64  deadline      UnixNano, 0 = none
//	qos    block         tagged ops only: class byte ‖ tenant string
//	trace  block         traced ops only: 16B trace id ‖ 8B parent span ‖ flags
//	body                 op-specific, big.Ints as uint32 len ‖ bytes
//
// while a response payload is
//
//	byte   version (1)
//	uint64 request id
//	byte   code          0=OK, else a stable error code (see Code)
//	body                 on OK the op's fixed number of big.Ints, or for
//	                     batch ops uint32 count ‖ count × (code ‖ big on
//	                     OK, message else); uint32 len ‖ message on error
//
// Responses carry the request id so a connection can be pipelined: the
// server answers in completion order, not arrival order, and the client
// matches responses to calls by id. Batch responses carry one code per
// item, so a single invalid modulus doesn't poison its batch.
//
// Every op's wire bytes, body codec, response shape, engine call,
// routing key, admission path and retry policy come from one row of
// opTable; adding an op is one row plus one body codec.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/qos"
)

// ProtoVersion is the wire protocol version; both sides reject frames
// that do not lead with it.
const ProtoVersion = 1

// DefaultMaxFrame bounds a frame payload (requests and responses) to
// keep a misbehaving peer from ballooning memory. 1 MiB comfortably
// fits batches of thousands of 4096-bit operand triples.
const DefaultMaxFrame = 1 << 20

// traceFlagSampled marks the trace block's sampling bit. The block
// still carries ids when unset (a client may propagate an unsampled
// context it was handed), but in practice clients skip the traced
// variant entirely for unsampled requests.
const traceFlagSampled = 1

// Code is a stable wire error code. Codes exist so the typed sentinels
// of internal/errs survive the network hop: the server maps an error to
// a code with CodeOf, the client maps it back with errFor, and
// errors.Is keeps working end to end.
type Code uint8

// Wire codes. Order is frozen — these are a network ABI, append only.
const (
	CodeOK              Code = 0
	CodeEvenModulus     Code = 1
	CodeModulusTooSmall Code = 2
	CodeOperandRange    Code = 3
	CodeEngineClosed    Code = 4
	CodeOverloaded      Code = 5
	CodeDraining        Code = 6
	CodeProtocol        Code = 7
	CodeDeadline        Code = 8
	CodeCanceled        Code = 9
	CodeBackendDown     Code = 10
	CodeIntegrity       Code = 11
	CodeInternal        Code = 255
)

// codeTable is the one code ↔ name ↔ sentinel mapping, listing every
// code the server can emit. Code.String names a code from it, CodeOf
// matches an error against its sentinels in this order, errFor wraps a
// code's sentinel back, and the server's metrics pre-register one
// series per row. CodeOK and CodeInternal have no sentinel.
var codeTable = []struct {
	code Code
	name string
	err  error
}{
	{CodeOK, "ok", nil},
	{CodeEvenModulus, "even_modulus", errs.ErrEvenModulus},
	{CodeModulusTooSmall, "modulus_too_small", errs.ErrModulusTooSmall},
	{CodeOperandRange, "operand_range", errs.ErrOperandRange},
	{CodeEngineClosed, "engine_closed", errs.ErrEngineClosed},
	{CodeOverloaded, "overloaded", errs.ErrOverloaded},
	{CodeDraining, "draining", errs.ErrDraining},
	{CodeProtocol, "protocol", errs.ErrProtocol},
	{CodeBackendDown, "backend_down", errs.ErrBackendDown},
	{CodeIntegrity, "integrity", errs.ErrIntegrity},
	{CodeBadKey, "bad_key", errs.ErrBadKey},
	{CodeRateLimited, "rate_limited", errs.ErrRateLimited},
	{CodeDeadline, "deadline", context.DeadlineExceeded},
	{CodeCanceled, "canceled", context.Canceled},
	{CodeInternal, "internal", nil},
}

// String names a code the way the server's metrics label it; a code
// missing from codeTable reads "internal".
func (c Code) String() string {
	for _, e := range codeTable {
		if e.code == c {
			return e.name
		}
	}
	return "internal"
}

// CodeOf maps an error to its wire code — the name every layer's span
// outcome uses. Unrecognized errors become CodeInternal; the message
// still crosses the wire for debugging.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	for _, e := range codeTable {
		if e.err != nil && errors.Is(err, e.err) {
			return e.code
		}
	}
	return CodeInternal
}

// errFor reconstructs a sentinel-wrapped error from a wire code and its
// message, so client callers classify with errors.Is exactly as they
// would against the in-process engine.
func errFor(code Code, msg string) error {
	if code == CodeOK {
		return nil
	}
	if msg == "" {
		msg = code.String()
	}
	if code == CodeRateLimited {
		// Reconstruct the structured error so errors.As recovers the
		// retry-after hint on the client side of the hop.
		if rl, ok := errs.ParseRateLimited(msg); ok {
			return fmt.Errorf("montsys: remote: %w", rl)
		}
	}
	for _, e := range codeTable {
		if e.code == code && e.err != nil {
			return fmt.Errorf("montsys: remote: %s: %w", msg, e.err)
		}
	}
	return fmt.Errorf("montsys: remote: internal: %s", msg)
}

// triple is one (N, A, B) operand set: modulus plus the two op-specific
// operands (base/exp for ModExp, x/y for Mont).
type triple struct {
	n, a, b *big.Int
}

// request is one decoded request frame. op is always a base op: the
// codec folds every traced and tagged variant into its base at decode
// and picks the wire byte from opTable at encode, so nothing between
// encode and decode sees variant bytes. tc is the caller's trace
// context — tc.SpanID is the PARENT for whatever span the receiving
// server opens — zero-value when the frame was untraced.
type request struct {
	op       Op
	id       uint64
	deadline time.Time // zero = none
	tc       obs.TraceContext
	tenant   string      // QoS block; "" = untagged legacy frame
	class    qos.Class   // QoS block; Interactive when untagged
	jobs     []triple    // len 1 for Mont/ModExp; empty for signing ops
	crypto   *cryptoBody // signing ops only
	member   *memberBody // membership ops only

	// one backs jobs for a single-triple request (mont, modexp), and
	// ints the bigs tripleBody decodes into it, so the hot ops need no
	// slice and no big.Int allocation of their own.
	one  [1]triple
	ints [3]big.Int

	// body is the encoded body after the header blocks: set by decode
	// (a slice of the frame, which a forwarding server hands on), and
	// on a Client.Forward request the bytes sent in place of the
	// codec's. The codec's encode never reads it.
	body []byte
}

// tripleRequest is a single-triple request: mont or modexp.
func tripleRequest(op Op, n, a, b *big.Int) *request {
	req := &request{op: op}
	req.one[0] = triple{n: n, a: a, b: b}
	req.jobs = req.one[:]
	return req
}

// items is the request's batch size: its signatures to verify, or its
// operand triples.
func (r *request) items() int {
	if r.crypto != nil {
		return len(r.crypto.items)
	}
	return len(r.jobs)
}

// response is one decoded response frame. values holds an OK body's
// bigs; for per-item ops codes/msgs/values run parallel to the request's
// items. msg is only set when code != CodeOK. body, when non-nil, is a
// forwarded answer's body after the code byte, encoded verbatim in
// place of msg or values.
type response struct {
	id     uint64
	code   Code
	msg    string
	codes  []Code
	msgs   []string
	values []*big.Int
	body   []byte

	one [1]*big.Int // backs values for a one-value answer
}

// --- primitive encoders -------------------------------------------------

func appendUint32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendUint64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// appendBig encodes a big.Int as uint32 length ‖ big-endian magnitude,
// filled in place at the end of b. Only non-negative values cross the
// wire; negatives are a caller bug and are clamped at decode by
// construction (magnitude only).
func appendBig(b []byte, v *big.Int) []byte {
	if v == nil {
		return appendUint32(b, 0)
	}
	n := (v.BitLen() + 7) / 8
	b = appendUint32(b, uint32(n))
	b = slices.Grow(b, n)[:len(b)+n]
	v.FillBytes(b[len(b)-n:])
	return b
}

// appendBigs encodes vs in order.
func appendBigs(b []byte, vs ...*big.Int) []byte {
	for _, v := range vs {
		b = appendBig(b, v)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// decoder consumes a payload slice with bounds checking; all take
// methods fail with ErrProtocol-wrapped errors on truncation.
type decoder struct {
	b []byte
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || len(d.b) < n {
		return nil, fmt.Errorf("server: truncated frame (want %d bytes, have %d): %w",
			n, len(d.b), errs.ErrProtocol)
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, nil
}

func (d *decoder) byte() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (d *decoder) uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (d *decoder) big() (*big.Int, error) {
	v := new(big.Int)
	if err := d.bigInto(v); err != nil {
		return nil, err
	}
	return v, nil
}

// bigInto decodes a big into v.
func (d *decoder) bigInto(v *big.Int) error {
	n, err := d.uint32()
	if err != nil {
		return err
	}
	raw, err := d.take(int(n))
	if err != nil {
		return err
	}
	v.SetBytes(raw)
	return nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uint32()
	if err != nil {
		return "", err
	}
	raw, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// bigs decodes len(dst) bigs into *dst[0], *dst[1], … in order.
func (d *decoder) bigs(dst ...**big.Int) error {
	for _, p := range dst {
		v, err := d.big()
		if err != nil {
			return err
		}
		*p = v
	}
	return nil
}

// count decodes a batch's uint32 item count. Each item takes at least
// minItem bytes, so a count the remaining bytes cannot possibly hold is
// a hostile header: it is rejected before anything is allocated for it,
// which keeps decode allocations proportional to bytes received.
func (d *decoder) count(minItem int) (int, error) {
	c, err := d.uint32()
	if err != nil {
		return 0, err
	}
	if c > maxBatch {
		return 0, fmt.Errorf("server: batch of %d items exceeds limit %d: %w",
			c, maxBatch, errs.ErrProtocol)
	}
	if int64(c)*int64(minItem) > int64(len(d.b)) {
		return 0, fmt.Errorf("server: batch of %d items in %d remaining bytes: %w",
			c, len(d.b), errs.ErrProtocol)
	}
	return int(c), nil
}

func (d *decoder) done() error {
	if len(d.b) != 0 {
		return fmt.Errorf("server: %d trailing bytes in frame: %w", len(d.b), errs.ErrProtocol)
	}
	return nil
}

// --- frame I/O ----------------------------------------------------------

// sealFrame fills in the length prefix of a frame whose payload was
// appended to b after four reserved bytes, so the whole frame goes out
// in one write.
func sealFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// frameLen parses a frame header, rejecting payloads above maxFrame.
func frameLen(hdr []byte, maxFrame int) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if int64(n) > int64(maxFrame) {
		return 0, fmt.Errorf("server: frame of %d bytes exceeds limit %d: %w",
			n, maxFrame, errs.ErrProtocol)
	}
	return int(n), nil
}

// Frame buffers. Both ends read each frame into a buffer from
// framePools, bucketed by power-of-two capacity. A server returns a
// request's frame once the answer is written, since a decoded request's
// body aliases its frame (the bigs and strings it decodes do not); a
// client returns a response's once it is decoded. Frames above the
// largest bucket are allocated and left to the collector.
const (
	minFrameShift = 8  // smallest bucket: 256 bytes
	maxFrameShift = 20 // largest bucket: DefaultMaxFrame
)

var framePools [maxFrameShift - minFrameShift + 1]sync.Pool

// frameBucket is the pool index whose buffers hold n bytes, or -1 when
// n is above the largest bucket.
func frameBucket(n int) int {
	i := bits.Len(uint(n-1)) - minFrameShift
	if n <= 1<<minFrameShift {
		i = 0
	}
	if i >= len(framePools) {
		return -1
	}
	return i
}

// getFrame returns a buffer of length n.
func getFrame(n int) *[]byte {
	i := frameBucket(n)
	if i < 0 {
		b := make([]byte, n)
		return &b
	}
	if p, ok := framePools[i].Get().(*[]byte); ok {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n, 1<<(i+minFrameShift))
	return &b
}

// putFrame recycles a buffer getFrame returned; nothing may reference
// its bytes afterwards.
func putFrame(p *[]byte) {
	if i := frameBucket(cap(*p)); i >= 0 && cap(*p) == 1<<(i+minFrameShift) {
		framePools[i].Put(p)
	}
}

// readPooledFrame reads one length-prefixed frame into a buffer from
// getFrame. The header is read through the reader's buffer, so a frame
// already buffered costs no allocation and no read.
func readPooledFrame(br *bufio.Reader, maxFrame int) (*[]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n, err := frameLen(hdr, maxFrame)
	if err != nil {
		return nil, err
	}
	br.Discard(4)
	p := getFrame(n)
	if _, err := io.ReadFull(br, *p); err != nil {
		putFrame(p)
		return nil, err
	}
	return p, nil
}

// --- request codec ------------------------------------------------------

// bodyCodec is one op's request body codec: enc appends the body after
// the header blocks, dec parses b — the rest of the frame after them —
// into req and rejects trailing bytes. dec takes the bytes rather than
// the header's decoder so the decoder does not escape through the
// function value.
type bodyCodec struct {
	enc func(b []byte, req *request) []byte
	dec func(b []byte, req *request) error
}

// noBody is the codec of an op without a body (ping).
var noBody = bodyCodec{
	enc: func(b []byte, _ *request) []byte { return b },
	dec: func(b []byte, _ *request) error {
		d := decoder{b}
		return d.done()
	},
}

// tripleBody is mont and modexp: n ‖ a ‖ b.
var tripleBody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		j := req.jobs[0]
		return appendBigs(b, j.n, j.a, j.b)
	},
	dec: func(b []byte, req *request) error {
		d := decoder{b}
		req.jobs = req.one[:]
		j := &req.one[0]
		j.n, j.a, j.b = &req.ints[0], &req.ints[1], &req.ints[2]
		for i := range req.ints {
			if err := d.bigInto(&req.ints[i]); err != nil {
				return err
			}
		}
		return d.done()
	},
}

// tripleBatchBody is batch_modexp: uint32 count ‖ count × (n ‖ a ‖ b).
var tripleBatchBody = bodyCodec{
	enc: func(b []byte, req *request) []byte {
		b = appendUint32(b, uint32(len(req.jobs)))
		for _, j := range req.jobs {
			b = appendBigs(b, j.n, j.a, j.b)
		}
		return b
	},
	dec: func(b []byte, req *request) error {
		d := decoder{b}
		n, err := d.count(3 * 4) // three length prefixes per item
		if err != nil {
			return err
		}
		req.jobs = make([]triple, n)
		for i := range req.jobs {
			j := &req.jobs[i]
			if err := d.bigs(&j.n, &j.a, &j.b); err != nil {
				return err
			}
		}
		return d.done()
	},
}

// appendRequest appends a request payload with the body from the op's
// codec.
func appendRequest(b []byte, req *request) []byte {
	return opTable[req.op].body.enc(appendHeader(b, req), req)
}

// appendHeader appends a request payload up to its body, picking the
// traced and tagged variant byte when the op's row declares one.
func appendHeader(b []byte, req *request) []byte {
	desc := &opTable[req.op]
	wireOp := req.op
	traced := req.tc.Sampled && desc.traced != 0
	if traced {
		wireOp = desc.traced
	}
	tagged := desc.tagged && (req.tenant != "" || req.class != 0)
	if tagged {
		wireOp += OpQoSOffset
	}
	b = append(b, ProtoVersion, byte(wireOp))
	b = appendUint64(b, req.id)
	var dl int64
	if !req.deadline.IsZero() {
		dl = req.deadline.UnixNano()
	}
	b = appendUint64(b, uint64(dl))
	if tagged {
		b = encodeQoSBlock(b, req)
	}
	if traced {
		b = append(b, req.tc.TraceID[:]...)
		b = append(b, req.tc.SpanID[:]...)
		b = append(b, traceFlagSampled)
	}
	return b
}

// maxBatch bounds a batch's item count; combined with the frame size
// limit and decoder.count it keeps decode allocations proportional to
// bytes received.
const maxBatch = 1 << 16

// decodeRequest parses a request payload. The op byte must be one
// wireOps declares; the blocks it declares follow the header, and the
// base op's body codec parses the rest.
func decodeRequest(payload []byte) (*request, error) {
	d := decoder{payload}
	ver, err := d.byte()
	if err != nil {
		return nil, err
	}
	if ver != ProtoVersion {
		return nil, fmt.Errorf("server: protocol version %d (want %d): %w",
			ver, ProtoVersion, errs.ErrProtocol)
	}
	opb, err := d.byte()
	if err != nil {
		return nil, err
	}
	w := wireOps[opb]
	if w.base == 0 {
		return nil, fmt.Errorf("server: unknown op %d: %w", opb, errs.ErrProtocol)
	}
	req := &request{op: w.base}
	if req.id, err = d.uint64(); err != nil {
		return nil, err
	}
	dl, err := d.uint64()
	if err != nil {
		return nil, err
	}
	if dl != 0 {
		req.deadline = time.Unix(0, int64(dl))
	}
	if w.tagged {
		if err := decodeQoSBlock(&d, req); err != nil {
			return nil, err
		}
	}
	if w.traced {
		blk, err := d.take(16 + 8 + 1)
		if err != nil {
			return nil, err
		}
		copy(req.tc.TraceID[:], blk[:16])
		copy(req.tc.SpanID[:], blk[16:24])
		req.tc.Sampled = blk[24]&traceFlagSampled != 0
	}
	req.body = d.b
	if err := opTable[w.base].body.dec(d.b, req); err != nil {
		return nil, err
	}
	return req, nil
}

// --- response codec -----------------------------------------------------

// appendResponse appends a response payload to b. The op picks the OK
// body's shape from its row; it is not itself encoded — the client
// knows it from the id.
func appendResponse(b []byte, op Op, resp *response) []byte {
	b = append(b, ProtoVersion)
	b = appendUint64(b, resp.id)
	b = append(b, byte(resp.code))
	if resp.body != nil {
		return append(b, resp.body...)
	}
	if resp.code != CodeOK {
		return appendString(b, resp.msg)
	}
	n := opTable[op].values
	if n != perItem {
		return appendBigs(b, resp.values[:n]...)
	}
	b = appendUint32(b, uint32(len(resp.codes)))
	for i, c := range resp.codes {
		b = append(b, byte(c))
		if c == CodeOK {
			b = appendBig(b, resp.values[i])
		} else {
			b = appendString(b, resp.msgs[i])
		}
	}
	return b
}

// decodeResponse parses a response payload; op must be the op of the
// request the id belongs to.
func decodeResponse(op Op, payload []byte) (*response, error) {
	resp, d, err := decodeResponseHead(payload)
	if err != nil || resp.code != CodeOK {
		return resp, err
	}
	n := opTable[op].values
	if n != perItem {
		resp.values = resp.one[:]
		if n != 1 {
			resp.values = make([]*big.Int, n)
		}
		for i := range resp.values {
			if resp.values[i], err = d.big(); err != nil {
				return nil, err
			}
		}
		return resp, d.done()
	}
	// Each item is at least a code byte plus a length prefix.
	if n, err = d.count(1 + 4); err != nil {
		return nil, err
	}
	resp.codes = make([]Code, n)
	resp.msgs = make([]string, n)
	resp.values = make([]*big.Int, n)
	for i := range resp.codes {
		icb, err := d.byte()
		if err != nil {
			return nil, err
		}
		resp.codes[i] = Code(icb)
		if resp.codes[i] == CodeOK {
			if resp.values[i], err = d.big(); err != nil {
				return nil, err
			}
		} else if resp.msgs[i], err = d.string(); err != nil {
			return nil, err
		}
	}
	return resp, d.done()
}

// forwardedResponse parses the answer to a Client.Forward request: the
// header, and an error's message for the retry loop to classify. The
// body stays as encoded, for the forwarding server to pass on.
func forwardedResponse(payload []byte) (*response, error) {
	resp, _, err := decodeResponseHead(payload)
	if err != nil {
		return nil, err
	}
	resp.body = payload[1+8+1:] // after version, id and code
	return resp, nil
}

// decodeResponseHead parses a response payload's version, id and code.
// An error response is parsed whole, message included; an OK one
// returns the decoder at its body.
func decodeResponseHead(payload []byte) (*response, decoder, error) {
	d := decoder{payload}
	ver, err := d.byte()
	if err != nil {
		return nil, d, err
	}
	if ver != ProtoVersion {
		return nil, d, fmt.Errorf("server: response version %d (want %d): %w",
			ver, ProtoVersion, errs.ErrProtocol)
	}
	resp := &response{}
	if resp.id, err = d.uint64(); err != nil {
		return nil, d, err
	}
	cb, err := d.byte()
	if err != nil {
		return nil, d, err
	}
	resp.code = Code(cb)
	if resp.code != CodeOK {
		if resp.msg, err = d.string(); err != nil {
			return nil, d, err
		}
		if err := d.done(); err != nil {
			return nil, d, err
		}
	}
	return resp, d, nil
}
